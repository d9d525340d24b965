//! Consistent hashing of reports onto workers.
//!
//! The ring maps a `u64` key to one of N workers through `vnodes`
//! virtual points per worker, so adding or removing a worker moves only
//! `~1/N` of the key space — reports keep landing on the same worker
//! across cluster reconfigurations, which keeps per-worker WALs and
//! window rings warm. Correctness never depends on placement: the
//! cluster's merge is exact and partition-independent, so the key is
//! purely a balance/locality lever (which is also why the router may
//! fail a batch over to another live worker when its home is down).
//!
//! **Routing key.** The TSR3 wire format is deliberately anonymous —
//! there is no user id to hash (the LDP threat model excludes
//! authenticated identities). [`report_key`] therefore uses the
//! report's full content hash as a user-key proxy (distinct users'
//! perturbed reports collide only cosmically), falling back to the
//! report's single region for one-point reports, so the sparse
//! single-check-in traffic of one region co-locates on one worker.

use trajshare_aggregate::{eps_to_nano, nano_to_eps, BatchRow, Report};

/// Splitmix64 finalizer — the workspace's deterministic mixing idiom
/// (`loadgen`, `user_seed`).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit — cheap, allocation-free, and good enough for load
/// spreading (adversarial collisions only let a client self-concentrate
/// its *own* reports, which plain TCP already allows). Incremental, so
/// a hash fed piece by piece equals the hash of the concatenation.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

/// The region-affine key every one-point report for region `r` shares,
/// regardless of its ε′ or timestamp.
fn region_key(r: u32) -> u64 {
    mix64(0x5265_6769_6F6E_0000 ^ r as u64)
}

/// The routing key of one report: content hash (user-key proxy), or the
/// region id for single-point reports. `payload` is the report's exact
/// wire payload (already validated by decode), so the hash costs one
/// pass over bytes the router just read.
pub fn report_key(report: &Report, payload: &[u8]) -> u64 {
    match report.unigrams.as_slice() {
        [(_, r)] => region_key(*r),
        _ => fnv1a(payload),
    }
}

/// [`report_key`] of a `TSR4` batch row, computed straight from the
/// columns: bit-identical to `report_key(&row, &row.encode())` on the
/// row's row form, so a report lands on the same worker whether it
/// arrived in a `TSR3` frame or a `TSR4` batch. The content hash is fed
/// the exact bytes `Report::encode` would emit, piece by piece, without
/// building them (ε′ takes the row form's nano → f64 → nano round
/// trip, which is the identity on every ε′ a worker accepts).
pub fn row_key(row: &BatchRow<'_>) -> u64 {
    if let [r] = row.uni_region {
        return region_key(*r);
    }
    let mut h = Fnv1a::new();
    h.write(&Report::MAGIC);
    h.write(&row.t.to_le_bytes());
    h.write(&eps_to_nano(nano_to_eps(row.eps_nano)).to_le_bytes());
    h.write(&row.len.to_le_bytes());
    h.write(&(row.uni_pos.len() as u32).to_le_bytes());
    h.write(&(row.exact_pos.len() as u32).to_le_bytes());
    h.write(&(row.trans_tail.len() as u32).to_le_bytes());
    for (pos, region) in [
        (row.uni_pos, row.uni_region),
        (row.exact_pos, row.exact_region),
    ] {
        for (p, r) in pos.iter().zip(region) {
            h.write(&p.to_le_bytes());
            h.write(&r.to_le_bytes());
        }
    }
    for (a, b) in row.trans_tail.iter().zip(row.trans_head) {
        h.write(&a.to_le_bytes());
        h.write(&b.to_le_bytes());
    }
    h.0
}

/// A consistent-hash ring over `num_workers` workers with `vnodes`
/// virtual points each. Points are derived purely from (worker index,
/// vnode index), so every router instance with the same worker list
/// computes the identical ring.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, worker)` sorted by point.
    points: Vec<(u64, usize)>,
    num_workers: usize,
}

impl HashRing {
    /// Builds the ring. `vnodes` is clamped to at least 1.
    pub fn new(num_workers: usize, vnodes: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(num_workers * vnodes);
        for w in 0..num_workers {
            for v in 0..vnodes {
                points.push((mix64((w as u64) << 32 | v as u64), w));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            num_workers,
        }
    }

    /// Workers on the ring.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The worker owning `key`: the first ring point at or after
    /// `mix64(key)`, wrapping.
    pub fn worker_for(&self, key: u64) -> usize {
        let h = mix64(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajshare_aggregate::ReportBatch;

    #[test]
    fn ring_is_deterministic_and_covers_all_workers() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        let mut hits = [0usize; 4];
        for key in 0..20_000u64 {
            let w = a.worker_for(key);
            assert_eq!(w, b.worker_for(key), "identical rings disagree");
            hits[w] += 1;
        }
        // Every worker owns a healthy share (loose bound: ≥ half of the
        // uniform share — consistent hashing with 64 vnodes is well
        // inside this).
        for (w, &n) in hits.iter().enumerate() {
            assert!(n >= 20_000 / 4 / 2, "worker {w} got only {n} of 20000");
        }
    }

    #[test]
    fn removing_a_worker_moves_only_its_keys() {
        let four = HashRing::new(4, 64);
        let three = HashRing::new(3, 64);
        let mut moved = 0usize;
        let mut total = 0usize;
        for key in 0..20_000u64 {
            let w4 = four.worker_for(key);
            let w3 = three.worker_for(key);
            total += 1;
            if w4 < 3 && w3 != w4 {
                moved += 1;
            }
        }
        // Keys owned by surviving workers mostly stay put: the point of
        // consistent hashing over modulo hashing. (Modulo would move
        // ~2/3 of them; allow up to half of the removed worker's share
        // in churn.)
        assert!(
            moved < total / 8,
            "{moved}/{total} keys moved among surviving workers"
        );
    }

    #[test]
    fn single_point_reports_are_region_affine() {
        let ring = HashRing::new(8, 64);
        let report = |r: u32, t: u64, eps: f64| Report {
            t,
            eps_prime: eps,
            len: 1,
            unigrams: vec![(0, r)],
            exact: vec![(0, r)],
            transitions: vec![],
        };
        // Same region, different timestamps/budgets → same worker.
        let a = report(7, 0, 0.5);
        let b = report(7, 999, 2.0);
        let ka = report_key(&a, &a.encode());
        let kb = report_key(&b, &b.encode());
        assert_eq!(ka, kb);
        assert_eq!(ring.worker_for(ka), ring.worker_for(kb));
        // Multi-point reports key on content: two distinct trajectories
        // (almost surely) hash apart.
        let mut c = report(7, 0, 0.5);
        c.unigrams.push((1, 9));
        c.exact.push((1, 9));
        let mut d = c.clone();
        d.unigrams[1].1 = 10;
        d.exact[1].1 = 10;
        assert_ne!(report_key(&c, &c.encode()), report_key(&d, &d.encode()));
    }

    /// A pseudo-random batch drawn from `seed`, mixing every row shape
    /// the key distinguishes: one-unigram rows (region-affine key), rows
    /// with no transitions, |τ| = `u16::MAX`, `t_delta = u32::MAX`, and
    /// ε′ on the grid, off any sane range, or zero.
    fn random_batch(seed: u64) -> ReportBatch {
        let mut state = seed;
        let mut next = move || {
            state = mix64(state);
            state
        };
        let mut batch = ReportBatch::new();
        batch.base_t = next() >> (next() % 64);
        batch.eps_nano = match next() % 3 {
            0 => 1 + next() % 64_000_000_000,
            1 => next(),
            _ => 0,
        };
        batch.len = if next() % 4 == 0 {
            u16::MAX
        } else {
            (next() % 12) as u16
        };
        for i in 0..1 + next() % 24 {
            batch.t_delta.push(if next() % 5 == 0 {
                u32::MAX
            } else {
                next() as u32
            });
            let (nu, ne, nt) = match i % 4 {
                0 => (1, next() % 2, 0),
                1 => (next() % 6, next() % 3, 0),
                2 => (1, next() % 3, next() % 3),
                _ => (next() % 8, next() % 8, next() % 8),
            };
            batch.n_uni.push(nu as u32);
            batch.n_exact.push(ne as u32);
            batch.n_trans.push(nt as u32);
            for _ in 0..nu {
                batch.uni_pos.push(next() as u16);
                batch.uni_region.push(next() as u32);
            }
            for _ in 0..ne {
                batch.exact_pos.push(next() as u16);
                batch.exact_region.push(next() as u32);
            }
            for _ in 0..nt {
                batch.trans_tail.push(next() as u32);
                batch.trans_head.push(next() as u32);
            }
        }
        batch
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn row_keys_match_row_form_keys(seed in 0u64..u64::MAX) {
            // Keyed after a wire round trip, as the router sees them.
            let mut batch = ReportBatch::new();
            batch
                .decode_payload_into(&random_batch(seed).encode_payload())
                .unwrap();
            for (row, report) in batch.rows().zip(batch.reports()) {
                proptest::prop_assert_eq!(row_key(&row), report_key(&report, &report.encode()));
            }
        }
    }

    #[test]
    fn random_batches_cover_every_row_shape() {
        let (mut single, mut no_trans, mut max_len, mut max_delta) = (0, 0, 0, 0);
        for seed in 0..64 {
            let batch = random_batch(seed * 0x9E37_79B9);
            max_len += (batch.len == u16::MAX) as usize;
            for (i, row) in batch.rows().enumerate() {
                single += (row.uni_pos.len() == 1) as usize;
                no_trans += row.trans_tail.is_empty() as usize;
                max_delta += (batch.t_delta[i] == u32::MAX) as usize;
            }
        }
        assert!(single > 0 && no_trans > 0 && max_len > 0 && max_delta > 0);
    }
}
