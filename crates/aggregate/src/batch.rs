//! Columnar report batches and the `TSR4` batch wire frame.
//!
//! The single-report frames (`TSR2`/`TSR3`, [`crate::report`]) spend
//! most of the ingest path's cycles on per-report overhead: one frame
//! header, one decode dispatch, one aggregation call, and — behind a
//! router or a durable server — one WAL record and one ack per report.
//! `TSR4` amortises all of it. One frame carries N reports with the
//! header fields every report in the batch shares hoisted out once:
//!
//! ```text
//! magic                   4B    "TSR4"
//! count                   u32   N >= 1 reports
//! base_t                  u64   timestamp base (per-report t = base_t + delta)
//! eps_nano                u64   shared per-report ε′ in nano-ε (the ε′ grid)
//! len                     u16   shared declared |τ| (the report kind)
//! total_uni               u32   Σ per-report unigram counts
//! total_exact             u32   Σ per-report exact-position counts
//! total_trans             u32   Σ per-report transition counts
//! t_delta                 u32 × N
//! n_uni                   u32 × N
//! n_exact                 u32 × N
//! n_trans                 u32 × N
//! uni_pos                 u16 × total_uni
//! uni_region              u32 × total_uni
//! exact_pos               u16 × total_exact
//! exact_region            u32 × total_exact
//! trans_tail              u32 × total_trans
//! trans_head              u32 × total_trans
//! crc32                   u32   (IEEE, over every preceding payload byte)
//! ```
//!
//! all little-endian, framed exactly like a single report: `u32`
//! payload length, then the payload above. Because ε′ and `len` are
//! shared by construction, column accumulation needs **one** ε-grid
//! check and **one** length bound per batch instead of per report — see
//! `accumulate_columns` in [`crate::ingest`] — and the decoded form,
//! [`ReportBatch`], is struct-of-arrays so a server can decode into
//! per-connection scratch with zero per-report allocation.
//!
//! The decoder obeys the same hostile-input contract as
//! [`Report::decode`]: all size arithmetic in `u64`, nothing written to
//! the scratch columns until the declared counts are proven consistent
//! with the buffer length, the CRC, and each other. A frame that fails
//! any check must never be acked.

use crate::report::{DecodeError, Report, MAX_FRAME_LEN};
use crate::snapshot::crc32;
use trajshare_core::crc32_extend;

/// A decoded `TSR4` batch: N reports in columnar (struct-of-arrays)
/// form, with the shared header fields hoisted. Reusable as scratch:
/// [`ReportBatch::clear`] keeps column capacity, so a long-lived
/// connection decodes every frame with zero per-report allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportBatch {
    /// Timestamp base; report `i` has `t = base_t + t_delta[i]`.
    pub base_t: u64,
    /// Shared per-report privacy parameter, nano-ε (`eps_to_nano`).
    pub eps_nano: u64,
    /// Shared declared trajectory length |τ|.
    pub len: u16,
    /// Per-report timestamp deltas (length N).
    pub t_delta: Vec<u32>,
    /// Per-report unigram counts (length N).
    pub n_uni: Vec<u32>,
    /// Per-report exact-position counts (length N).
    pub n_exact: Vec<u32>,
    /// Per-report transition counts (length N).
    pub n_trans: Vec<u32>,
    /// Unigram positions, all reports concatenated.
    pub uni_pos: Vec<u16>,
    /// Unigram regions, parallel to `uni_pos`.
    pub uni_region: Vec<u32>,
    /// Exact-position positions, all reports concatenated.
    pub exact_pos: Vec<u16>,
    /// Exact-position regions, parallel to `exact_pos`.
    pub exact_region: Vec<u32>,
    /// Transition tails, all reports concatenated.
    pub trans_tail: Vec<u32>,
    /// Transition heads, parallel to `trans_tail`.
    pub trans_head: Vec<u32>,
}

impl ReportBatch {
    /// Frame magic for the batch format.
    pub const MAGIC: [u8; 4] = *b"TSR4";
    /// Fixed payload header: magic + count + base_t + eps_nano + len +
    /// three column totals.
    pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 2 + 4 + 4 + 4;

    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reports currently in the batch.
    pub fn num_reports(&self) -> usize {
        self.t_delta.len()
    }

    /// True when the batch holds no reports.
    pub fn is_empty(&self) -> bool {
        self.t_delta.is_empty()
    }

    /// Empties the batch but keeps column capacity (scratch reuse).
    pub fn clear(&mut self) {
        self.base_t = 0;
        self.eps_nano = 0;
        self.len = 0;
        self.t_delta.clear();
        self.n_uni.clear();
        self.n_exact.clear();
        self.n_trans.clear();
        self.uni_pos.clear();
        self.uni_region.clear();
        self.exact_pos.clear();
        self.exact_region.clear();
        self.trans_tail.clear();
        self.trans_head.clear();
    }

    /// Timestamp of report `i` (saturating: a hostile `base_t` near
    /// `u64::MAX` must not panic).
    pub fn t_of(&self, i: usize) -> u64 {
        self.base_t.saturating_add(self.t_delta[i] as u64)
    }

    /// Largest timestamp in the batch (`base_t` when empty).
    pub fn max_t(&self) -> u64 {
        self.base_t
            .saturating_add(self.t_delta.iter().copied().max().unwrap_or(0) as u64)
    }

    /// Re-stamps every report in the batch to timestamp `t` (the
    /// server-clock ingest policy applied batch-wide).
    pub fn stamp_t(&mut self, t: u64) {
        self.base_t = t;
        self.t_delta.fill(0);
    }

    /// Encoded payload size (without the 4-byte frame length prefix).
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN
            + self.t_delta.len() * 16
            + self.uni_pos.len() * 6
            + self.exact_pos.len() * 6
            + self.trans_tail.len() * 8
            + 4
    }

    /// Appends `report` if it is key-compatible with the batch: same
    /// ε′, same declared length, a timestamp representable as
    /// `base_t + u32` (the first report fixes the key), and room left
    /// under [`MAX_FRAME_LEN`]. Returns `false` without modifying the
    /// batch when it is not — the caller flushes the batch and retries,
    /// which succeeds on an empty batch unless the report alone would
    /// exceed a frame.
    pub fn try_push(&mut self, report: &Report) -> bool {
        let row_bytes = row_len(
            report.unigrams.len(),
            report.exact.len(),
            report.transitions.len(),
        );
        if !self.push_key(report.t, report.eps_nano(), report.len, row_bytes) {
            return false;
        }
        self.n_uni.push(report.unigrams.len() as u32);
        self.n_exact.push(report.exact.len() as u32);
        self.n_trans.push(report.transitions.len() as u32);
        for &(pos, region) in &report.unigrams {
            self.uni_pos.push(pos);
            self.uni_region.push(region);
        }
        for &(pos, region) in &report.exact {
            self.exact_pos.push(pos);
            self.exact_region.push(region);
        }
        for &(tail, head) in &report.transitions {
            self.trans_tail.push(tail);
            self.trans_head.push(head);
        }
        true
    }

    /// [`ReportBatch::try_push`] for a row borrowed from another batch:
    /// the columns are copied slice by slice, with no row-form
    /// [`Report`] in between.
    pub(crate) fn try_push_row(&mut self, row: &BatchRow<'_>) -> bool {
        let row_bytes = row_len(row.uni_pos.len(), row.exact_pos.len(), row.trans_tail.len());
        if !self.push_key(row.t, row.eps_nano, row.len, row_bytes) {
            return false;
        }
        self.n_uni.push(row.uni_pos.len() as u32);
        self.n_exact.push(row.exact_pos.len() as u32);
        self.n_trans.push(row.trans_tail.len() as u32);
        self.uni_pos.extend_from_slice(row.uni_pos);
        self.uni_region.extend_from_slice(row.uni_region);
        self.exact_pos.extend_from_slice(row.exact_pos);
        self.exact_region.extend_from_slice(row.exact_region);
        self.trans_tail.extend_from_slice(row.trans_tail);
        self.trans_head.extend_from_slice(row.trans_head);
        true
    }

    /// The key and size check shared by both push paths: fixes the key
    /// on an empty batch, refuses an incompatible or oversized row, and
    /// otherwise appends the row's timestamp delta.
    fn push_key(&mut self, t: u64, eps_nano: u64, len: u16, row_bytes: usize) -> bool {
        if self.encoded_len() + row_bytes > MAX_FRAME_LEN as usize {
            return false;
        }
        if self.is_empty() {
            self.base_t = t;
            self.eps_nano = eps_nano;
            self.len = len;
        } else if eps_nano != self.eps_nano
            || len != self.len
            || t < self.base_t
            || t - self.base_t > u32::MAX as u64
            || self.t_delta.len() >= u32::MAX as usize
        {
            return false;
        }
        self.t_delta.push((t - self.base_t) as u32);
        true
    }

    /// Reconstructs report `i`'s row-form, allocating. Cold paths only
    /// (WAL replay); the hot paths stay columnar. Prefer
    /// [`ReportBatch::reports`] when walking the whole batch —
    /// `report_at` rescans the count columns to find offsets.
    pub fn report_at(&self, i: usize) -> Report {
        self.rows()
            .nth(i)
            .expect("report index in range")
            .to_report()
    }

    /// Iterates the batch as allocated row-form [`Report`]s, in order.
    pub fn reports(&self) -> impl Iterator<Item = Report> + '_ {
        self.rows().map(|row| row.to_report())
    }

    /// Iterates the batch's rows in order, borrowed straight from the
    /// columns (no allocation).
    pub fn rows(&self) -> impl Iterator<Item = BatchRow<'_>> + '_ {
        let mut u0 = 0usize;
        let mut e0 = 0usize;
        let mut t0 = 0usize;
        (0..self.num_reports()).map(move |i| {
            let (u1, e1, t1) = (
                u0 + self.n_uni[i] as usize,
                e0 + self.n_exact[i] as usize,
                t0 + self.n_trans[i] as usize,
            );
            let row = BatchRow {
                t: self.t_of(i),
                eps_nano: self.eps_nano,
                len: self.len,
                uni_pos: &self.uni_pos[u0..u1],
                uni_region: &self.uni_region[u0..u1],
                exact_pos: &self.exact_pos[e0..e1],
                exact_region: &self.exact_region[e0..e1],
                trans_tail: &self.trans_tail[t0..t1],
                trans_head: &self.trans_head[t0..t1],
            };
            (u0, e0, t0) = (u1, e1, t1);
            row
        })
    }

    /// Batches `reports` wholesale; `None` if any report is not
    /// key-compatible with the first.
    pub fn from_reports(reports: &[Report]) -> Option<Self> {
        let mut batch = Self::new();
        for r in reports {
            if !batch.try_push(r) {
                return None;
            }
        }
        Some(batch)
    }

    /// Encodes the `TSR4` payload (no frame length prefix).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_payload_into(&mut out);
        out
    }

    /// Appends the `TSR4` payload to `out`.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.extend_from_slice(&Self::MAGIC);
        out.extend_from_slice(&(self.t_delta.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.base_t.to_le_bytes());
        out.extend_from_slice(&self.eps_nano.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.uni_pos.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.exact_pos.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.trans_tail.len() as u32).to_le_bytes());
        put_u32s(out, &self.t_delta);
        put_u32s(out, &self.n_uni);
        put_u32s(out, &self.n_exact);
        put_u32s(out, &self.n_trans);
        put_u16s(out, &self.uni_pos);
        put_u32s(out, &self.uni_region);
        put_u16s(out, &self.exact_pos);
        put_u32s(out, &self.exact_region);
        put_u32s(out, &self.trans_tail);
        put_u32s(out, &self.trans_head);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the length-prefixed `TSR4` frame to `out`.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.encoded_len() as u32).to_le_bytes());
        self.encode_payload_into(out);
    }

    /// Decodes a `TSR4` payload into this batch, reusing column
    /// capacity. On any error the batch is left empty and nothing must
    /// be acked. Validation order: magic, header completeness, exact
    /// declared-size match (in `u64`, so hostile counts cannot overflow
    /// or force an allocation), CRC, and per-report count columns
    /// summing to the declared totals.
    ///
    /// On success returns the CRC-32 of the **entire** `buf` (including
    /// its trailing frame checksum) — exactly what a WAL record header
    /// over the payload needs — continued from the state the validation
    /// pass already computed, so durable callers never rescan the bytes.
    pub fn decode_payload_into(&mut self, buf: &[u8]) -> Result<u32, DecodeError> {
        self.decode_payload_impl(buf, None)
    }

    /// [`ReportBatch::decode_payload_into`] with the server's per-stage
    /// ingest profile hooked in: nanoseconds spent *validating* the
    /// frame (header checks, CRC, count-column consistency) and
    /// *decoding* it (column fills) are added to the two counters. Early
    /// validation failures add nothing — hostile frames are the
    /// exception path, and the profile measures the accepted-frame cost.
    pub fn decode_payload_timed(
        &mut self,
        buf: &[u8],
        validate_ns: &mut u64,
        fill_ns: &mut u64,
    ) -> Result<u32, DecodeError> {
        self.decode_payload_impl(buf, Some((validate_ns, fill_ns)))
    }

    fn decode_payload_impl(
        &mut self,
        buf: &[u8],
        timing: Option<(&mut u64, &mut u64)>,
    ) -> Result<u32, DecodeError> {
        let t0 = timing.as_ref().map(|_| std::time::Instant::now());
        self.clear();
        if buf.len() < 4 {
            return Err(DecodeError::Truncated {
                needed: Self::HEADER_LEN as u64 + 4,
            });
        }
        if buf[0..4] != Self::MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if buf.len() < Self::HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: Self::HEADER_LEN as u64 + 4,
            });
        }
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let count = u32_at(4) as u64;
        let base_t = u64_at(8);
        let eps_nano = u64_at(16);
        let len = u16::from_le_bytes(buf[24..26].try_into().unwrap());
        let total_uni = u32_at(26) as u64;
        let total_exact = u32_at(30) as u64;
        let total_trans = u32_at(34) as u64;
        let expect = Self::HEADER_LEN as u64
            + count * 16
            + total_uni * 6
            + total_exact * 6
            + total_trans * 8
            + 4;
        match (buf.len() as u64).cmp(&expect) {
            std::cmp::Ordering::Less => return Err(DecodeError::Truncated { needed: expect }),
            std::cmp::Ordering::Greater => return Err(DecodeError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        if count == 0 {
            return Err(DecodeError::FrameMismatch);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let prefix_crc = crc32(payload);
        if prefix_crc != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            return Err(DecodeError::BadCrc);
        }
        let whole_crc = crc32_extend(prefix_crc, crc_bytes);
        let n = count as usize;
        let mut off = Self::HEADER_LEN;
        let mut take = |bytes: usize| {
            let s = &buf[off..off + bytes];
            off += bytes;
            s
        };
        let t_delta = take(n * 4);
        let n_uni = take(n * 4);
        let n_exact = take(n * 4);
        let n_trans = take(n * 4);
        let sum_u32 = |bytes: &[u8]| -> u64 {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64)
                .sum()
        };
        if sum_u32(n_uni) != total_uni
            || sum_u32(n_exact) != total_exact
            || sum_u32(n_trans) != total_trans
        {
            return Err(DecodeError::FrameMismatch);
        }
        let t1 = t0.map(|_| std::time::Instant::now());
        self.base_t = base_t;
        self.eps_nano = eps_nano;
        self.len = len;
        fill_u32(&mut self.t_delta, t_delta);
        fill_u32(&mut self.n_uni, n_uni);
        fill_u32(&mut self.n_exact, n_exact);
        fill_u32(&mut self.n_trans, n_trans);
        let tu = total_uni as usize;
        let te = total_exact as usize;
        let tt = total_trans as usize;
        fill_u16(&mut self.uni_pos, take(tu * 2));
        fill_u32(&mut self.uni_region, take(tu * 4));
        fill_u16(&mut self.exact_pos, take(te * 2));
        fill_u32(&mut self.exact_region, take(te * 4));
        fill_u32(&mut self.trans_tail, take(tt * 4));
        fill_u32(&mut self.trans_head, take(tt * 4));
        debug_assert_eq!(off, payload.len());
        if let (Some((validate_ns, fill_ns)), Some(t0), Some(t1)) = (timing, t0, t1) {
            *validate_ns += t1.duration_since(t0).as_nanos() as u64;
            *fill_ns += t1.elapsed().as_nanos() as u64;
        }
        Ok(whole_crc)
    }
}

fn fill_u32(dst: &mut Vec<u32>, bytes: &[u8]) {
    dst.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
    );
}

fn fill_u16(dst: &mut Vec<u16>, bytes: &[u8]) {
    dst.extend(
        bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap())),
    );
}

fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    let start = out.len();
    out.resize(start + vals.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_u16s(out: &mut Vec<u8>, vals: &[u16]) {
    let start = out.len();
    out.resize(start + vals.len() * 2, 0);
    for (dst, v) in out[start..].chunks_exact_mut(2).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// One report of a [`ReportBatch`], borrowed in place from its columns
/// (what [`ReportBatch::rows`] yields): the router places and re-batches
/// rows without ever materialising a row-form [`Report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRow<'a> {
    /// Report timestamp (`base_t + t_delta`, saturating).
    pub t: u64,
    /// The batch's shared ε′, nano-ε.
    pub eps_nano: u64,
    /// The batch's shared declared |τ|.
    pub len: u16,
    /// Unigram positions.
    pub uni_pos: &'a [u16],
    /// Unigram regions, parallel to `uni_pos`.
    pub uni_region: &'a [u32],
    /// Exact-position positions.
    pub exact_pos: &'a [u16],
    /// Exact-position regions, parallel to `exact_pos`.
    pub exact_region: &'a [u32],
    /// Transition tails.
    pub trans_tail: &'a [u32],
    /// Transition heads, parallel to `trans_tail`.
    pub trans_head: &'a [u32],
}

impl BatchRow<'_> {
    /// The row as an allocated row-form [`Report`].
    pub fn to_report(&self) -> Report {
        let pairs =
            |pos: &[u16], region: &[u32]| pos.iter().copied().zip(region.iter().copied()).collect();
        Report {
            t: self.t,
            eps_prime: self.eps_nano as f64 / 1e9,
            len: self.len,
            unigrams: pairs(self.uni_pos, self.uni_region),
            exact: pairs(self.exact_pos, self.exact_region),
            transitions: self
                .trans_tail
                .iter()
                .copied()
                .zip(self.trans_head.iter().copied())
                .collect(),
        }
    }
}

/// Encoded bytes one report adds to a batch: its four per-report
/// columns plus its pairs.
fn row_len(n_uni: usize, n_exact: usize, n_trans: usize) -> usize {
    16 + n_uni * 6 + n_exact * 6 + n_trans * 8
}

/// Streams reports into length-prefixed `TSR4` frames, flushing a
/// frame whenever the current batch reaches `max_reports` or the next
/// report is not key-compatible (different ε′ or |τ|, a timestamp delta
/// that no longer fits, or no room left under [`MAX_FRAME_LEN`]). The
/// shared codec for the client's batched sender and the router's
/// per-worker re-batching.
#[derive(Debug)]
pub struct BatchEncoder {
    batch: ReportBatch,
    max_reports: usize,
}

impl BatchEncoder {
    /// An encoder emitting at most `max_reports` reports per frame.
    pub fn new(max_reports: usize) -> Self {
        Self {
            batch: ReportBatch::new(),
            max_reports: max_reports.max(1),
        }
    }

    /// Adds `report`, appending any completed frame to `out`. Returns
    /// `false`, adding nothing, only when the report alone would exceed
    /// [`MAX_FRAME_LEN`] — no frame could carry it.
    pub fn push(&mut self, report: &Report, out: &mut Vec<u8>) -> bool {
        self.push_with(out, |batch| batch.try_push(report))
    }

    /// [`BatchEncoder::push`] for a row borrowed from a decoded batch:
    /// the columnar path, with no row-form [`Report`] in between.
    pub fn push_row(&mut self, row: &BatchRow<'_>, out: &mut Vec<u8>) -> bool {
        self.push_with(out, |batch| batch.try_push_row(row))
    }

    fn push_with(
        &mut self,
        out: &mut Vec<u8>,
        mut push: impl FnMut(&mut ReportBatch) -> bool,
    ) -> bool {
        if self.batch.num_reports() >= self.max_reports {
            self.flush(out);
        }
        if push(&mut self.batch) {
            return true;
        }
        self.flush(out);
        push(&mut self.batch)
    }

    /// Appends the in-progress frame (if any) to `out`.
    pub fn flush(&mut self, out: &mut Vec<u8>) {
        if !self.batch.is_empty() {
            self.batch.encode_frame_into(out);
            self.batch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StreamDecoder;

    fn toy_report(t: u64, eps: f64, len: u16, seed: u32) -> Report {
        Report {
            t,
            eps_prime: eps,
            len,
            unigrams: (0..len).map(|p| (p, (seed + p as u32) % 7)).collect(),
            exact: (0..len.min(2))
                .map(|p| (p, (seed + p as u32) % 7))
                .collect(),
            transitions: if len >= 2 {
                vec![(seed % 7, (seed + 1) % 7)]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn payload_roundtrips() {
        let reports: Vec<Report> = (0..37)
            .map(|i| toy_report(100 + i, 1.25, 3, i as u32))
            .collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        assert_eq!(batch.num_reports(), reports.len());
        let payload = batch.encode_payload();
        assert_eq!(payload.len(), batch.encoded_len());
        let mut decoded = ReportBatch::new();
        decoded.decode_payload_into(&payload).unwrap();
        assert_eq!(decoded, batch);
        let back: Vec<Report> = decoded.reports().collect();
        assert_eq!(back, reports);
        for (i, want) in reports.iter().enumerate() {
            assert_eq!(&decoded.report_at(i), want);
        }
    }

    #[test]
    fn scratch_reuse_is_exact() {
        let mut scratch = ReportBatch::new();
        let big: Vec<Report> = (0..64).map(|i| toy_report(i, 2.0, 4, i as u32)).collect();
        let small = vec![toy_report(9, 0.5, 2, 3)];
        for reports in [&big, &small, &big] {
            let batch = ReportBatch::from_reports(reports).unwrap();
            scratch
                .decode_payload_into(&batch.encode_payload())
                .unwrap();
            assert_eq!(scratch, batch);
        }
    }

    #[test]
    fn try_push_flushes_on_key_change() {
        let mut batch = ReportBatch::new();
        assert!(batch.try_push(&toy_report(10, 1.0, 3, 0)));
        assert!(batch.try_push(&toy_report(12, 1.0, 3, 1)));
        // Different ε′.
        assert!(!batch.try_push(&toy_report(12, 2.0, 3, 2)));
        // Different |τ|.
        assert!(!batch.try_push(&toy_report(12, 1.0, 4, 2)));
        // Timestamp below the base.
        assert!(!batch.try_push(&toy_report(9, 1.0, 3, 2)));
        // Delta beyond u32.
        assert!(!batch.try_push(&toy_report(10 + (1 << 33), 1.0, 3, 2)));
        assert_eq!(batch.num_reports(), 2);
        // The rejects left the batch untouched.
        let payload = batch.encode_payload();
        let mut decoded = ReportBatch::new();
        decoded.decode_payload_into(&payload).unwrap();
        assert_eq!(decoded.reports().count(), 2);
    }

    #[test]
    fn encoder_splits_mixed_keys_and_caps_batches() {
        let mut reports: Vec<Report> = (0..10).map(|i| toy_report(i, 1.0, 3, i as u32)).collect();
        reports.push(toy_report(20, 0.5, 3, 1)); // key change -> new frame
        reports.push(toy_report(21, 0.5, 3, 2));
        let mut wire = Vec::new();
        let mut enc = BatchEncoder::new(4);
        for r in &reports {
            enc.push(r, &mut wire);
        }
        enc.flush(&mut wire);

        // Walk the frames: 4 + 4 + 2 (cap) then 2 (key change).
        let mut sizes = Vec::new();
        let mut rest = &wire[..];
        let mut scratch = ReportBatch::new();
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let plen = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            scratch.decode_payload_into(&rest[4..4 + plen]).unwrap();
            sizes.push(scratch.num_reports());
            decoded.extend(scratch.reports());
            rest = &rest[4 + plen..];
        }
        assert_eq!(sizes, vec![4, 4, 2, 2]);
        assert_eq!(decoded, reports);
    }

    #[test]
    fn hostile_payloads_never_panic_and_never_decode() {
        let good = ReportBatch::from_reports(
            &(0..5)
                .map(|i| toy_report(i, 1.0, 3, i as u32))
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .encode_payload();
        let mut scratch = ReportBatch::new();

        // Truncations at every boundary.
        for cut in 0..good.len() {
            assert!(scratch.decode_payload_into(&good[..cut]).is_err());
            assert!(scratch.is_empty());
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            scratch.decode_payload_into(&long),
            Err(DecodeError::TrailingBytes)
        );
        // Every single-byte corruption either flips the CRC or breaks a
        // structural check — none may panic, none may decode.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x41;
            assert!(scratch.decode_payload_into(&bad).is_err(), "byte {at}");
        }
        // Overflowing counts: huge totals with a valid CRC still fail
        // the u64 size check before any allocation.
        let mut huge = good.clone();
        huge[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = huge.len();
        let crc = crc32(&huge[..n - 4]);
        huge[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            scratch.decode_payload_into(&huge),
            Err(DecodeError::Truncated { .. })
        ));
        // Count columns disagreeing with the declared totals.
        let batch = ReportBatch::from_reports(
            &(0..2)
                .map(|i| toy_report(i, 1.0, 3, i as u32))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut skew = batch.encode_payload();
        let base = ReportBatch::HEADER_LEN + 2 * 4; // first n_uni entry
        skew[base..base + 4].copy_from_slice(&2u32.to_le_bytes());
        let hdr = ReportBatch::HEADER_LEN + 2 * 4 * 4; // second entry balances the sum? no: force mismatch
        let _ = hdr;
        let n = skew.len();
        let crc = crc32(&skew[..n - 4]);
        skew[n - 4..].copy_from_slice(&crc.to_le_bytes());
        // Sum is now totals+(-1): 3+3 declared vs 2+3 actual -> mismatch.
        assert_eq!(
            scratch.decode_payload_into(&skew),
            Err(DecodeError::FrameMismatch)
        );
        // Zero-report batches are not a thing.
        let mut empty = ReportBatch::new().encode_payload();
        let n = empty.len();
        let crc = crc32(&empty[..n - 4]);
        empty[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            scratch.decode_payload_into(&empty),
            Err(DecodeError::FrameMismatch)
        );
    }

    #[test]
    fn hostile_base_t_saturates() {
        let mut batch = ReportBatch::from_reports(&[toy_report(0, 1.0, 3, 1)]).unwrap();
        batch.base_t = u64::MAX - 1;
        batch.t_delta[0] = 1000;
        let payload = batch.encode_payload();
        let mut scratch = ReportBatch::new();
        scratch.decode_payload_into(&payload).unwrap();
        assert_eq!(scratch.max_t(), u64::MAX);
        assert_eq!(scratch.report_at(0).t, u64::MAX);
    }

    #[test]
    fn stream_decoder_interleaves_all_three_frame_kinds() {
        use crate::report::WireFrame;
        let singles: Vec<Report> = (0..3).map(|i| toy_report(i, 0.75, 3, i as u32)).collect();
        let batched: Vec<Report> = (0..5)
            .map(|i| toy_report(50 + i, 1.5, 2, i as u32))
            .collect();
        let mut wire = Vec::new();
        singles[0].encode_frame_into(&mut wire); // TSR3
        ReportBatch::from_reports(&batched)
            .unwrap()
            .encode_frame_into(&mut wire); // TSR4
        singles[1].encode_frame_into(&mut wire); // TSR3
        wire.extend_from_slice(&crate::report::tests_v2_frame(&singles[2])); // TSR2
        ReportBatch::from_reports(&batched[..2])
            .unwrap()
            .encode_frame_into(&mut wire); // TSR4 again

        // Dribble it in byte by byte; collect what comes out.
        let mut dec = StreamDecoder::new();
        let mut scratch = ReportBatch::new();
        let mut got: Vec<Report> = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            loop {
                match dec.next_wire_frame().unwrap() {
                    None => break,
                    Some(WireFrame::Single { report, .. }) => got.push(report),
                    Some(WireFrame::Batch { payload }) => {
                        scratch.decode_payload_into(payload).unwrap();
                        got.extend(scratch.reports());
                    }
                    Some(WireFrame::Hello { .. }) => panic!("no hello on this wire"),
                }
            }
        }
        assert_eq!(dec.pending(), 0);
        let mut v2_single = singles[2].clone();
        v2_single.t = 0; // TSR2 carries no timestamp
        let mut want = vec![singles[0].clone()];
        want.extend(batched.iter().cloned());
        want.push(singles[1].clone());
        want.push(v2_single);
        want.extend(batched[..2].iter().cloned());
        assert_eq!(got, want);
    }

    #[test]
    fn push_row_streams_the_same_bytes_as_push() {
        // ε′ changes every third report, so frames split on key changes
        // as well as on the cap.
        let reports: Vec<Report> = (0..40)
            .map(|i| toy_report(i, if (i / 3) % 2 == 0 { 0.5 } else { 0.25 }, 3, i as u32))
            .collect();
        let mut want = Vec::new();
        let mut enc = BatchEncoder::new(8);
        for r in &reports {
            assert!(enc.push(r, &mut want));
        }
        enc.flush(&mut want);
        // Re-batch the rows of differently cut source frames.
        let mut got = Vec::new();
        let mut enc = BatchEncoder::new(8);
        let mut source = ReportBatch::new();
        for run in reports.chunks(3) {
            let frame = ReportBatch::from_reports(run).unwrap();
            source.decode_payload_into(&frame.encode_payload()).unwrap();
            for row in source.rows() {
                assert!(enc.push_row(&row, &mut got));
            }
        }
        enc.flush(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn rows_mirror_reports() {
        // Rows of every shape: zero to three unigrams, with and without
        // a transition.
        let reports: Vec<Report> = (0..9)
            .map(|i| {
                let mut r = toy_report(7 + i, 1.5, 3, i as u32);
                r.unigrams.truncate(i as usize % 4);
                r.transitions.truncate(i as usize % 2);
                r
            })
            .collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let rows: Vec<Report> = batch.rows().map(|r| r.to_report()).collect();
        assert_eq!(rows, reports);
        let mut copy = ReportBatch::new();
        for row in batch.rows() {
            assert!(copy.try_push_row(&row));
        }
        assert_eq!(copy, batch);
    }

    #[test]
    fn a_report_that_cannot_fit_a_frame_is_refused() {
        let n = (MAX_FRAME_LEN as usize) / 8;
        let giant = Report {
            t: 0,
            eps_prime: 1.0,
            len: 2,
            unigrams: vec![],
            exact: vec![],
            transitions: vec![(0, 1); n],
        };
        let mut out = Vec::new();
        let mut enc = BatchEncoder::new(4);
        assert!(enc.push(&toy_report(0, 1.0, 2, 0), &mut out));
        assert!(!enc.push(&giant, &mut out));
        enc.flush(&mut out);
        let plen = u32::from_le_bytes(out[0..4].try_into().unwrap()) as usize;
        assert_eq!(out.len(), 4 + plen, "only the small report was framed");
    }

    #[test]
    fn timed_decode_matches_untimed() {
        let reports: Vec<Report> = (0..12).map(|i| toy_report(i, 0.5, 4, i as u32)).collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let payload = batch.encode_payload();
        let mut a = ReportBatch::new();
        let mut b = ReportBatch::new();
        let (mut validate_ns, mut fill_ns) = (0u64, 0u64);
        let crc_a = a.decode_payload_into(&payload).unwrap();
        let crc_b = b
            .decode_payload_timed(&payload, &mut validate_ns, &mut fill_ns)
            .unwrap();
        assert_eq!(crc_a, crc_b);
        assert_eq!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..2048),
        ) {
            let mut scratch = ReportBatch::new();
            let _ = scratch.decode_payload_into(&bytes);
            // Adversarial prefix splice: valid magic, random rest.
            let mut spliced = ReportBatch::MAGIC.to_vec();
            spliced.extend_from_slice(&bytes);
            let _ = scratch.decode_payload_into(&spliced);
        }
    }
}
