//! Helpers the networked workloads share.

use crate::report::Metric;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use trajshare_service::{IngestProfileSnapshot, ServerStats};

/// Generator threads (and connections): at most two, at most `nproc`.
pub fn gen_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// A fresh, empty data directory under `perfbench/out/work/`.
pub fn work_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("work")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a data directory");
    dir
}

/// Total bytes of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Per-report cost of each profiled stage of the batched ingest path,
/// summed over `profiles`; the sample count is the reports profiled.
pub fn stage_metrics(profiles: &[IngestProfileSnapshot]) -> Vec<Metric> {
    let sum = |f: fn(&IngestProfileSnapshot) -> u64| -> u64 { profiles.iter().map(f).sum() };
    let reports = sum(|p| p.reports);
    let per = |name, ns: u64| {
        Metric::new(
            name,
            "ns",
            ns as f64 / reports.max(1) as f64,
            reports as usize,
        )
    };
    vec![
        per("service.decode_ns", sum(|p| p.decode_ns)),
        per("service.validate_ns", sum(|p| p.validate_ns)),
        per("service.wal_ns", sum(|p| p.wal_ns)),
        per("service.accumulate_ns", sum(|p| p.accumulate_ns)),
        per("service.ack_ns", sum(|p| p.ack_ns)),
    ]
}

/// The `ServerStats` counters the benchmark reports, at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnCounts {
    pub accepted: u64,
    pub refused: u64,
    pub disconnected: u64,
}

impl ConnCounts {
    pub fn of(s: &ServerStats) -> Self {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);
        ConnCounts {
            accepted: get(&s.accepted),
            refused: get(&s.refused),
            disconnected: get(&s.disconnected_slow) + get(&s.disconnected_protocol),
        }
    }

    pub fn since(self, before: ConnCounts) -> ConnCounts {
        ConnCounts {
            accepted: self.accepted - before.accepted,
            refused: self.refused - before.refused,
            disconnected: self.disconnected - before.disconnected,
        }
    }

    pub fn add(self, o: ConnCounts) -> ConnCounts {
        ConnCounts {
            accepted: self.accepted + o.accepted,
            refused: self.refused + o.refused,
            disconnected: self.disconnected + o.disconnected,
        }
    }
}
