//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program under test is instrumented.
//!
//! A span's layer is the prefix of its name before the first `.`
//! (`core`, `aggregate`, `service`, `cluster`, `gen`). A layer's self
//! time is the summed duration of its spans minus the part covered by
//! their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers spans are attributed to, in report order.
pub const LAYERS: [&str; 5] = ["core", "aggregate", "service", "cluster", "gen"];

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Span sink; a disabled tracer records nothing and hands out id 0.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves a span id so children can name their parent before the
    /// parent span closes. 0 (no span) when tracing is off.
    pub fn open(&self) -> u32 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records span `id` (from [`Tracer::open`]) over `[start, end]`.
    pub fn close(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Records a leaf span in one call.
    pub fn span(&self, name: &'static str, parent: u32, req: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.open();
            self.close(id, name, parent, req, start, end);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Self time per layer, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in spans.iter() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
