//! The distributed ingestion tier: one router, N workers, one merged
//! publication.
//!
//! A single `ingestd` shards reports across threads; this crate shards
//! them across *processes/machines* — the collector architecture the
//! paper's million-user deployment story implies, and the scale-out
//! path RetraSyn-style continuous publication needs. The design leans
//! entirely on a property the repo's counter formats were built for:
//! **merging is exact**. Counters are plain `u64` sums and window ids
//! are absolute, so any partition of the report stream across workers,
//! merged, is bit-identical to a single-node run — partitioning is a
//! pure throughput decision, never a correctness one.
//!
//! * [`hash`] — consistent hashing of reports onto workers (virtual
//!   nodes; content-hash key with a region fallback). Because the merge
//!   is partition-independent, the key only shapes load balance and
//!   locality, and a router may freely fail a batch over to another
//!   live worker.
//! * [`router`] — `routerd`'s front door: accepts the existing
//!   single-report client protocol unchanged plus `TSR4` batch frames,
//!   re-batches each worker's reports as `TSR4` straight from the batch
//!   columns, queues them on per-worker bounded queues (backpressure by
//!   shedding, exactly like `ingestd`'s accept queue), streams them over
//!   one persistent, pipelined connection per worker, reconnects with
//!   backoff, and acks clients only with worker-confirmed durable
//!   counts. A chunk whose bytes may have reached a worker is **never
//!   resent** (the worker keeps everything it ingested before a
//!   failure, so a resend would double-count; the affected reports
//!   simply go un-acked and the client re-sends under its own policy).
//! * [`coord`] — the coordinator: periodically pulls every worker's
//!   counter + ring state over the `TSCL` snapshot-shipping protocol
//!   (`trajshare_aggregate::clusterproto`), folds the latest full
//!   snapshot of each worker into a **fresh** global
//!   `WindowedAggregator` every tick (full-state replacement, so a
//!   re-pull can never double-count), agrees on the cluster watermark
//!   (min over worker watermarks, tagged with each worker's epoch =
//!   file generation), and runs the warm-started estimator + ε-budget
//!   accounting over the merged view.
//!
//! The binary is `routerd`: router and coordinator in one process (each
//! optional, so it also runs as a pure router or a pure `coordd`).

pub mod coord;
pub mod hash;
pub mod router;

pub use coord::{
    pull_snapshot, snapshot_fingerprint, ClusterView, CoordConfig, Coordinator, WorkerStatus,
};
pub use hash::{report_key, HashRing};
pub use router::{Router, RouterConfig, RouterHandle, RouterStats};
