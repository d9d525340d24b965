//! Population-scale LDP aggregation and trajectory synthesis.
//!
//! The per-user NGram mechanism (`trajshare_core`) answers *"how does one
//! device share one trajectory?"*. This crate answers the server side:
//! *"given millions of such ε-LDP reports, how does an untrusted
//! aggregator publish useful population statistics and a synthetic
//! trajectory dataset?"* — the aggregation → estimation → synthesis
//! architecture of LDPTrace (Du et al., VLDB 2023) and RetraSyn (Hu et
//! al., 2024), built over this repository's STC region universe.
//!
//! Pipeline:
//!
//! 1. [`report`] — a compact, serializable per-user [`Report`] extracted
//!    from `NGramMechanism::perturb_raw` (window multiset `Z`) or
//!    `ContinuousSharer::share_region`, and [`batch`] — the columnar
//!    `TSR4` batch frame ([`ReportBatch`]) that carries N reports with
//!    shared header fields hoisted, the unit of work on the hot ingest
//!    path,
//! 2. [`ingest`] — sharded, rayon-parallel accumulation into dense
//!    per-(region, hour-tile) and per-transition counters
//!    ([`Aggregator`]),
//! 3. [`estimate`] — unbiased frequency estimation by inverting the
//!    Exponential-Mechanism channel ([`EmChannel`]), IBU maximum
//!    likelihood on pluggable kernel backends ([`EstimatorBackend`]:
//!    serial dense reference, blocked rayon-parallel, or the `W₂`-aware
//!    sparse model over [`linalg`]'s CSR kernels), plus [`norm_sub`]
//!    consistency post-processing,
//! 4. [`markov`] — the debiased [`MobilityModel`] (start/end/occupancy
//!    distributions, `W₂`-restricted transition matrix, length model),
//! 5. [`synthesize`] — Markov walks over the feasible bigram universe,
//!    concretized through the mechanism's own POI-level machinery
//!    ([`Synthesizer`]),
//! 6. [`eval`] / [`pipeline`] — utility scoring against ground truth and
//!    the end-to-end client→server convenience driver,
//! 7. [`stream`] — the real-time workload: a sliding window of counters
//!    over timestamped reports ([`WindowedAggregator`]) with exact
//!    subtraction-based eviction, plus warm-started per-tick estimation
//!    ([`StreamingEstimator`]),
//! 8. [`clusterproto`] — the `TSCL` snapshot-shipping frames a
//!    distributed deployment uses to pull per-worker counter/ring state
//!    into one exactly-merged global view (`crates/cluster`),
//! 9. [`publish`] — the *released* surface ([`PublishedStream`]: model +
//!    synthetic set, never the raw counters), which is what the red-team
//!    harness (`crates/redteam`) attacks, and [`ldptrace`] — the
//!    LDPTrace-style k-RR summary baseline it is compared against.
//!
//! Everything downstream of the reports is post-processing of ε-LDP
//! outputs, so the published synthetic set inherits each user's ε
//! guarantee unchanged.

pub mod batch;
pub mod budget;
pub mod clusterproto;
pub mod estimate;
pub mod eval;
pub mod grant;
pub mod ingest;
pub mod ldptrace;
pub mod linalg;
pub mod markov;
pub mod pipeline;
pub mod publish;
pub mod report;
pub mod snapshot;
pub mod stream;
pub mod synthesize;

pub use batch::{BatchEncoder, BatchRow, ReportBatch};
pub use budget::{
    count_divergence, eps_to_nano, l1_divergence, nano_to_eps, significance_divergence,
    window_divergence, AllocationPolicy, GrantRecord, WindowBudgetAccountant, WindowBudgetConfig,
    WindowDecision, WindowGrant,
};
pub use clusterproto::{
    decode_cluster_frame, encode_cluster_frame, read_cluster_frame, write_cluster_frame,
    ClusterFrame, WorkerSnapshot, CLUSTER_MAGIC, CLUSTER_VERSION, MAX_CLUSTER_FRAME_LEN,
};
pub use estimate::{
    ibu_frequencies, ibu_frequencies_with_init, ibu_joint, ibu_joint_with_init, norm_sub,
    ChannelInverse, EmChannel, EstimatorBackend, IbuSolver,
};
pub use eval::{score_paired, EvalConfig, UtilityScores};
pub use grant::{
    ControlDecoder, ControlFrame, GrantBoard, GrantFrame, GrantSubscriber, HelloFrame,
};
pub use ingest::{aggregate_reports, region_tiles, AggregateCounts, Aggregator, TILES_PER_DAY};
pub use ldptrace::{
    debias_krr_counts, ldptrace_collect, ldptrace_model, ldptrace_publish_matching,
};
pub use linalg::CsrPattern;
pub use markov::{FrequencyEstimator, MobilityModel};
pub use pipeline::{
    aggregate_and_synthesize, aggregate_and_synthesize_matching,
    aggregate_and_synthesize_matching_with, aggregate_and_synthesize_with, collect_reports,
    user_seed, SynthesisOutcome,
};
pub use publish::PublishedStream;
pub use report::{DecodeError, Report, StreamDecoder, WireFrame, MAX_FRAME_LEN};
pub use snapshot::{
    crc32, merge_snapshot_files, read_snapshot_file, write_snapshot_file, SnapshotError,
};
pub use stream::{StreamingEstimator, WindowConfig, WindowIngest, WindowedAggregator};
pub use synthesize::Synthesizer;
