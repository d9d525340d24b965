//! The repository benchmark: one command, three workloads over the
//! collector path, end-to-end metrics from untraced runs and per-layer
//! metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uploads|routed|release --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table of every metric with its unit and sample count, writes
//! the run record (and, traced, the spans) under `perfbench/out/`, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. Exits 1 when a correctness gate fails.

mod common;
mod release;
mod report;
mod routed;
mod stats;
mod trace;
mod uploads;
mod world;

use report::{metrics_json, num, print_table, str_json, Metric, Outcome};
use stats::Samples;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups before the measurement: at least `SETUP_MIN`, more (up to
/// `SETUP_MAX`) until they take `SETUP_TOTAL_S`; as many follow it.
/// `setup_s` is the median of both groups.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_TOTAL_S: f64 = 1.5;

/// The per-layer metrics every traced run reports (the JSON line carries
/// exactly these), with their units. A layer a workload bypasses reports
/// 0 from 0 samples. A workload's own layer metrics that are not listed
/// here (the `release.*` stage times) go to the table and the record.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p90_ms", "ms"),
    ("gen.backlog_end", "count"),
    ("gen.ack_p99_ms", "ms"),
    ("core.perturb_us", "us"),
    ("core.frame_encode_ns", "ns"),
    ("service.connect_us", "us"),
    ("service.ack_wait_us", "us"),
    ("service.accepted", "count"),
    ("service.refused", "count"),
    ("service.disconnected", "count"),
    ("service.decode_ns", "ns"),
    ("service.validate_ns", "ns"),
    ("service.wal_ns", "ns"),
    ("service.accumulate_ns", "ns"),
    ("service.ack_ns", "ns"),
    ("service.estimate_window_ms", "ms"),
    ("service.disk_bytes_per_report", "bytes"),
    ("router.routed", "count"),
    ("router.failed", "count"),
    ("router.rerouted", "count"),
    ("router.io_errors", "count"),
    ("router.reports_per_uplink_conn", "count"),
    ("router.hop_ms", "ms"),
    ("coord.tick_ms", "ms"),
    ("coord.estimate_ms", "ms"),
    ("coord.snapshot_bytes", "bytes"),
    ("setup.scenario_s", "s"),
    ("setup.mechanism_s", "s"),
    ("setup.traffic_s", "s"),
    ("setup.start_s", "s"),
    ("self.core_ms", "ms"),
    ("self.aggregate_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.cluster_ms", "ms"),
    ("self.gen_ms", "ms"),
    ("trace.spans", "count"),
    ("overhead.throughput_rps", "1/s"),
    ("overhead.latency_p50_ms", "ms"),
    ("overhead.latency_p90_ms", "ms"),
    ("overhead.setup_s", "s"),
];

/// One workload: a set-up that may be repeated, then one measurement
/// that consumes what the set-up built.
trait Workload {
    type Prepared;
    fn setup(seed: u64, traced: bool, seconds: f64) -> Self::Prepared;
    /// Timed parts of the set-up, as `setup.*` per-layer metrics.
    fn setup_parts(p: &Self::Prepared) -> Vec<(&'static str, f64)>;
    fn measure(p: Self::Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome;
}

struct Uploads;
struct Routed;
struct Release;

impl Workload for Uploads {
    type Prepared = uploads::Prepared;
    fn setup(seed: u64, traced: bool, seconds: f64) -> Self::Prepared {
        uploads::setup(seed, traced, seconds)
    }
    fn setup_parts(p: &Self::Prepared) -> Vec<(&'static str, f64)> {
        uploads::setup_parts(p)
    }
    fn measure(p: Self::Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome {
        uploads::measure(p, tracer, seconds, seed)
    }
}

impl Workload for Routed {
    type Prepared = routed::Prepared;
    fn setup(seed: u64, traced: bool, seconds: f64) -> Self::Prepared {
        routed::setup(seed, traced, seconds)
    }
    fn setup_parts(p: &Self::Prepared) -> Vec<(&'static str, f64)> {
        routed::setup_parts(p)
    }
    fn measure(p: Self::Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome {
        routed::measure(p, tracer, seconds, seed)
    }
}

impl Workload for Release {
    type Prepared = release::Prepared;
    fn setup(seed: u64, _traced: bool, _seconds: f64) -> Self::Prepared {
        release::setup(seed)
    }
    fn setup_parts(p: &Self::Prepared) -> Vec<(&'static str, f64)> {
        release::setup_parts(p)
    }
    fn measure(p: Self::Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome {
        release::measure(&p, tracer, seconds, seed)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A result set: the untraced measurement, and with `--trace 1` the
/// traced one beside it.
struct Run {
    setup: Samples,
    untraced: Outcome,
    traced: Option<Traced>,
}

/// The traced measurement, its set-up time and parts, and its spans.
struct Traced {
    outcome: Outcome,
    setup_s: f64,
    parts: Vec<(&'static str, f64)>,
    tracer: Tracer,
}

fn run<W: Workload>(a: &Args) -> Run {
    // A traced run splits its time between an untraced and a traced
    // measurement of equal length; their difference is the overhead.
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let mut setup = Samples::default();
    let mut prepared = None;
    while setup.len() < SETUP_MIN || (setup.sum() < SETUP_TOTAL_S && setup.len() < SETUP_MAX) {
        // The previous set-up is torn down before the next is timed.
        drop(prepared.take());
        let t0 = Instant::now();
        let p = W::setup(a.seed, false, seconds);
        setup.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let before = setup.len();
    let untraced = W::measure(prepared, &Tracer::new(false), seconds, a.seed);
    // As many set-ups again after the measurement, timed and dropped, so
    // the median spans the run rather than the moment before it.
    for _ in 0..before {
        let t0 = Instant::now();
        let p = W::setup(a.seed, false, seconds);
        setup.push(t0.elapsed().as_secs_f64());
        drop(p);
    }
    let traced = a.trace.then(|| {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let p = W::setup(a.seed, true, seconds);
        let setup_s = t0.elapsed().as_secs_f64();
        let parts = W::setup_parts(&p);
        let outcome = W::measure(p, &tracer, seconds, a.seed);
        Traced {
            outcome,
            setup_s,
            parts,
            tracer,
        }
    });
    Run {
        setup,
        untraced,
        traced,
    }
}

/// The repository root: this package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The commit under test: `git rev-parse HEAD` in a git checkout, else a
/// CRC over the sources (`tree-xxxxxxxx`), which is stable for a commit.
fn commit_id(root: &Path) -> String {
    if root.join(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "perfbench/src", "Cargo.toml", "Cargo.lock"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut crc = 0u32;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        crc = trajshare_core::crc32_extend(crc, rel.as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            crc = trajshare_core::crc32_extend(crc, &bytes);
        }
    }
    format!("tree-{crc:08x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                collect_files(&p, out);
            }
        }
    }
}

/// `traced − untraced` for every metric present in both.
fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    untraced
        .iter()
        .filter_map(|u| {
            traced.iter().find(|t| t.name == u.name).map(|t| Metric {
                name: u.name,
                unit: u.unit,
                value: t.value - u.value,
                samples: t.samples.min(u.samples),
            })
        })
        .collect()
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let r = match a.workload.as_str() {
        "uploads" => run::<Uploads>(&a),
        "routed" => run::<Routed>(&a),
        "release" => run::<Release>(&a),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (uploads, routed, release)");
            std::process::exit(2);
        }
    };

    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit_id(&root);
    let u = &r.untraced;
    let setup_metric = Metric::new("setup_s", "s", r.setup.median(), r.setup.len());

    let mut e2e = u.e2e.clone();
    e2e.push(setup_metric.clone());
    let mut common = u.common.clone();
    common.push(setup_metric.clone());

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} crc={} counters={} commit={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc,
        trajshare_core::crc::kernel_name(),
        trajshare_core::kernels::kernel_name(),
        commit
    );
    for g in &u.gates {
        println!(
            "gate {:<34} {} ({})",
            g.name,
            if g.ok { "ok" } else { "FAILED" },
            g.detail
        );
    }
    for rate in &u.rates {
        println!(
            "open loop {:<10} target {:.1} reports/s, achieved {:.1} reports/s",
            rate.phase, rate.target_rps, rate.achieved_rps
        );
    }
    print_table("end-to-end (untraced):", &e2e);
    print_table("common end-to-end (untraced):", &common);

    let mut correct = u.correct();
    let mut layer: Vec<Metric> = Vec::new();
    let mut over: Vec<Metric> = Vec::new();
    let mut own: Vec<Metric> = Vec::new();
    if let Some(Traced {
        outcome: t,
        setup_s,
        parts,
        tracer,
    }) = &r.traced
    {
        correct &= t.correct();
        for g in t.gates.iter().filter(|g| !g.ok) {
            println!(
                "gate {:<34} FAILED on the traced run ({})",
                g.name, g.detail
            );
        }
        let traced_setup = Metric::new("setup_s", "s", *setup_s, 1);
        let mut t_e2e = t.e2e.clone();
        t_e2e.push(traced_setup.clone());
        let mut t_common = t.common.clone();
        t_common.push(traced_setup);
        over = overhead(&e2e, &t_e2e);
        let self_ms = tracer.self_ms();
        for &(name, unit) in PER_LAYER {
            let found = t.layer_value(name).cloned().or_else(|| {
                if let Some(l) = name
                    .strip_prefix("self.")
                    .and_then(|n| n.strip_suffix("_ms"))
                {
                    return self_ms
                        .get(l)
                        .map(|&v| Metric::new(name, unit, v, tracer.len()));
                }
                if let Some(&(_, v)) = parts.iter().find(|(n, _)| *n == name) {
                    return Some(Metric::new(name, unit, v, 1));
                }
                if let Some(base) = name.strip_prefix("overhead.") {
                    return overhead(&common, &t_common)
                        .into_iter()
                        .find(|m| m.name == base)
                        .map(|m| Metric { name, ..m });
                }
                (name == "trace.spans").then(|| Metric::new(name, unit, tracer.len() as f64, 1))
            });
            layer.push(found.unwrap_or(Metric::new(name, unit, 0.0, 0)));
        }
        own = t
            .layer
            .iter()
            .filter(|m| PER_LAYER.iter().all(|&(n, _)| n != m.name))
            .cloned()
            .collect();
        print_table("per-layer (traced):", &layer);
        print_table("per-layer, this workload's own (traced):", &own);
        print_table("tracing overhead, traced − untraced:", &over);
    }

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-s{}-t{}", a.workload, a.seed, u8::from(a.trace));
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"crc_kernel\": {}, \"counter_kernel\": {}, \"commit\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"gates\": {{{}}}, \"open_loop\": {{{}}}, \
         \"setup_samples_s\": [{}], \"e2e\": {}, \"common\": {}, \"per_layer\": {}, \"overhead\": {}}}\n",
        str_json(&a.workload),
        a.seed,
        num(a.seconds),
        a.trace,
        nproc,
        str_json(trajshare_core::crc::kernel_name()),
        str_json(trajshare_core::kernels::kernel_name()),
        str_json(&commit),
        correct,
        u.attempted,
        u.failed,
        u.gates
            .iter()
            .map(|g| format!("{}: {}", str_json(g.name), g.ok))
            .collect::<Vec<_>>()
            .join(", "),
        u.rates
            .iter()
            .map(|r| format!(
                "{}: {{\"target_rps\": {}, \"achieved_rps\": {}}}",
                str_json(r.phase),
                num(r.target_rps),
                num(r.achieved_rps)
            ))
            .collect::<Vec<_>>()
            .join(", "),
        r.setup.values().iter().map(|&v| num(v)).collect::<Vec<_>>()
            .join(", "),
        metrics_json(&e2e, true),
        metrics_json(&common, true),
        metrics_json(&[layer.as_slice(), &own].concat(), true),
        metrics_json(&over, true),
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(out_dir.join(format!("{stem}.json")), record));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    if let Some(Traced { tracer, .. }) = &r.traced {
        if let Err(e) = tracer.write(&out_dir.join(format!("{stem}.spans.tsv"))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }

    let metrics = if a.trace { &layer } else { &common };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        u.attempted,
        u.failed,
        metrics_json(metrics, false)
    );
    if !correct {
        std::process::exit(1);
    }
}
