//! `uploads`: independent devices in an open loop against one streaming
//! `IngestServer` with deployment defaults. Each upload perturbs one
//! trajectory, frames the report as a single-report frame, connects,
//! sends, half-closes and reads its ack. Beside the writes the benchmark
//! estimates the live window model at a fixed cadence; the run ends with
//! a crash and timed restarts on the same data directory.

use crate::common::{dir_bytes, gen_threads, sleep_until, stage_metrics, work_dir, ConnCounts};
use crate::report::{Gate, Metric, Outcome, Rate};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use trajshare_aggregate::{user_seed, Report, WindowConfig};
use trajshare_service::{
    encode_wire, IngestServer, ServerConfig, ServerHandle, StreamServerConfig,
};

/// Trajectories the devices draw from (before validity filtering).
const POOL: usize = 2_000;
/// Open-loop offered rate, uploads (= reports) per second: well below the
/// ~0.85k/s two generator threads saturate at.
const OPEN_RATE: f64 = 300.0;
/// Share of `--seconds` given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.55;
/// Cadence of the `estimate_window_model` reads beside the writes. A warm
/// read takes 15–35 ms of both cores; at one read a second the uploads it
/// delays stay well under a tenth even on a machine twice as slow, so
/// `ack_p90_ms` measures the ack path, and the delays show in
/// `gen.ack_p99_ms` and `service.estimate_window_ms`.
const ESTIMATE_EVERY: Duration = Duration::from_secs(1);
/// When the first read runs. The first read that finds data is cold: a
/// full IBU taking about a second of both cores, once per server
/// lifetime. It is lazy set-up, so `ack_p50_ms` and `ack_p90_ms` time
/// only the open-loop requests due after it returned; the later, warm
/// reads are what `service.estimate_window_ms` reports.
const FIRST_READ: Duration = Duration::from_millis(250);
/// Crash + restart cycles; `recovery_ms` is their median.
const RECOVERIES: usize = 5;

pub struct Prepared {
    world: World,
    config: ServerConfig,
    server: Option<ServerHandle>,
    dir: PathBuf,
    start_s: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.crash();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Report `t` is milliseconds since the open loop began; the window
/// length keeps a whole run inside the 16-window ring.
fn window_for(seconds: f64) -> WindowConfig {
    WindowConfig {
        window_len: ((seconds * 1000.0 / 10.0).ceil() as u64).max(250),
        num_windows: 16,
    }
}

pub fn setup(seed: u64, traced: bool, seconds: f64) -> Prepared {
    let window = window_for(seconds);
    let world = World::build(seed, POOL);
    let dir = work_dir("uploads");
    let mut config = ServerConfig::new(&dir, world.tiles.clone());
    config.stream = Some(StreamServerConfig::new(window, Duration::from_secs(1)));
    config.profile = traced;
    let t0 = Instant::now();
    let server = IngestServer::start(config.clone()).expect("start the ingest server");
    let start_s = t0.elapsed().as_secs_f64();
    Prepared {
        world,
        config,
        server: Some(server),
        dir,
        start_s,
    }
}

pub fn setup_parts(p: &Prepared) -> Vec<(&'static str, f64)> {
    vec![
        ("setup.scenario_s", p.world.scenario_s),
        ("setup.mechanism_s", p.world.mechanism_s),
        ("setup.start_s", p.start_s),
    ]
}

/// Client-side timings of one upload.
#[derive(Default, Clone, Copy)]
struct Steps {
    perturb: f64,
    encode: f64,
    connect: f64,
    ack_wait: f64,
}

/// One device's upload: perturb, frame, connect, send, half-close, ack.
/// Returns the ack (1 when the report was made durable).
fn upload(
    w: &World,
    addr: SocketAddr,
    seed: u64,
    i: u64,
    t: u64,
    tracer: &Tracer,
) -> std::io::Result<(u64, Steps)> {
    let root = tracer.open();
    let t0 = Instant::now();
    let traj = &w.set.all()[i as usize % w.set.len()];
    let mut rng = StdRng::seed_from_u64(user_seed(seed, i));
    let mut report = Report::from_perturbed(&w.mech.perturb_raw(traj, &mut rng));
    report.t = t;
    let t1 = Instant::now();
    let wire = encode_wire(std::slice::from_ref(&report), 1);
    let t2 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let t3 = Instant::now();
    stream.write_all(&wire)?;
    stream.shutdown(Shutdown::Write)?;
    let t4 = Instant::now();
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack)?;
    let t5 = Instant::now();
    tracer.span("core.perturb", root, i, t0, t1);
    tracer.span("core.frame_encode", root, i, t1, t2);
    tracer.span("service.connect", root, i, t2, t3);
    tracer.span("service.send", root, i, t3, t4);
    tracer.span("service.ack_wait", root, i, t4, t5);
    tracer.close(root, "gen.upload", 0, i, t0, t5);
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        u64::from_le_bytes(ack),
        Steps {
            perturb: s(t0, t1),
            encode: s(t1, t2),
            connect: s(t2, t3),
            ack_wait: s(t4, t5),
        },
    ))
}

/// What one generator thread saw.
#[derive(Default)]
struct Tally {
    generated: u64,
    acked: u64,
    /// Acked reports per window id.
    per_window: BTreeMap<u64, u64>,
    latency_ms: Samples,
    late_ms: Samples,
    /// Requests due before the phase ended but started after it.
    backlog: u64,
    last_done: Option<Instant>,
    steps: Vec<Steps>,
}

impl Tally {
    fn record(&mut self, window: u64, res: std::io::Result<(u64, Steps)>) {
        self.generated += 1;
        if let Ok((ack, steps)) = res {
            self.acked += ack;
            *self.per_window.entry(window).or_default() += ack;
            self.steps.push(steps);
            self.last_done = Some(Instant::now());
        }
    }

    fn merge(&mut self, o: Tally) {
        self.generated += o.generated;
        self.acked += o.acked;
        for (w, n) in o.per_window {
            *self.per_window.entry(w).or_default() += n;
        }
        self.latency_ms.extend(&o.latency_ms);
        self.late_ms.extend(&o.late_ms);
        self.backlog += o.backlog;
        self.last_done = self.last_done.max(o.last_done);
        self.steps.extend(o.steps);
    }
}

pub fn measure(mut p: Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome {
    let window = window_for(seconds);
    let server = p.server.take().expect("a running server");
    let w = &p.world;
    let addr = server.addr();
    let threads = gen_threads() as u64;
    let open_s = seconds * OPEN_SHARE;
    let closed_s = seconds - open_s;
    let open_n = (open_s * OPEN_RATE).round() as u64;
    let before = ConnCounts::of(server.stats());

    let epoch = Instant::now();
    let t_of = |at: Instant| at.saturating_duration_since(epoch).as_millis() as u64;
    let open_end = epoch + Duration::from_secs_f64(open_s);
    let closed_end = open_end + Duration::from_secs_f64(closed_s);
    let stop = AtomicBool::new(false);
    let next_user = AtomicU64::new(open_n);
    let mut estimate_ms = Samples::default();
    let mut open = Tally::default();
    let mut closed = Tally::default();
    let mut closed_start = open_end;
    // When the first estimate with data returned: open-loop requests due
    // from then on are timed.
    let warm: &OnceLock<Instant> = &OnceLock::new();

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut ms = Samples::default();
            let mut next = epoch + FIRST_READ;
            while !stop.load(Ordering::SeqCst) {
                sleep_until(next);
                next += ESTIMATE_EVERY;
                let t0 = Instant::now();
                let model = server.estimate_window_model(w.mech.graph());
                let t1 = Instant::now();
                if model.is_some() {
                    tracer.span("service.estimate_window", 0, 0, t0, t1);
                    if warm.get().is_none() {
                        let _ = warm.set(t1);
                    } else {
                        ms.push((t1 - t0).as_secs_f64() * 1e3);
                    }
                }
            }
            ms
        });

        // Open loop: request i is due at epoch + i / OPEN_RATE whatever
        // happened to earlier requests; thread k owns i ≡ k (mod threads).
        let open_tallies: Vec<Tally> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for i in (k..open_n).step_by(threads as usize) {
                        let due = epoch + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                        sleep_until(due);
                        let started = Instant::now();
                        if started > open_end {
                            tally.backlog += 1;
                        }
                        tally.late_ms.push((started - due).as_secs_f64() * 1e3);
                        let t = t_of(due);
                        let res = upload(w, addr, seed, i, t, tracer);
                        if res.is_ok() && warm.get().is_some_and(|&at| due >= at) {
                            tally.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        tally.record(window.window_of(t), res);
                    }
                    tally
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("open-loop generator panicked"))
            .collect();
        for t in open_tallies {
            open.merge(t);
        }

        // Closed loop: each thread uploads back to back until the deadline.
        closed_start = Instant::now().max(open_end);
        let closed_tallies: Vec<Tally> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut tally = Tally::default();
                    while Instant::now() < closed_end {
                        let i = next_user.fetch_add(1, Ordering::Relaxed);
                        let t = t_of(Instant::now());
                        let res = upload(w, addr, seed, i, t, tracer);
                        tally.record(window.window_of(t), res);
                    }
                    tally
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("closed-loop generator panicked"))
            .collect();
        for t in closed_tallies {
            closed.merge(t);
        }
        stop.store(true, Ordering::SeqCst);
        estimate_ms = reader.join().expect("estimate reader panicked");
    });

    let conns = ConnCounts::of(server.stats()).since(before);
    let profile = server.ingest_profile();
    let generated = open.generated + closed.generated;
    let acked = open.acked + closed.acked;
    let mut sent_windows = open.per_window.clone();
    for (&wid, &n) in &closed.per_window {
        *sent_windows.entry(wid).or_default() += n;
    }
    let ring: BTreeMap<u64, u64> = server
        .windowed_counts()
        .expect("streaming server")
        .windows()
        .into_iter()
        .map(|(id, c)| (id, c.num_reports))
        .collect();
    let disk_bytes = dir_bytes(&p.dir);

    // Recovery: crash, then restart on the same directory and verify.
    server.crash();
    let mut recovery_ms = Samples::default();
    let mut recovered = Vec::new();
    for _ in 0..RECOVERIES {
        let t0 = Instant::now();
        let h = IngestServer::start(p.config.clone()).expect("restart the ingest server");
        let n = h.counts().num_reports;
        let t1 = Instant::now();
        tracer.span("service.recovery", 0, 0, t0, t1);
        recovery_ms.push((t1 - t0).as_secs_f64() * 1e3);
        recovered.push(n);
        h.crash();
    }

    let closed_elapsed = closed
        .last_done
        .map_or(closed_s, |t| (t - closed_start).as_secs_f64());
    let open_elapsed = open.last_done.map_or(open_s, |t| (t - epoch).as_secs_f64());
    let throughput = closed.acked as f64 / closed_elapsed;
    let unacked = generated - acked;
    let failed = conns.refused + unacked;

    let mut out = Outcome {
        attempted: generated,
        failed,
        ..Default::default()
    };
    out.rates = vec![Rate {
        phase: "uploads",
        target_rps: OPEN_RATE,
        achieved_rps: open.acked as f64 / open_elapsed,
    }];
    out.gates = vec![
        Gate::eq("uploads.acked_eq_generated", acked, generated),
        Gate::eq("uploads.windowed_counts_eq_sent", ring, sent_windows),
        Gate::eq(
            "uploads.recovered_eq_acked",
            recovered,
            vec![acked; RECOVERIES],
        ),
        // A read that never returns a model leaves no request timed.
        Gate::eq("uploads.open_loop_timed", open.latency_ms.len() > 0, true),
    ];
    let ack_p50 = Metric::pct("ack_p50_ms", "ms", &open.latency_ms, 50.0);
    let ack_p90 = Metric::pct("ack_p90_ms", "ms", &open.latency_ms, 90.0);
    let tput = Metric::new("throughput_rps", "1/s", throughput, closed.acked as usize);
    out.e2e = vec![
        tput.clone(),
        ack_p50.clone(),
        ack_p90.clone(),
        Metric::pct("recovery_ms", "ms", &recovery_ms, 50.0),
        Metric::new(
            "failed_frac",
            "ratio",
            failed as f64 / generated.max(1) as f64,
            generated as usize,
        ),
    ];
    out.common = vec![
        tput,
        Metric {
            name: "latency_p50_ms",
            ..ack_p50
        },
        Metric {
            name: "latency_p90_ms",
            ..ack_p90
        },
    ];
    if tracer.on() {
        let steps: Vec<Steps> = open.steps.iter().chain(&closed.steps).copied().collect();
        let step = |f: fn(&Steps) -> f64, k: f64| {
            let mut s = Samples::default();
            for st in &steps {
                s.push(f(st) * k);
            }
            s
        };
        out.layer = vec![
            Metric::pct("gen.late_p90_ms", "ms", &open.late_ms, 90.0),
            Metric::new(
                "gen.backlog_end",
                "count",
                open.backlog as f64,
                open_n as usize,
            ),
            Metric::pct("gen.ack_p99_ms", "ms", &open.latency_ms, 99.0),
            Metric::pct("core.perturb_us", "us", &step(|s| s.perturb, 1e6), 50.0),
            Metric::pct("core.frame_encode_ns", "ns", &step(|s| s.encode, 1e9), 50.0),
            Metric::pct("service.connect_us", "us", &step(|s| s.connect, 1e6), 50.0),
            Metric::pct(
                "service.ack_wait_us",
                "us",
                &step(|s| s.ack_wait, 1e6),
                50.0,
            ),
            Metric::new("service.accepted", "count", conns.accepted as f64, 1),
            Metric::new("service.refused", "count", conns.refused as f64, 1),
            Metric::new(
                "service.disconnected",
                "count",
                conns.disconnected as f64,
                1,
            ),
            Metric::pct("service.estimate_window_ms", "ms", &estimate_ms, 50.0),
            Metric::new(
                "service.disk_bytes_per_report",
                "bytes",
                disk_bytes as f64 / acked.max(1) as f64,
                acked as usize,
            ),
        ];
        // The single-report path is not profiled: these stay at 0 reports.
        out.layer.extend(stage_metrics(&Vec::from_iter(profile)));
    }
    out
}
