//! `routed`: edge gateways forward pre-encoded TSR4 batch frames of 256
//! reports over persistent connections to a `Router` in front of two
//! streaming workers, while a `Coordinator` ticks and estimates at a
//! fixed cadence. First an open loop at a fixed rate, then a closed-loop
//! saturation phase.

use crate::common::{dir_bytes, gen_threads, sleep_until, stage_metrics, work_dir, ConnCounts};
use crate::report::{Gate, Metric, Outcome, Rate};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::World;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use trajshare_aggregate::{collect_reports, Report, WindowConfig, WindowedAggregator};
use trajshare_cluster::{
    pull_snapshot, snapshot_fingerprint, CoordConfig, Coordinator, Router, RouterConfig,
    RouterHandle,
};
use trajshare_service::{
    encode_wire, IngestServer, ServerConfig, ServerHandle, StreamServerConfig,
};

/// Trajectories perturbed into the report pool (before filtering).
const POOL: usize = 2_000;
/// Reports per TSR4 frame.
const BATCH: usize = 256;
/// Open-loop spacing between consecutive batches over all connections:
/// 256 reports every 2.5 ms is 102.4k reports/s, well below the router's
/// saturation rate (0.2–0.3M reports/s in the closed loop on 2 vCPUs).
const SPACING: Duration = Duration::from_micros(2_500);
/// Share of `--seconds` given to the open loop; the closed loop gets the
/// rest. A batch delayed by a short disturbance (a coordinator round, a
/// busy core) waits a whole router ack step longer, so `ack_p90_ms`
/// turns on the share of batches delayed; a long open loop keeps that
/// share steady from run to run.
const OPEN_SHARE: f64 = 0.6;
/// Distinct frames the closed loop cycles through.
const CLOSED_FRAMES: usize = 1_024;
/// The closed loop runs as this many bursts, each on fresh connections;
/// `throughput_rps` is the median burst.
const CLOSED_BURSTS: usize = 5;
/// When the coordinator's first round runs. The first round that finds
/// data estimates cold: a full IBU taking about a second of both cores,
/// once per coordinator lifetime. It is lazy set-up, so `ack_p50_ms` and
/// `ack_p90_ms` time only the open-loop batches due after it ended; the
/// later, warm estimates are what `coord.estimate_ms` reports.
const FIRST_ROUND: Duration = Duration::from_millis(250);
/// Coordinator round cadence (tick + estimate). A warm round takes 50–180
/// ms of both cores, the more the slower the machine, and delays the acks
/// in flight. At `routerd`'s 1 s pull interval that nears a tenth of the
/// batches, where `ack_p90_ms` turns bimodal from run to run; at 2 s it
/// stays well under a tenth, and the delays show in `gen.ack_p99_ms`.
const COORD_EVERY: Duration = Duration::from_secs(2);
/// Longest wait for the open loop's windows to publish before the closed
/// loop starts: one round interval and a round.
const PUBLISH_WAIT: Duration = Duration::from_secs(3);
/// Window length in `t` units (milliseconds of schedule).
const WINDOW_LEN: u64 = 500;
/// Share of the open-loop schedule replayed straight to one worker on
/// traced runs, for `router.hop_ms`.
const REPLAY_SHARE: f64 = 0.4;

/// One pre-encoded batch: `BATCH` reports from length group `group`
/// starting at `offset`, all stamped `t`.
struct Batch {
    frame: Vec<u8>,
    group: usize,
    offset: usize,
    t: u64,
}

pub struct Prepared {
    world: World,
    /// The report pool, grouped by trajectory length so every batch is
    /// one TSR4 frame (a frame breaks where ε′/|τ| changes).
    groups: Vec<Vec<Report>>,
    open: Vec<Batch>,
    closed: Vec<Batch>,
    window: WindowConfig,
    workers: Vec<(ServerHandle, PathBuf)>,
    router: Option<RouterHandle>,
    perturb_us: f64,
    encode_ns: f64,
    traffic_s: f64,
    start_s: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
        for (w, dir) in self.workers.drain(..) {
            w.crash();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn batch_reports(groups: &[Vec<Report>], group: usize, offset: usize, t: u64) -> Vec<Report> {
    let g = &groups[group];
    (0..BATCH)
        .map(|j| {
            let mut r = g[(offset + j) % g.len()].clone();
            r.t = t;
            r
        })
        .collect()
}

fn encode(groups: &[Vec<Report>], group: usize, offset: usize, t: u64) -> Batch {
    let frame = encode_wire(&batch_reports(groups, group, offset, t), BATCH);
    let len = u32::from_le_bytes(frame[..4].try_into().expect("length prefix")) as usize;
    assert_eq!(
        len + 4,
        frame.len(),
        "a batch must encode as one TSR4 frame"
    );
    Batch {
        frame,
        group,
        offset,
        t,
    }
}

fn open_batches(seconds: f64) -> usize {
    (seconds * OPEN_SHARE / SPACING.as_secs_f64()).round() as usize
}

fn due_ms(b: usize) -> u64 {
    (SPACING * b as u32).as_millis() as u64
}

pub fn setup(seed: u64, traced: bool, seconds: f64) -> Prepared {
    let world = World::build(seed, POOL);

    let t0 = Instant::now();
    let pool = collect_reports(&world.mech, &world.set, seed);
    let perturb_us = t0.elapsed().as_secs_f64() * 1e6 / pool.len() as f64;
    let mut by_len: BTreeMap<u16, Vec<Report>> = BTreeMap::new();
    for r in pool {
        by_len.entry(r.len).or_default().push(r);
    }
    let groups: Vec<Vec<Report>> = by_len.into_values().collect();
    let t1 = Instant::now();
    let open_n = open_batches(seconds);
    let open: Vec<Batch> = (0..open_n)
        .map(|b| encode(&groups, b % groups.len(), b * BATCH, due_ms(b)))
        .collect();
    // Closed-loop frames start at the window after the open loop's last.
    let closed_t0 = (due_ms(open_n) / WINDOW_LEN + 1) * WINDOW_LEN;
    let closed_span_ms = (seconds * (1.0 - OPEN_SHARE) * 1e3).max(1.0);
    let closed: Vec<Batch> = (0..CLOSED_FRAMES)
        .map(|b| {
            let t = closed_t0 + (b as f64 * closed_span_ms / CLOSED_FRAMES as f64) as u64;
            encode(&groups, b % groups.len(), (open_n + b) * BATCH, t)
        })
        .collect();
    let encoded = (open.len() + closed.len()) * BATCH;
    let encode_ns = t1.elapsed().as_secs_f64() * 1e9 / encoded as f64;
    let traffic_s = t0.elapsed().as_secs_f64();

    // Every window of the run stays live in the ring, so the merged ring
    // can be compared with a reference ingest of everything sent.
    let span_windows = (closed_t0 + closed_span_ms as u64) / WINDOW_LEN + 1;
    let window = WindowConfig {
        window_len: WINDOW_LEN,
        num_windows: span_windows as usize + 4,
    };
    let t2 = Instant::now();
    let workers: Vec<(ServerHandle, PathBuf)> = (0..2)
        .map(|_| {
            let dir = work_dir("routed");
            let mut cfg = ServerConfig::new(&dir, world.tiles.clone());
            cfg.stream = Some(StreamServerConfig::new(window, Duration::from_secs(1)));
            cfg.export_addr = Some(SocketAddr::from(([127, 0, 0, 1], 0)));
            cfg.profile = traced;
            (IngestServer::start(cfg).expect("start a worker"), dir)
        })
        .collect();
    let router = Router::start(RouterConfig::new(
        SocketAddr::from(([127, 0, 0, 1], 0)),
        workers.iter().map(|(w, _)| w.addr()).collect(),
    ))
    .expect("start the router");
    let start_s = t2.elapsed().as_secs_f64();
    Prepared {
        world,
        groups,
        open,
        closed,
        window,
        workers,
        router: Some(router),
        perturb_us,
        encode_ns,
        traffic_s,
        start_s,
    }
}

pub fn setup_parts(p: &Prepared) -> Vec<(&'static str, f64)> {
    vec![
        ("setup.scenario_s", p.world.scenario_s),
        ("setup.mechanism_s", p.world.mechanism_s),
        ("setup.traffic_s", p.traffic_s),
        ("setup.start_s", p.start_s),
    ]
}

/// A persistent, non-blocking gateway connection that reassembles the
/// peer's 8-byte cumulative acks as they arrive.
struct Conn {
    stream: TcpStream,
    partial: [u8; 8],
    have: usize,
    last_ack: u64,
    connect_us: f64,
}

/// How often a waiting generator looks for acks. Socket read timeouts
/// are rounded to scheduler ticks (milliseconds), sleeps are not.
const POLL: Duration = Duration::from_micros(200);

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr)?;
        let connect_us = t0.elapsed().as_secs_f64() * 1e6;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            partial: [0; 8],
            have: 0,
            last_ack: 0,
            connect_us,
        })
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.partial[self.have] = b;
            self.have += 1;
            if self.have == 8 {
                self.have = 0;
                self.last_ack = u64::from_le_bytes(self.partial);
            }
        }
    }

    /// Reads whatever acks have arrived; true when the ack advanced.
    fn poll(&mut self) -> std::io::Result<bool> {
        let before = self.last_ack;
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.last_ack != before)
    }

    /// Writes one frame, reading acks whenever the socket is full so the
    /// peer never blocks on its ack writes.
    fn send(&mut self, mut frame: &[u8]) -> std::io::Result<()> {
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => frame = &frame[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.poll()?;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Half-closes and reads acks until the peer closes; returns the
    /// final cumulative ack.
    fn finish(&mut self) -> std::io::Result<u64> {
        self.stream.shutdown(Shutdown::Write)?;
        self.stream.set_nonblocking(false)?;
        self.stream
            .set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.last_ack)
    }
}

/// One open-loop connection's results.
#[derive(Default)]
struct OpenConn {
    sent_reports: u64,
    final_ack: u64,
    latency_ms: Samples,
    late_ms: Samples,
    backlog: u64,
    connect_us: f64,
    ack_wait_us: f64,
    last_ack: Option<Instant>,
}

/// A batch sent and not yet acked.
struct InFlight {
    /// Reports sent on the connection up to and including this batch.
    cum: u64,
    due: Instant,
    sent: Instant,
    span: u32,
    batch: u64,
}

/// Sends batches `b ≡ k (mod step)` of `batches` to `addr`, each at its
/// due time `epoch + b·SPACING`, watching for acks while it waits. A
/// batch's latency runs from its due time to the first cumulative ack
/// covering it; only batches due from `warm` on are timed.
fn open_conn(
    addr: SocketAddr,
    batches: &[Batch],
    k: usize,
    step: usize,
    epoch: Instant,
    warm: &OnceLock<Instant>,
    tracer: &Tracer,
) -> std::io::Result<OpenConn> {
    let end = epoch + SPACING * batches.len() as u32;
    let mut conn = Conn::connect(addr)?;
    let mut c = OpenConn {
        connect_us: conn.connect_us,
        ..Default::default()
    };
    let mut pending: std::collections::VecDeque<InFlight> = Default::default();
    let settle =
        |ack: u64, pending: &mut std::collections::VecDeque<InFlight>, c: &mut OpenConn| {
            let now = Instant::now();
            while pending.front().is_some_and(|f| f.cum <= ack) {
                let f = pending.pop_front().expect("front exists");
                if warm.get().is_some_and(|&at| f.due >= at) {
                    c.latency_ms.push((now - f.due).as_secs_f64() * 1e3);
                }
                tracer.span("cluster.ack_wait", f.span, f.batch, f.sent, now);
                tracer.close(f.span, "gen.batch", 0, f.batch, f.due, now);
                c.last_ack = Some(now);
            }
        };
    for b in (k..batches.len()).step_by(step) {
        let due = epoch + SPACING * b as u32;
        loop {
            if conn.poll()? {
                settle(conn.last_ack, &mut pending, &mut c);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        let started = Instant::now();
        if started > end {
            c.backlog += 1;
        }
        c.late_ms.push((started - due).as_secs_f64() * 1e3);
        let span = tracer.open();
        conn.send(&batches[b].frame)?;
        let sent = Instant::now();
        tracer.span("cluster.send", span, b as u64, started, sent);
        c.sent_reports += BATCH as u64;
        pending.push_back(InFlight {
            cum: c.sent_reports,
            due,
            sent,
            span,
            batch: b as u64,
        });
    }
    let closed_at = Instant::now();
    c.final_ack = conn.finish()?;
    c.ack_wait_us = closed_at.elapsed().as_secs_f64() * 1e6;
    settle(c.final_ack, &mut pending, &mut c);
    Ok(c)
}

/// One closed-loop connection: frames back to back until `end`, then
/// half-close and wait for the final ack. Returns (frames sent, final
/// ack, time of the final ack).
fn closed_conn(
    addr: SocketAddr,
    batches: &[Batch],
    k: usize,
    step: usize,
    end: Instant,
    tracer: &Tracer,
) -> std::io::Result<(Vec<usize>, u64, Instant)> {
    let mut conn = Conn::connect(addr)?;
    let mut sent = Vec::new();
    let mut i = k;
    while Instant::now() < end {
        let f = i % batches.len();
        let t0 = Instant::now();
        conn.send(&batches[f].frame)?;
        conn.poll()?;
        tracer.span("cluster.send", 0, f as u64, t0, Instant::now());
        sent.push(f);
        i += step;
    }
    let t0 = Instant::now();
    let ack = conn.finish()?;
    let done = Instant::now();
    tracer.span("cluster.ack_wait", 0, k as u64, t0, done);
    Ok((sent, ack, done))
}

/// The open loop over `threads` connections to `addr`, batch `b` due at
/// `epoch + b·SPACING`.
fn open_loop(
    addr: SocketAddr,
    batches: &[Batch],
    threads: usize,
    epoch: Instant,
    warm: &OnceLock<Instant>,
    tracer: &Tracer,
) -> Vec<std::io::Result<OpenConn>> {
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|k| s.spawn(move || open_conn(addr, batches, k, threads, epoch, warm, tracer)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("open-loop generator panicked"))
            .collect()
    })
}

/// Windows of the open loop: sent count and the due time of the last
/// report in each (as an offset from the schedule start).
fn open_windows(batches: &[Batch], window: WindowConfig) -> BTreeMap<u64, (u64, Duration)> {
    let mut out: BTreeMap<u64, (u64, Duration)> = BTreeMap::new();
    for (b, batch) in batches.iter().enumerate() {
        let e = out.entry(window.window_of(batch.t)).or_default();
        e.0 += BATCH as u64;
        e.1 = SPACING * b as u32;
    }
    out
}

pub fn measure(mut p: Prepared, tracer: &Tracer, seconds: f64, _seed: u64) -> Outcome {
    let threads = gen_threads();
    let router = p.router.take().expect("a running router");
    let addr = router.addr();
    let w = &p.world;
    let before: Vec<ConnCounts> = p
        .workers
        .iter()
        .map(|(h, _)| ConnCounts::of(h.stats()))
        .collect();
    let rstats = |r: &RouterHandle| {
        let s = r.stats();
        [
            s.cluster_routed.load(Ordering::SeqCst),
            s.routed_failed.load(Ordering::SeqCst),
            s.rerouted_batches.load(Ordering::SeqCst),
            s.io_errors.load(Ordering::SeqCst),
            s.refused.load(Ordering::SeqCst),
        ]
    };
    let r_before = rstats(&router);
    let exports: Vec<SocketAddr> = p
        .workers
        .iter()
        .map(|(h, _)| h.export_addr().expect("export listener"))
        .collect();
    let mut ccfg = CoordConfig::new(exports.clone(), w.tiles.clone());
    ccfg.window = Some(p.window);
    let coord = Mutex::new(Coordinator::new(ccfg));
    let windows = open_windows(&p.open, p.window);
    let closed_s = seconds * (1.0 - OPEN_SHARE);

    let stop = AtomicBool::new(false);
    // The open loop's schedule starts shortly after the coordinator.
    let epoch = Instant::now() + Duration::from_millis(20);
    let mut open_res = Vec::new();
    let mut closed_res = Vec::new();
    let published = AtomicBool::new(false);
    // When the first round with data ended: open-loop batches due from
    // then on are timed.
    let warm: &OnceLock<Instant> = &OnceLock::new();
    let mut rounds = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );

    std::thread::scope(|s| {
        let coord_thread = s.spawn(|| {
            let (mut tick_ms, mut est_ms, mut lag_ms, mut snap_bytes) = (
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
            );
            let mut pending = windows.clone();
            let mut next = epoch + FIRST_ROUND;
            let mut round = 0u64;
            while !stop.load(Ordering::SeqCst) {
                sleep_until(next);
                // A round that overruns the cadence delays the next one.
                next = (next + COORD_EVERY).max(Instant::now());
                let mut c = coord.lock().expect("coordinator lock");
                let id = tracer.open();
                let t0 = Instant::now();
                let view = c.tick();
                let t1 = Instant::now();
                c.estimate(w.mech.graph());
                let t2 = Instant::now();
                tracer.span("cluster.tick", id, round, t0, t1);
                tracer.span("cluster.estimate", id, round, t1, t2);
                tracer.close(id, "gen.coord_round", 0, round, t0, t2);
                tick_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if warm.get().is_some() {
                    est_ms.push((t2 - t1).as_secs_f64() * 1e3);
                } else if view.merged_reports > 0 {
                    let _ = warm.set(t2);
                }
                if let Some(ring) = c.merged_ring() {
                    pending.retain(|&wid, &mut (sent, last_due)| {
                        let have = ring.window_counts(wid).map_or(0, |c| c.num_reports);
                        if have == sent {
                            lag_ms.push(
                                t2.saturating_duration_since(epoch + last_due).as_secs_f64() * 1e3,
                            );
                        }
                        have != sent
                    });
                    published.store(pending.is_empty(), Ordering::SeqCst);
                }
                drop(c);
                if tracer.on() && round.is_multiple_of(2) {
                    let bytes: usize = exports
                        .iter()
                        .filter_map(|&e| pull_snapshot(e, Duration::from_secs(5)).ok())
                        .map(|snap| snap.counts.len() + snap.ring.map_or(0, |r| r.len()))
                        .sum();
                    snap_bytes.push(bytes as f64);
                }
                round += 1;
            }
            (tick_ms, est_ms, lag_ms, snap_bytes)
        });

        open_res = open_loop(addr, &p.open, threads, epoch, warm, tracer);
        // Let the open loop's windows publish before saturating the cores.
        let deadline = Instant::now() + PUBLISH_WAIT;
        while !published.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }

        let closed = &p.closed;
        for _ in 0..CLOSED_BURSTS {
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(closed_s / CLOSED_BURSTS as f64);
            let res: Vec<_> = std::thread::scope(|s2| {
                let hs: Vec<_> = (0..threads)
                    .map(|k| s2.spawn(move || closed_conn(addr, closed, k, threads, end, tracer)))
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("closed-loop generator panicked"))
                    .collect()
            });
            closed_res.push((start, res));
        }
        stop.store(true, Ordering::SeqCst);
        rounds = coord_thread.join().expect("coordinator thread panicked");
    });
    let (tick_ms, est_ms, lag_ms, snap_bytes) = rounds;

    // Results of both phases.
    let open_ok: Vec<&OpenConn> = open_res.iter().filter_map(|r| r.as_ref().ok()).collect();
    let open_sent = (p.open.len() * BATCH) as u64;
    let open_acked: u64 = open_ok.iter().map(|c| c.final_ack).sum();
    let mut latency_ms = Samples::default();
    let mut late_ms = Samples::default();
    let mut backlog = 0;
    for c in &open_ok {
        latency_ms.extend(&c.latency_ms);
        late_ms.extend(&c.late_ms);
        backlog += c.backlog;
    }
    let open_last = open_ok.iter().filter_map(|c| c.last_ack).max();
    let mut closed_sent_frames: Vec<usize> = Vec::new();
    let mut closed_acked = 0u64;
    let mut closed_conn_failed = 0u64;
    let mut burst_rps = Samples::default();
    for (start, res) in &closed_res {
        let (mut acked, mut done) = (0u64, *start);
        for r in res {
            match r {
                Ok((frames, ack, at)) => {
                    closed_sent_frames.extend(frames);
                    acked += ack;
                    done = done.max(*at);
                }
                Err(_) => closed_conn_failed += 1,
            }
        }
        closed_acked += acked;
        burst_rps.push(acked as f64 / (done - *start).as_secs_f64());
    }
    let closed_sent = (closed_sent_frames.len() * BATCH) as u64;
    let sent = open_sent + closed_sent;
    let acked = open_acked + closed_acked;

    // Exactness: the coordinator's merged ring against a single-node
    // reference ingest of the same reports.
    let view = coord.lock().expect("coordinator lock").tick();
    let mut reference = WindowedAggregator::new(w.tiles.clone(), p.window);
    for b in p
        .open
        .iter()
        .chain(closed_sent_frames.iter().map(|&f| &p.closed[f]))
    {
        for r in batch_reports(&p.groups, b.group, b.offset, b.t) {
            reference.ingest(&r);
        }
    }
    let reference_crc = snapshot_fingerprint(reference.merged());

    let r_after = rstats(&router);
    let rd: Vec<u64> = r_after.iter().zip(&r_before).map(|(a, b)| a - b).collect();
    let conns = p
        .workers
        .iter()
        .zip(&before)
        .map(|((h, _), b)| ConnCounts::of(h.stats()).since(*b))
        .fold(ConnCounts::default(), ConnCounts::add);
    let profiles: Vec<_> = p
        .workers
        .iter()
        .filter_map(|(h, _)| h.ingest_profile())
        .collect();
    let disk: u64 = p.workers.iter().map(|(_, d)| dir_bytes(d)).sum();

    // Traced runs replay part of the open-loop schedule straight to one
    // worker: the difference in ack p50 is the router hop.
    let mut direct_ms = Samples::default();
    if tracer.on() {
        let n = ((p.open.len() as f64) * REPLAY_SHARE) as usize;
        let start = Instant::now() + Duration::from_millis(5);
        let res = open_loop(
            p.workers[0].0.addr(),
            &p.open[..n],
            threads,
            start,
            &OnceLock::from(start),
            &Tracer::new(false),
        );
        for c in res.iter().flatten() {
            direct_ms.extend(&c.latency_ms);
        }
    }
    router.shutdown();

    let open_elapsed = open_last.map_or(seconds * OPEN_SHARE, |l| (l - epoch).as_secs_f64());
    let failed = rd[4]
        + closed_conn_failed
        + (open_res.len() - open_ok.len()) as u64
        + (sent - acked.min(sent));

    let mut out = Outcome {
        attempted: sent,
        failed,
        ..Default::default()
    };
    out.rates = vec![Rate {
        phase: "routed",
        target_rps: BATCH as f64 / SPACING.as_secs_f64(),
        achieved_rps: open_acked as f64 / open_elapsed,
    }];
    out.gates = vec![
        Gate::eq("routed.acked_eq_sent", acked, sent),
        Gate::eq("routed.merged_reports_eq_sent", view.merged_reports, sent),
        Gate::eq(
            "routed.ring_crc_eq_reference",
            view.ring_crc32,
            Some(reference_crc),
        ),
        Gate::eq("routed.open_windows_published", lag_ms.len(), windows.len()),
        // A coordinator that never sees data leaves no batch timed.
        Gate::eq("routed.open_loop_timed", latency_ms.len() > 0, true),
    ];
    let ack_p50 = Metric::pct("ack_p50_ms", "ms", &latency_ms, 50.0);
    let ack_p90 = Metric::pct("ack_p90_ms", "ms", &latency_ms, 90.0);
    // Median over the closed-loop bursts; the samples are the reports acked.
    let tput = Metric::new(
        "throughput_rps",
        "1/s",
        burst_rps.median(),
        closed_acked as usize,
    );
    out.e2e = vec![
        tput.clone(),
        ack_p50.clone(),
        ack_p90.clone(),
        Metric::pct("publish_lag_p50_ms", "ms", &lag_ms, 50.0),
        Metric::pct("publish_lag_p90_ms", "ms", &lag_ms, 90.0),
        Metric::new(
            "failed_frac",
            "ratio",
            failed as f64 / sent.max(1) as f64,
            sent as usize,
        ),
    ];
    out.common = vec![
        tput,
        Metric {
            name: "latency_p50_ms",
            ..ack_p50.clone()
        },
        Metric {
            name: "latency_p90_ms",
            ..ack_p90
        },
    ];
    if tracer.on() {
        let mut connect = Samples::default();
        let mut ack_wait = Samples::default();
        for c in &open_ok {
            connect.push(c.connect_us);
            ack_wait.push(c.ack_wait_us);
        }
        out.layer = stage_metrics(&profiles);
        out.layer.extend([
            Metric::pct("gen.late_p90_ms", "ms", &late_ms, 90.0),
            Metric::new("gen.backlog_end", "count", backlog as f64, p.open.len()),
            Metric::pct("gen.ack_p99_ms", "ms", &latency_ms, 99.0),
            Metric::new("core.perturb_us", "us", p.perturb_us, 1),
            Metric::new("core.frame_encode_ns", "ns", p.encode_ns, 1),
            Metric::pct("service.connect_us", "us", &connect, 50.0),
            Metric::pct("service.ack_wait_us", "us", &ack_wait, 50.0),
            Metric::new("service.accepted", "count", conns.accepted as f64, 1),
            Metric::new("service.refused", "count", conns.refused as f64, 1),
            Metric::new(
                "service.disconnected",
                "count",
                conns.disconnected as f64,
                1,
            ),
            Metric::new(
                "service.disk_bytes_per_report",
                "bytes",
                disk as f64 / acked.max(1) as f64,
                acked as usize,
            ),
            Metric::new("router.routed", "count", rd[0] as f64, 1),
            Metric::new("router.failed", "count", rd[1] as f64, 1),
            Metric::new("router.rerouted", "count", rd[2] as f64, 1),
            Metric::new("router.io_errors", "count", rd[3] as f64, 1),
            Metric::new(
                "router.reports_per_uplink_conn",
                "count",
                rd[0] as f64 / conns.accepted.max(1) as f64,
                conns.accepted as usize,
            ),
            Metric::new(
                "router.hop_ms",
                "ms",
                ack_p50.value - direct_ms.median(),
                direct_ms.len().min(latency_ms.len()),
            ),
            Metric::pct("coord.tick_ms", "ms", &tick_ms, 50.0),
            Metric::pct("coord.estimate_ms", "ms", &est_ms, 50.0),
            Metric::pct("coord.snapshot_bytes", "bytes", &snap_bytes, 50.0),
        ]);
    }
    out
}
