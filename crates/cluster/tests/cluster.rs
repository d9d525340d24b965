//! Cluster-tier integration over loopback: router partitioning with
//! worker-confirmed acks, the coordinator's bit-exact merge against a
//! single-node ground truth, stale-snapshot behavior while a worker is
//! down, epoch-bumping re-merge after a worker restart, and batch
//! failover to a live worker. (The full mechanism-driven run lives in
//! the root `tests/cluster_e2e.rs`.)

use std::sync::atomic::Ordering;
use std::time::Duration;
use trajshare_aggregate::{EstimatorBackend, Report, WindowConfig};
use trajshare_cluster::{snapshot_fingerprint, CoordConfig, Coordinator, Router, RouterConfig};
use trajshare_service::{stream_reports, IngestServer, ServerConfig, StreamServerConfig};

const REGIONS: usize = 24;
const WINDOW: WindowConfig = WindowConfig {
    window_len: 10,
    num_windows: 8,
};

/// Toy report `i`: a two-point trajectory whose regions and window both
/// derive from `i`. Timestamps stay inside the ring depth
/// (`i % 70 → windows 0..=6`), so no report is ever dropped as late and
/// the merged ring must account for every single one.
fn toy_report(i: u32) -> Report {
    let a = i % REGIONS as u32;
    let b = (a + 1) % REGIONS as u32;
    Report {
        t: (i % 70) as u64,
        eps_prime: 0.5 + f64::from(i % 5) * 0.25,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a), (1, b)],
        transitions: vec![(a, b)],
    }
}

fn worker_config(tag: &str) -> (ServerConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "trajshare-cluster-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig::new(&dir, vec![0u16; REGIONS]);
    cfg.workers = 2;
    cfg.read_timeout = Duration::from_secs(5);
    cfg.export_addr = Some("127.0.0.1:0".parse().unwrap());
    cfg.stream = Some(StreamServerConfig {
        window: WINDOW,
        publish_every: Duration::from_millis(50),
        server_clock: false,
        max_conn_advance: u64::MAX,
        backend: EstimatorBackend::default(),
        budget: None,
        grants: false,
        graph: None,
    });
    (cfg, dir)
}

fn router_config(workers: Vec<std::net::SocketAddr>) -> RouterConfig {
    let mut cfg = RouterConfig::new("127.0.0.1:0".parse().unwrap(), workers);
    cfg.connect_attempts = 2;
    cfg.reconnect_backoff = Duration::from_millis(10);
    cfg.read_timeout = Duration::from_secs(5);
    cfg
}

fn ring_summary(ring: &trajshare_aggregate::WindowedAggregator) -> Vec<(u64, u64)> {
    ring.windows()
        .into_iter()
        .map(|(id, c)| (id, c.num_reports))
        .collect()
}

#[test]
fn cluster_merge_is_bit_identical_and_survives_worker_restart() {
    let reports: Vec<Report> = (0..4_000).map(toy_report).collect();
    let n = reports.len() as u64;

    let (cfg_a, dir_a) = worker_config("merge-a");
    let (cfg_b, dir_b) = worker_config("merge-b");
    let (cfg_s, dir_s) = worker_config("merge-single");
    let a = IngestServer::start(cfg_a.clone()).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();
    let single = IngestServer::start(cfg_s).unwrap();

    // Same stream through the router (partitioned) and into the single
    // node (unpartitioned ground truth).
    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();
    assert_eq!(stream_reports(router.addr(), &reports, 6).unwrap(), n);
    assert_eq!(stream_reports(single.addr(), &reports, 6).unwrap(), n);

    // The partition is real (both workers own a share) and lossless.
    let (na, nb) = (a.counts().num_reports, b.counts().num_reports);
    assert!(na > 0 && nb > 0, "degenerate partition: {na}/{nb}");
    assert_eq!(na + nb, n);
    assert_eq!(
        router.stats().cluster_routed.load(Ordering::Relaxed),
        n,
        "every report must be worker-acked"
    );

    // Coordinator pull + merge: bit-identical to the single node.
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    let mut coord = Coordinator::new(ccfg);
    let view = coord.tick();
    assert_eq!((view.workers_up, view.workers_total), (2, 2));
    assert_eq!(view.merged_reports, n);

    let single_ring = single.windowed_counts().unwrap();
    assert_eq!(view.watermark, single_ring.newest_window());
    assert_eq!(view.counts_crc32, snapshot_fingerprint(&single.counts()));
    assert_eq!(
        view.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged()),
        "merged ring must fingerprint identically to the single node"
    );
    assert_eq!(
        ring_summary(coord.merged_ring().unwrap()),
        ring_summary(&single_ring)
    );

    // Kill worker A. The coordinator keeps publishing from its cached
    // snapshot — stale is conservative (nothing unshipped existed), so
    // the merged view must not move.
    let export_a = a.export_addr().unwrap();
    a.crash();
    let down = coord.tick();
    assert_eq!((down.workers_up, down.workers_total), (1, 2));
    assert_eq!(down.merged_reports, n);
    assert_eq!(down.ring_crc32, view.ring_crc32);
    let status = coord.worker_status();
    assert!(!status[0].up && status[1].up);

    // Restart A on the same data dir (WAL replay) and the same export
    // port. The re-pulled snapshot replaces the cached one under a
    // bumped epoch, and the merged view is bit-identical again.
    let mut cfg_a2 = cfg_a;
    cfg_a2.export_addr = Some(export_a);
    let a2 = IngestServer::start(cfg_a2).unwrap();
    assert_eq!(a2.recovery().recovered_reports, na);
    let back = coord.tick();
    assert_eq!((back.workers_up, back.workers_total), (2, 2));
    assert_eq!(back.merged_reports, n);
    assert_eq!(back.ring_crc32, view.ring_crc32);
    assert_eq!(back.counts_crc32, view.counts_crc32);
    assert!(
        back.epochs[0] > view.epochs[0],
        "recovery must bump the worker epoch ({} → {})",
        view.epochs[0],
        back.epochs[0]
    );
    assert_eq!(coord.worker_status()[0].restarts, 1);
    assert_eq!(coord.worker_status()[0].regressions, 0);

    drop(router);
    let _ = (a2.shutdown(), b.shutdown(), single.shutdown());
    for d in [dir_a, dir_b, dir_s] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn router_fails_over_batches_to_a_live_worker() {
    let (cfg_a, dir_a) = worker_config("fo-a");
    let (cfg_b, dir_b) = worker_config("fo-b");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();

    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();

    // Warm both paths, then kill B.
    let warm: Vec<Report> = (0..200).map(toy_report).collect();
    assert_eq!(stream_reports(router.addr(), &warm, 2).unwrap(), 200);
    let warm_a = a.counts().num_reports;
    assert!(warm_a > 0 && warm_a < 200, "warm split degenerate");
    b.crash();

    // Every report still gets durably acked: batches homed on the dead
    // worker fail their connect (never a write) and move to A — exact
    // merge makes placement free.
    let reports: Vec<Report> = (0..1_000).map(|i| toy_report(i + 7)).collect();
    assert_eq!(stream_reports(router.addr(), &reports, 4).unwrap(), 1_000);
    assert_eq!(a.counts().num_reports, warm_a + 1_000);
    let stats = router.stats();
    assert_eq!(stats.cluster_routed.load(Ordering::Relaxed), 1_200);
    assert_eq!(stats.routed_failed.load(Ordering::Relaxed), 0);
    assert!(stats.worker_down.load(Ordering::Relaxed) > 0);
    assert!(stats.rerouted_batches.load(Ordering::Relaxed) > 0);
    assert_eq!(router.workers_up(), vec![true, false]);

    drop(router);
    let _ = a.shutdown();
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn router_refuses_malformed_streams_without_acking() {
    use std::io::{Read, Write};

    let (cfg_a, dir_a) = worker_config("hostile");
    let a = IngestServer::start(cfg_a).unwrap();
    let router = Router::start(router_config(vec![a.addr()])).unwrap();

    // Garbage that parses as an oversized length prefix: the router
    // must drop the connection without an ack (same contract as
    // ingestd's front door).
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = [0u8; 8];
    assert!(
        conn.read_exact(&mut buf).is_err(),
        "hostile stream must not be acked"
    );

    // A mid-frame EOF is a protocol violation too: routed frames stand,
    // but no ack is issued for the truncated stream.
    let good = toy_report(3).encode();
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.write_all(&(good.len() as u32).to_le_bytes()).unwrap();
    conn.write_all(&good).unwrap();
    conn.write_all(&(good.len() as u32).to_le_bytes()).unwrap();
    conn.write_all(&good[..good.len() / 2]).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(
        conn.read_exact(&mut buf).is_err(),
        "truncated stream must not be acked"
    );

    // The router still serves well-formed clients afterwards.
    let reports: Vec<Report> = (0..50).map(toy_report).collect();
    assert_eq!(stream_reports(router.addr(), &reports, 1).unwrap(), 50);
    assert!(router.stats().disconnected_protocol.load(Ordering::Relaxed) >= 2);

    drop(router);
    let _ = a.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
}

/// Toy report at an explicit timestamp and ε′ — the grant-following
/// cohort member.
fn grant_report(i: u32, t: u64, eps: f64) -> Report {
    let a = i % REGIONS as u32;
    let b = (a + 1) % REGIONS as u32;
    Report {
        t,
        eps_prime: eps,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a), (1, b)],
        transitions: vec![(a, b)],
    }
}

/// A toy region graph over the test universe (line distances, ring
/// adjacency — matches `grant_report`'s a → a+1 transitions).
fn toy_graph() -> trajshare_core::RegionGraph {
    let n = REGIONS;
    let matrix: Vec<f32> = (0..n * n)
        .map(|k| ((k / n) as f32 - (k % n) as f32).abs())
        .collect();
    let distance = trajshare_core::distances::RegionDistance::from_parts(n, matrix);
    let bigrams: Vec<(u32, u32)> = (0..n as u32).map(|a| (a, (a + 1) % n as u32)).collect();
    trajshare_core::RegionGraph::from_parts(distance, bigrams)
}

#[test]
fn closed_loop_grants_are_durable_across_coordinator_restart() {
    use trajshare_aggregate::clusterproto::{write_cluster_frame, ClusterFrame};
    use trajshare_aggregate::{eps_to_nano, nano_to_eps, AllocationPolicy, WindowBudgetConfig};
    use trajshare_service::{encode_wire, GrantClient};

    const TOTAL_EPS: f64 = 4.0;
    const HORIZON: usize = 4;
    const PER_WINDOW: u32 = 120;

    let (mut cfg_a, dir_a) = worker_config("grant-a");
    let (cfg_b, dir_b) = worker_config("grant-b");
    // Worker A runs a grant session of its own (board only, no local
    // budget): relayed coordinator grants must reach clients connected
    // straight to it. Worker B stays grant-less: a `GrantAnnounce`
    // relay must be ignored there, never fatal.
    cfg_a.stream.as_mut().unwrap().grants = true;
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();

    let mut rcfg = router_config(vec![a.addr(), b.addr()]);
    rcfg.grants = true;
    let router = Router::start(rcfg).unwrap();

    let ledger_path = std::env::temp_dir().join(format!(
        "trajshare-cluster-test-{}-grant.tsba",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger_path);
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    ccfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(TOTAL_EPS),
        HORIZON,
        AllocationPolicy::Uniform,
    ));
    ccfg.ledger_path = Some(ledger_path.clone());
    let mut coord = Coordinator::new(ccfg.clone());

    // What routerd's tick loop does with a view's grant: one allocator,
    // every front door.
    let exports = [a.export_addr().unwrap(), b.export_addr().unwrap()];
    let relay = |g: trajshare_aggregate::GrantFrame| {
        router.announce_grant(g);
        for export in exports {
            let _ = std::net::TcpStream::connect(export)
                .and_then(|mut s| write_cluster_frame(&mut s, &ClusterFrame::GrantAnnounce(g)));
        }
    };

    // The closed loop, through the router: wait for each window's
    // announced ε′, randomize the cohort at exactly that rate, stream.
    let mut client = GrantClient::connect(router.addr()).unwrap();
    let mut sent = 0u64;
    let share = eps_to_nano(TOTAL_EPS) / HORIZON as u64;
    for k in 0..3u64 {
        let mut grant = None;
        for _ in 0..250 {
            let view = coord.tick();
            // The sliding-sum invariant holds by construction on every
            // single tick, and refusal stays the never-taken exception
            // path.
            assert!(view.sliding_spend_nano.unwrap() <= eps_to_nano(TOTAL_EPS));
            assert!(
                view.refused_windows.is_empty(),
                "refusals must stay the exception path: {:?}",
                view.refused_windows
            );
            if let Some(g) = view.grant {
                relay(g);
                if g.window >= k {
                    grant = Some(g);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let g = grant.unwrap_or_else(|| panic!("window {k} never granted"));
        assert_eq!(g.window, k);
        assert_eq!(
            g.granted_nano, share,
            "uniform grants are the per-window share"
        );

        let got = client
            .wait_grant(k, Duration::from_secs(5))
            .unwrap()
            .expect("router never pushed the relayed grant");
        assert_eq!(got, g);
        let eps = nano_to_eps(g.granted_nano);
        let slice: Vec<Report> = (0..PER_WINDOW)
            .map(|i| grant_report(i, g.window * 10 + u64::from(i % 10), eps))
            .collect();
        client.send(&encode_wire(&slice, 16)).unwrap();
        sent += u64::from(PER_WINDOW);

        // Drive ticks until the cohort is merged and the window settles
        // cleanly (spend == grant, not refused).
        let settled = (0..250).any(|_| {
            let view = coord.tick();
            if let Some(g) = view.grant {
                relay(g);
            }
            let ok =
                view.merged_reports == sent
                    && coord.budget_decisions().get(&k).is_some_and(
                        |&(granted, spent, refused)| granted == share && spent == share && !refused,
                    );
            if !ok {
                std::thread::sleep(Duration::from_millis(10));
            }
            ok
        });
        assert!(settled, "window {k} never settled cleanly");
    }
    let (acked, client_grants) = client.finish().unwrap();
    assert_eq!(acked, sent, "every grant-following report worker-acked");
    assert!(client_grants.len() >= 3);

    // The partition was real, and the grant-less worker B ignored the
    // TSCL announcements without dropping its export connections.
    assert!(a.counts().num_reports > 0 && b.counts().num_reports > 0);

    // A late joiner connected straight to grant-running worker A gets
    // the standing grant from its board (TSCL relay → board catch-up).
    let mut direct = GrantClient::connect(a.addr()).unwrap();
    let dg = direct
        .wait_grant(0, Duration::from_secs(5))
        .unwrap()
        .expect("worker board never served the relayed grant");
    assert!(dg.window >= 2);
    let (dacked, _) = direct.finish().unwrap();
    assert_eq!(dacked, 0);

    // ---- kill → restart mid-horizon ----------------------------------
    // Window 3 is pre-allocated (the standing grant) but unfilled: the
    // most dangerous restart point — a coordinator that forgot the
    // ledger would re-decide it under a fresh epoch.
    let decisions_before = coord.budget_decisions();
    let history_before = coord.grant_history();
    let accepted_before = coord.accepted_windows();
    assert_eq!(decisions_before.len(), 4, "window 3 pre-allocated");
    assert_eq!(accepted_before, vec![0, 1, 2]);
    let graph = toy_graph();
    let model_before = format!(
        "{:?}",
        coord.estimate(&graph).expect("model before restart")
    );
    drop(coord);

    let mut coord2 = Coordinator::new(ccfg);
    let view2 = coord2.tick();
    // Restored, not re-decided: identical history (same epochs — not
    // one new record), identical decisions, and the same standing
    // grant re-announced.
    assert_eq!(coord2.grant_history(), history_before);
    assert_eq!(coord2.budget_decisions(), decisions_before);
    assert_eq!(
        view2.grant.map(|g| (g.window, g.epoch, g.granted_nano)),
        history_before
            .last()
            .map(|r| (r.window, r.epoch, r.granted_nano)),
        "restart must re-announce the standing grant, not re-grant it"
    );
    assert!(view2.refused_windows.is_empty());
    assert!(view2.sliding_spend_nano.unwrap() <= eps_to_nano(TOTAL_EPS));
    let accepted_after: Vec<u64> = coord2
        .accepted_windows()
        .into_iter()
        .filter(|&w| w <= view2.watermark)
        .collect();
    assert_eq!(accepted_after, accepted_before);
    // Same merged view, same accepted set, deterministic cold solve:
    // the published model is bit-identical across the restart.
    let model_after = format!(
        "{:?}",
        coord2.estimate(&graph).expect("model after restart")
    );
    assert_eq!(model_before, model_after);

    drop(router);
    let _ = (a.shutdown(), b.shutdown());
    let _ = std::fs::remove_file(&ledger_path);
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// TSR4 frame `f`: 50 distinct toy reports sharing one ε′, in timestamp
/// order so they batch into a single frame.
fn tsr4_frame(f: usize) -> (Vec<Report>, Vec<u8>) {
    let mut reports: Vec<Report> = (0..50)
        .map(|k| {
            let mut r = toy_report((f * 50 + k) as u32);
            r.eps_prime = 0.5 + (f % 5) as f64 * 0.25;
            r
        })
        .collect();
    reports.sort_by_key(|r| r.t);
    let mut frame = Vec::new();
    trajshare_aggregate::ReportBatch::from_reports(&reports)
        .unwrap()
        .encode_frame_into(&mut frame);
    (reports, frame)
}

/// One paced TSR4 upload through the router.
struct PacedUpload {
    reports: Vec<Report>,
    frames: usize,
    /// Cumulative acks read before the half-close.
    mid_stream_acks: Vec<u64>,
    final_ack: u64,
}

/// Streams at least `min_frames` [`tsr4_frame`]s over one connection,
/// `pace` apart, reading acks between writes — and keeps going (up to
/// `max_frames`) until a mid-stream ack has arrived — then half-closes
/// and reads the final ack. `progress` counts frames written.
fn paced_upload(
    addr: std::net::SocketAddr,
    min_frames: usize,
    max_frames: usize,
    pace: Duration,
    progress: &std::sync::atomic::AtomicUsize,
) -> PacedUpload {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut up = PacedUpload {
        reports: Vec::new(),
        frames: 0,
        mid_stream_acks: Vec::new(),
        final_ack: 0,
    };
    let mut partial = Vec::new();
    let mut feed = |bytes: &[u8], acks: &mut Vec<u64>| {
        partial.extend_from_slice(bytes);
        while partial.len() >= 8 {
            acks.push(u64::from_le_bytes(partial[..8].try_into().unwrap()));
            partial.drain(..8);
        }
    };
    let mut buf = [0u8; 256];
    while up.frames < min_frames || (up.mid_stream_acks.is_empty() && up.frames < max_frames) {
        let (reports, frame) = tsr4_frame(up.frames);
        conn.write_all(&frame).unwrap();
        up.reports.extend(reports);
        up.frames += 1;
        progress.store(up.frames, Ordering::SeqCst);
        std::thread::sleep(pace);
        conn.set_nonblocking(true).unwrap();
        loop {
            match conn.read(&mut buf) {
                Ok(0) => panic!("router closed mid-stream"),
                Ok(n) => feed(&buf[..n], &mut up.mid_stream_acks),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("ack read: {e}"),
            }
        }
        conn.set_nonblocking(false).unwrap();
    }
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut tail = Vec::new();
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => feed(&buf[..n], &mut tail),
            Err(e) => panic!("final ack read: {e}"),
        }
    }
    up.final_ack = *tail
        .last()
        .or(up.mid_stream_acks.last())
        .expect("an ack at EOF");
    let mut all = up.mid_stream_acks.clone();
    all.extend(&tail);
    assert!(
        all.windows(2).all(|w| w[0] <= w[1]),
        "acks must be cumulative and monotone: {all:?}"
    );
    up
}

#[test]
fn router_pipelines_tsr4_frames_over_persistent_uplinks() {
    let (cfg_a, dir_a) = worker_config("pipe-a");
    let (cfg_b, dir_b) = worker_config("pipe-b");
    let (cfg_s, dir_s) = worker_config("pipe-single");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();
    let single = IngestServer::start(cfg_s).unwrap();
    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();

    let progress = std::sync::atomic::AtomicUsize::new(0);
    let up = paced_upload(
        router.addr(),
        100,
        1_000,
        Duration::from_millis(1),
        &progress,
    );
    let n = up.reports.len() as u64;
    assert_eq!(up.final_ack, n, "every report acked");
    assert!(
        !up.mid_stream_acks.is_empty(),
        "an ack must arrive before EOF"
    );
    assert_eq!(router.stats().cluster_routed.load(Ordering::Relaxed), n);

    // One busy period carries many frames: far fewer worker
    // connections than frames.
    let conns =
        a.stats().accepted.load(Ordering::Relaxed) + b.stats().accepted.load(Ordering::Relaxed);
    assert!(
        conns * 10 <= up.frames as u64,
        "{conns} worker connections for {} frames",
        up.frames
    );

    // The split is exact: the merged ring is bit-identical to a single
    // node that ingested the same reports.
    assert_eq!(stream_reports(single.addr(), &up.reports, 1).unwrap(), n);
    let (na, nb) = (a.counts().num_reports, b.counts().num_reports);
    assert!(na > 0 && nb > 0, "degenerate partition: {na}/{nb}");
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    let view = Coordinator::new(ccfg).tick();
    assert_eq!(view.merged_reports, n);
    let single_ring = single.windowed_counts().unwrap();
    assert_eq!(
        view.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged())
    );

    // The idle uplink closed after `linger`, so a crash does not wait
    // out the worker's read timeout on a held connection.
    let t0 = std::time::Instant::now();
    a.crash();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "crash took {:?}",
        t0.elapsed()
    );

    drop(router);
    let _ = (b.shutdown(), single.shutdown());
    for d in [dir_a, dir_b, dir_s] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn persistent_uplink_never_double_counts_when_a_worker_dies_mid_stream() {
    let (cfg_a, dir_a) = worker_config("dc-a");
    let (cfg_b, dir_b) = worker_config("dc-b");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b.clone()).unwrap();
    let b_addr = b.addr();
    let router = Router::start(router_config(vec![a.addr(), b_addr])).unwrap();

    // Kill B while the upload is streaming through both uplinks.
    let progress = std::sync::atomic::AtomicUsize::new(0);
    let up = std::thread::scope(|s| {
        let upload =
            s.spawn(|| paced_upload(router.addr(), 200, 200, Duration::from_millis(1), &progress));
        while progress.load(Ordering::SeqCst) < 60 {
            std::thread::sleep(Duration::from_millis(1));
        }
        b.crash();
        upload.join().unwrap()
    });
    let sent = up.reports.len() as u64;
    let stats = router.stats();
    let routed = stats.cluster_routed.load(Ordering::Relaxed);
    let failed = stats.routed_failed.load(Ordering::Relaxed);
    assert_eq!(routed + failed, sent, "every report settled exactly once");
    assert_eq!(up.final_ack, routed);
    assert!(stats.worker_down.load(Ordering::Relaxed) > 0);

    // Restart B from its WAL. Whatever a worker ingested stands, acked
    // or not, and nothing was resent: acked ≤ merged ≤ sent.
    let mut cfg_b2 = cfg_b;
    cfg_b2.addr = b_addr;
    let b2 = IngestServer::start(cfg_b2).unwrap();
    let merged = a.counts().num_reports + b2.counts().num_reports;
    assert!(
        up.final_ack <= merged && merged <= sent,
        "acked {} merged {merged} sent {sent}",
        up.final_ack
    );

    drop(router);
    let _ = (a.shutdown(), b2.shutdown());
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn router_drops_a_report_no_forwarded_frame_can_carry() {
    use std::io::{Read, Write};

    let (cfg_a, dir_a) = worker_config("oversize");
    let a = IngestServer::start(cfg_a).unwrap();
    let router = Router::start(router_config(vec![a.addr()])).unwrap();

    // A TSR3 payload just under `MAX_FRAME_LEN` whose TSR4 re-batching
    // (24 header bytes more) would exceed it: the router must refuse it
    // at the front door, not ship a frame the worker rejects.
    let max = trajshare_aggregate::MAX_FRAME_LEN as usize;
    let giant = Report {
        t: 0,
        eps_prime: 1.0,
        len: 2,
        unigrams: vec![],
        exact: vec![],
        transitions: vec![(0, 1); (max - Report::HEADER_LEN) / 8],
    };
    let frame = giant.encode_frame();
    assert!(frame.len() - 4 <= max);
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // The router may close mid-write; only the missing ack matters.
    let _ = conn.write_all(&frame);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut buf = [0u8; 8];
    assert!(conn.read_exact(&mut buf).is_err(), "must not be acked");
    assert_eq!(
        router.stats().disconnected_protocol.load(Ordering::Relaxed),
        1
    );

    // The uplink never saw it: well-formed traffic still flows.
    let reports: Vec<Report> = (0..50).map(toy_report).collect();
    assert_eq!(stream_reports(router.addr(), &reports, 1).unwrap(), 50);
    assert_eq!(a.counts().num_reports, 50);
    assert_eq!(router.stats().routed_failed.load(Ordering::Relaxed), 0);

    drop(router);
    let _ = a.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
}
