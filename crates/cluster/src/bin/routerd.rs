//! `routerd` — the cluster's front door and/or its coordinator.
//!
//! ```text
//! routerd [--addr HOST:PORT --worker HOST:PORT ...]       router role
//!         [--export HOST:PORT ... (--regions N | --region-graph FILE)]
//!                                                         coordinator role
//!         [--window-len U --windows W] [--pull-every-ms MS]
//!         [--budget-eps E --budget-window W] [--budget-policy uniform|adaptive]
//!         [--grants] [--ledger PATH]
//!         [--backend dense|blocked|sparse-w2]
//!         [--queue-depth N] [--batch-max N] [--vnodes V]
//!         [--read-timeout-ms MS] [--connect-attempts N]
//! ```
//!
//! With `--addr` + at least one `--worker`, routerd accepts the
//! unchanged client protocol (`TSR2`/`TSR3` report frames, `TSR4` batch
//! frames) and partitions reports across the workers by consistent
//! hashing. With at least one `--export` (each
//! worker's `ingestd --export-addr`) plus a region universe, routerd
//! periodically pulls every worker's snapshot over `TSCL`, merges them
//! bit-exactly, and publishes the cluster view (and, given a region
//! graph, the live merged model). Both roles in one process is the
//! normal deployment; either alone also works (pure router, pure
//! coordinator).
//!
//! `--grants` (requires the coordinator role with a budget) closes the
//! ε-budget loop cluster-wide: the coordinator is the **single
//! allocator**, and every tick its standing grant is (a) announced on
//! the router's own front door to `TSGH`-subscribed client connections
//! and (b) relayed to every worker's export endpoint over `TSCL`
//! `GrantAnnounce`, so clients connected to any tier see one consistent
//! ε′ per window. `--ledger PATH` makes the coordinator's accountant
//! durable: it restores the `TSBA` blob at startup and rewrites it
//! before any announcement, so a routerd restarted mid-horizon
//! re-announces its earlier decisions instead of re-granting spent
//! budget.

use std::net::SocketAddr;
use std::time::Duration;
use trajshare_aggregate::clusterproto::{write_cluster_frame, ClusterFrame};
use trajshare_aggregate::{
    eps_to_nano, nano_to_eps, AllocationPolicy, EstimatorBackend, WindowBudgetConfig, WindowConfig,
};
use trajshare_cluster::{CoordConfig, Coordinator, Router, RouterConfig};
use trajshare_core::{read_region_graph_file, RegionGraph};

fn usage() -> ! {
    eprintln!(
        "usage: routerd [--addr HOST:PORT --worker HOST:PORT ...] \
         [--export HOST:PORT ... (--regions N | --region-graph FILE)] \
         [--window-len U --windows W] [--pull-every-ms MS] \
         [--budget-eps E --budget-window W] [--budget-policy uniform|adaptive] \
         [--grants] [--ledger PATH] \
         [--backend dense|blocked|sparse-w2] [--queue-depth N] [--batch-max N] \
         [--vnodes V] [--read-timeout-ms MS] [--connect-attempts N]"
    );
    std::process::exit(2)
}

fn parsed<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// Same live-model one-liner as `ingestd` prints, so cluster and
/// single-node logs diff cleanly.
fn model_summary(model: &trajshare_aggregate::MobilityModel) -> String {
    let mut top: Vec<(usize, f64)> = model
        .occupancy
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, p)| p > 0.0)
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    top.truncate(3);
    let top: Vec<String> = top.iter().map(|(r, p)| format!("{r}:{:.3}", p)).collect();
    let trans_nnz = model.transition.iter().filter(|&&p| p > 0.0).count();
    format!(
        "debiased={} occ_top=[{}] trans_nnz={trans_nnz}",
        model.debiased,
        top.join(" ")
    )
}

fn main() {
    let mut addr: Option<SocketAddr> = None;
    let mut workers: Vec<SocketAddr> = Vec::new();
    let mut exports: Vec<SocketAddr> = Vec::new();
    let mut regions: Option<usize> = None;
    let mut region_graph: Option<String> = None;
    let mut window_len: Option<u64> = None;
    let mut windows: Option<usize> = None;
    let mut pull_every_ms: u64 = 1_000;
    let mut budget_eps: Option<f64> = None;
    let mut budget_window: Option<usize> = None;
    let mut budget_policy = AllocationPolicy::Uniform;
    let mut backend = EstimatorBackend::default();
    let mut queue_depth: Option<usize> = None;
    let mut batch_max: Option<usize> = None;
    let mut vnodes: Option<usize> = None;
    let mut read_timeout_ms: Option<u64> = None;
    let mut connect_attempts: Option<u32> = None;
    let mut grants = false;
    let mut ledger: Option<std::path::PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--grants" {
            grants = true;
            continue;
        }
        let value = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--addr" => addr = Some(parsed(value(&mut args))),
            "--worker" => workers.push(parsed(value(&mut args))),
            "--export" => exports.push(parsed(value(&mut args))),
            "--regions" => regions = Some(parsed(value(&mut args))),
            "--region-graph" => region_graph = Some(value(&mut args)),
            "--window-len" => window_len = Some(parsed(value(&mut args))),
            "--windows" => windows = Some(parsed(value(&mut args))),
            "--pull-every-ms" => pull_every_ms = parsed(value(&mut args)),
            "--budget-eps" => budget_eps = Some(parsed(value(&mut args))),
            "--budget-window" => budget_window = Some(parsed(value(&mut args))),
            "--budget-policy" => {
                budget_policy =
                    AllocationPolicy::parse(&value(&mut args)).unwrap_or_else(|| usage())
            }
            "--backend" => {
                backend = EstimatorBackend::parse(&value(&mut args)).unwrap_or_else(|| usage())
            }
            "--queue-depth" => queue_depth = Some(parsed(value(&mut args))),
            "--batch-max" => batch_max = Some(parsed(value(&mut args))),
            "--vnodes" => vnodes = Some(parsed(value(&mut args))),
            "--read-timeout-ms" => read_timeout_ms = Some(parsed(value(&mut args))),
            "--connect-attempts" => connect_attempts = Some(parsed(value(&mut args))),
            "--ledger" => ledger = Some(std::path::PathBuf::from(value(&mut args))),
            _ => usage(),
        }
    }

    let route = addr.is_some();
    let coordinate = !exports.is_empty();
    if route && workers.is_empty() {
        eprintln!("routerd: --addr needs at least one --worker");
        usage()
    }
    if !route && !coordinate {
        eprintln!("routerd: nothing to do (need --addr+--worker and/or --export)");
        usage()
    }

    let window = match (window_len, windows) {
        (Some(len), Some(n)) if len >= 1 && n >= 1 => Some(WindowConfig {
            window_len: len,
            num_windows: n,
        }),
        (None, None) => None,
        _ => usage(), // both or neither
    };
    let budget = match (budget_eps, window) {
        (Some(eps), Some(w)) => {
            let horizon = budget_window.unwrap_or(w.num_windows);
            Some(WindowBudgetConfig::new(
                eps_to_nano(eps),
                horizon,
                budget_policy,
            ))
        }
        (Some(_), None) => {
            eprintln!("routerd: --budget-eps requires --window-len/--windows");
            usage()
        }
        (None, _) => None,
    };
    if grants && (budget.is_none() || !coordinate) {
        eprintln!("routerd: --grants requires a coordinator budget (--export + --budget-eps)");
        usage()
    }
    if ledger.is_some() && (budget.is_none() || !coordinate) {
        eprintln!("routerd: --ledger requires a coordinator budget (--export + --budget-eps)");
        usage()
    }

    // The coordinator's public universe, mirrored from ingestd: a bare
    // `--regions N` (tiles default to hour 0 — merge + fingerprint
    // only), or the region-graph file, which also enables live model
    // estimation over the merged view.
    let mut graph: Option<std::sync::Arc<RegionGraph>> = None;
    let mut tiles: Vec<u16> = Vec::new();
    if coordinate {
        match &region_graph {
            Some(path) => {
                let (g, t) =
                    read_region_graph_file(std::path::Path::new(path)).unwrap_or_else(|e| {
                        eprintln!("routerd: cannot load region graph: {e}");
                        std::process::exit(1)
                    });
                if regions.is_some_and(|n| n != t.len()) {
                    eprintln!(
                        "routerd: --regions {} disagrees with the graph's universe of {}",
                        regions.unwrap(),
                        t.len()
                    );
                    std::process::exit(1)
                }
                tiles = t;
                graph = Some(std::sync::Arc::new(g));
            }
            None => {
                let Some(n) = regions else {
                    eprintln!("routerd: --export needs --regions or --region-graph");
                    usage()
                };
                if n == 0 {
                    usage()
                }
                tiles = vec![0u16; n];
            }
        }
    }

    let router = if route {
        let mut config = RouterConfig::new(addr.unwrap(), workers.clone());
        config.grants = grants;
        if let Some(d) = queue_depth {
            config.worker_queue_depth = d.max(1);
        }
        if let Some(b) = batch_max {
            config.batch_max = b.max(1);
        }
        if let Some(v) = vnodes {
            config.vnodes = v.max(1);
        }
        if let Some(ms) = read_timeout_ms {
            config.read_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = connect_attempts {
            config.connect_attempts = n.max(1);
        }
        let handle = Router::start(config).unwrap_or_else(|e| {
            eprintln!("routerd: cannot start router: {e}");
            std::process::exit(1)
        });
        println!(
            "routerd routing on {} across {} workers",
            handle.addr(),
            workers.len()
        );
        Some(handle)
    } else {
        None
    };

    let mut coordinator = if coordinate {
        let mut config = CoordConfig::new(exports.clone(), tiles);
        config.window = window;
        config.budget = budget;
        config.backend = backend;
        config.graph = graph.clone();
        config.ledger_path = ledger.clone();
        if let Some(ms) = read_timeout_ms {
            config.pull_timeout = Duration::from_millis(ms.max(1));
        }
        println!(
            "routerd coordinating {} workers (universe {} regions{}{}{}{})",
            exports.len(),
            config.region_tiles.len(),
            window.map_or(String::new(), |w| format!(
                ", windows {}x{}",
                w.num_windows, w.window_len
            )),
            config.budget.map_or(String::new(), |b| format!(
                ", budget {}ε/{}w {}",
                nano_to_eps(b.total_nano),
                b.horizon,
                b.policy
            )),
            if grants { ", grants on" } else { "" },
            config
                .ledger_path
                .as_ref()
                .map_or(String::new(), |p| { format!(", ledger {}", p.display()) }),
        );
        Some(Coordinator::new(config))
    } else {
        None
    };

    // Drive: coordinator tick + router stat line every pull interval.
    // SIGTERM/SIGKILL is the stop signal, same as ingestd — workers own
    // all durable state except the coordinator's budget ledger, which
    // tick() persists before returning any grant we could relay here.
    let tick_every = Duration::from_millis(pull_every_ms.max(10));
    let relay_timeout = Duration::from_millis(read_timeout_ms.unwrap_or(1_000).max(1));
    let mut last_grant_epoch: Option<u64> = None;
    loop {
        std::thread::sleep(tick_every);
        if let Some(coord) = &mut coordinator {
            let view = coord.tick();
            if grants {
                if let Some(g) = view.grant {
                    // One allocator, every front door: the router's own
                    // grant board for clients connected here, and each
                    // worker's export endpoint (TSCL GrantAnnounce) for
                    // clients connected straight to a worker. Relayed
                    // every tick — the boards dedupe, and a restarted
                    // worker's empty board gets the standing grant back
                    // on the next tick instead of at the next rollover.
                    if let Some(handle) = &router {
                        handle.announce_grant(g);
                    }
                    for &export in &exports {
                        let _ = std::net::TcpStream::connect_timeout(&export, relay_timeout)
                            .and_then(|mut s| {
                                s.set_write_timeout(Some(relay_timeout))?;
                                write_cluster_frame(&mut s, &ClusterFrame::GrantAnnounce(g))
                            });
                    }
                    if last_grant_epoch != Some(g.epoch) {
                        last_grant_epoch = Some(g.epoch);
                        println!(
                            "cluster grant seq={} epoch={} window={} eps={:.3}",
                            view.seq,
                            g.epoch,
                            g.window,
                            nano_to_eps(g.granted_nano)
                        );
                    }
                }
            }
            let windows: Vec<String> = view
                .windows
                .iter()
                .map(|(id, n)| format!("{id}:{n}"))
                .collect();
            let epochs: Vec<String> = view.epochs.iter().map(|e| e.to_string()).collect();
            let budget_desc = view.sliding_spend_nano.map_or(String::new(), |spent| {
                format!(
                    " budget[spent={:.3}ε refused={}]",
                    nano_to_eps(spent),
                    view.refused_windows.len()
                )
            });
            println!(
                "cluster published seq={} watermark={} workers={}/{} epochs=[{}] merged_reports={} windows=[{}] counts_crc={:08x}{}{}",
                view.seq,
                view.watermark,
                view.workers_up,
                view.workers_total,
                epochs.join(" "),
                view.merged_reports,
                windows.join(" "),
                view.counts_crc32,
                view.ring_crc32
                    .map_or(String::new(), |c| format!(" ring_crc={c:08x}")),
                budget_desc,
            );
            if let Some(graph) = &graph {
                if let Some(model) = coord.estimate(graph) {
                    println!(
                        "cluster model seq={} watermark={} {}",
                        view.seq,
                        view.watermark,
                        model_summary(&model)
                    );
                }
            }
        }
        if let Some(handle) = &router {
            let stats = handle.stats();
            let up = handle.workers_up();
            println!(
                "router routed={} failed={} rerouted={} worker_down={} accepted={} completed={} refused={} proto_err={} io_err={} up=[{}]",
                stats.cluster_routed.load(std::sync::atomic::Ordering::Relaxed),
                stats.routed_failed.load(std::sync::atomic::Ordering::Relaxed),
                stats.rerouted_batches.load(std::sync::atomic::Ordering::Relaxed),
                stats.worker_down.load(std::sync::atomic::Ordering::Relaxed),
                stats.accepted.load(std::sync::atomic::Ordering::Relaxed),
                stats.completed.load(std::sync::atomic::Ordering::Relaxed),
                stats.refused.load(std::sync::atomic::Ordering::Relaxed),
                stats
                    .disconnected_protocol
                    .load(std::sync::atomic::Ordering::Relaxed),
                stats.io_errors.load(std::sync::atomic::Ordering::Relaxed),
                up.iter()
                    .map(|&b| if b { "1" } else { "0" })
                    .collect::<Vec<_>>()
                    .join(" "),
            );
        }
    }
}
