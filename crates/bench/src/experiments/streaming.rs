//! The streaming-synthesis scenario (RetraSyn's workload shape): cohorts
//! of users report in consecutive time windows; the server keeps a
//! sliding ring of per-window counters, and every tick re-estimates the
//! mobility model (warm-started IBU) and publishes a fresh synthetic
//! batch for the *current* window span. Reported per tick: live report
//! volume, tick latency (advance + estimate + synthesis), and utility of
//! the published batch against the live windows' ground truth.

use super::ExpParams;
use crate::report::Reported;
use crate::scenario::{build_scenario, Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use trajshare_aggregate::{
    collect_reports, eps_to_nano, nano_to_eps, score_paired, EvalConfig, StreamingEstimator,
    Synthesizer, WindowBudgetAccountant, WindowBudgetConfig, WindowConfig, WindowPublisher,
    WindowedAggregator,
};
use trajshare_core::{MechanismConfig, NGramMechanism};
use trajshare_model::TrajectorySet;

/// Abstract timestamp units per window.
const WINDOW_LEN: u64 = 60;
/// Live windows in the ring.
const NUM_WINDOWS: usize = 3;
/// Total windows simulated (so eviction happens mid-run).
const TOTAL_WINDOWS: usize = 6;

/// Runs the sliding-window publication loop on the Taxi-Foursquare
/// scenario: one row per tick, with the `w`-window privacy budget
/// accounted per tick under `--policy` (the total is the experiment's ε
/// over the ring span; refused windows are excluded from estimation).
pub fn run(params: &ExpParams) -> Reported {
    let cfg = ScenarioConfig {
        num_pois: params.num_pois,
        num_trajectories: params.num_trajectories,
        traj_len: Some(3),
        seed: params.seed,
        ..Default::default()
    };
    let (dataset, real) = build_scenario(Scenario::TaxiFoursquare, &cfg);
    let mech_cfg = MechanismConfig::default().with_epsilon(params.epsilon);
    let mech = NGramMechanism::build(&dataset, &mech_cfg);
    let eval = EvalConfig::default();

    // Every user reports once; cohort w = users in the w-th contiguous
    // block, reporting with timestamps inside window w.
    let mut reports = collect_reports(&mech, &real, params.seed ^ 0x57AE);
    let per_window = reports.len().div_ceil(TOTAL_WINDOWS);
    for (i, r) in reports.iter_mut().enumerate() {
        r.t = (i / per_window) as u64 * WINDOW_LEN;
    }

    let window = WindowConfig {
        window_len: WINDOW_LEN,
        num_windows: NUM_WINDOWS,
    };
    let mut ring =
        WindowedAggregator::new(trajshare_aggregate::region_tiles(mech.regions()), window);
    let mut estimator = StreamingEstimator::with_backend(400, 12, params.backend);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x117);

    // The continuous-publication budget: the experiment's ε over any
    // `NUM_WINDOWS` consecutive windows, allocated per tick by
    // `--policy` through the service's own publication gate (divergence
    // from debiased consecutive windows over the mechanism's graph).
    let budget_cfg =
        WindowBudgetConfig::new(eps_to_nano(params.epsilon), NUM_WINDOWS, params.policy);
    let mut publisher = WindowPublisher::new(WindowBudgetAccountant::new(budget_cfg));

    let mut rows = Vec::new();
    for w in 0..TOTAL_WINDOWS {
        // The window's cohort streams in...
        let t0 = Instant::now();
        let lo = w * per_window;
        let hi = ((w + 1) * per_window).min(reports.len());
        for r in &reports[lo..hi] {
            ring.ingest(r);
        }
        let ingest_s = t0.elapsed().as_secs_f64();
        // Budget decision for the newly completed window before anything
        // is published from it. A tiny run can leave a window with no
        // cohort at all — that is a legal (empty) window: it is never
        // allocated and spends nothing.
        publisher.decide(&ring, w as u64, false, Some(mech.graph()));
        let decision = publisher.accountant().decision(w as u64);
        // ...then the publication tick runs: model + synthetic batch for
        // the merged live span, excluding windows the budget refused.
        let t1 = Instant::now();
        let warm = estimator.is_warm();
        let tick_counts = &ring.merged_where(|id| publisher.may_publish(id));
        let has_data = tick_counts.num_reports > 0;
        let live_lo = (ring.oldest_window() as usize) * per_window;
        let live_hi = hi;
        let lens: Vec<usize> = real.all()[live_lo..live_hi]
            .iter()
            .map(|t| t.len())
            .collect();
        // A tick whose every live window was refused publishes nothing —
        // enforcement, not failure; scores are blank for that tick and
        // the estimator is *not* ticked (a zero-count tick would poison
        // the warm-start posterior, exactly what the service avoids).
        let scores = has_data.then(|| {
            let model = estimator.tick(tick_counts, mech.graph());
            let synthesizer = Synthesizer::new(&dataset, mech.regions(), mech.graph(), &model);
            let synthetic = synthesizer.synthesize_matching(&lens, &mut rng);
            let live_real = TrajectorySet::new(real.all()[live_lo..live_hi].to_vec());
            score_paired(&dataset, &live_real, synthetic.all(), &eval)
        });
        let tick_s = t1.elapsed().as_secs_f64();

        let fmt1 = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.1}"));
        rows.push(vec![
            w.to_string(),
            ring.merged().num_reports.to_string(),
            if warm { "warm" } else { "cold" }.to_string(),
            format!("{:.1}", ingest_s * 1e3),
            format!("{:.1}", tick_s * 1e3),
            fmt1(scores.as_ref().map(|s| s.prq_space)),
            fmt1(scores.as_ref().map(|s| s.prq_time)),
            scores
                .as_ref()
                .map_or("—".to_string(), |s| format!("{:.3}", s.od_l1)),
            params.policy.name().into(),
            decision.map_or("—".to_string(), |d| {
                format!("{:.2}", nano_to_eps(d.granted_nano))
            }),
            match decision {
                None => "—".to_string(),
                Some(d) if d.refused => "refused".to_string(),
                Some(d) => format!("{:.2}", nano_to_eps(d.spent_nano)),
            },
        ]);
    }
    assert!(ring.evicted_windows() > 0, "run must exercise eviction");
    assert!(
        publisher.accountant().sliding_spend_nano() <= budget_cfg.total_nano,
        "the w-window contract must hold at the end of the run"
    );

    Reported {
        id: "streaming_synthesis".into(),
        settings: format!(
            "Taxi-Foursquare, {} users over {TOTAL_WINDOWS} windows (ring {NUM_WINDOWS}), \
             ε = {}, |R| = {}, warm IBU 12 iters, backend = {}, budget {}ε/{}w {}",
            real.len(),
            params.epsilon,
            mech.regions().len(),
            params.backend,
            params.epsilon,
            NUM_WINDOWS,
            params.policy,
        ),
        headers: vec![
            "window".into(),
            "live reports".into(),
            "estimator".into(),
            "ingest ms".into(),
            "tick ms".into(),
            "PRQ space %".into(),
            "PRQ time %".into(),
            "OD L1".into(),
            "policy".into(),
            "ε grant".into(),
            "ε spent".into(),
        ],
        rows,
    }
}
