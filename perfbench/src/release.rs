//! `release`: the paper's batch publication in process. N devices
//! perturb their trajectories, the collector aggregates the reports,
//! estimates the mobility model with the default estimator and
//! synthesizes one trajectory per device. No socket and no WAL.

use crate::report::{Gate, Metric, Outcome};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use trajshare_aggregate::{
    collect_reports, score_paired, Aggregator, EvalConfig, FrequencyEstimator, MobilityModel,
    Synthesizer,
};
use trajshare_model::TrajectorySet;

/// Devices (walks generated before validity filtering, nearly all of
/// which survive): the IBU and synthesis stages take 1–2 s each.
const TRAJECTORIES: usize = 20_000;

pub struct Prepared {
    world: World,
}

pub fn setup(seed: u64) -> Prepared {
    Prepared {
        world: World::build(seed, TRAJECTORIES),
    }
}

pub fn setup_parts(p: &Prepared) -> Vec<(&'static str, f64)> {
    vec![
        ("setup.scenario_s", p.world.scenario_s),
        ("setup.mechanism_s", p.world.mechanism_s),
    ]
}

struct Pass {
    model: MobilityModel,
    synthetic: TrajectorySet,
    num_reports: u64,
    stages: [f64; 4],
    total: f64,
}

fn release_once(w: &World, seed: u64, tracer: &Tracer, req: u64) -> Pass {
    let root = tracer.open();
    let t0 = Instant::now();
    let reports = collect_reports(&w.mech, &w.set, seed);
    let t1 = Instant::now();
    tracer.span("core.perturb", root, req, t0, t1);
    let mut aggregator = Aggregator::new(w.mech.regions());
    aggregator.ingest_batch(&reports);
    let counts = aggregator.into_counts();
    let t2 = Instant::now();
    tracer.span("aggregate.ingest", root, req, t1, t2);
    let model =
        MobilityModel::estimate_with(&counts, w.mech.graph(), FrequencyEstimator::default());
    let t3 = Instant::now();
    tracer.span("aggregate.estimate", root, req, t2, t3);
    let synthesizer = Synthesizer::new(&w.dataset, w.mech.regions(), w.mech.graph(), &model);
    let lens: Vec<usize> = reports.iter().map(|r| r.len as usize).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let synthetic = synthesizer.synthesize_matching(&lens, &mut rng);
    let t4 = Instant::now();
    tracer.span("aggregate.synthesize", root, req, t3, t4);
    tracer.close(root, "gen.release", 0, req, t0, t4);
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Pass {
        num_reports: counts.num_reports,
        model,
        synthetic,
        stages: [s(t0, t1), s(t1, t2), s(t2, t3), s(t3, t4)],
        total: s(t0, t4),
    }
}

fn model_bits(m: &MobilityModel) -> Vec<u64> {
    [&m.start, &m.end, &m.occupancy, &m.transition, &m.length]
        .iter()
        .flat_map(|v| v.iter().map(|x| x.to_bits()))
        .collect()
}

/// Releases the same inputs again and again until `seconds` have passed
/// (at least twice, so the passes can be compared bit for bit).
pub fn measure(p: &Prepared, tracer: &Tracer, seconds: f64, seed: u64) -> Outcome {
    let w = &p.world;
    let n = w.set.len() as u64;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        passes.push(release_once(w, seed, tracer, passes.len() as u64));
    }
    let mut totals = Samples::default();
    let mut stages: [Samples; 4] = Default::default();
    for pass in &passes {
        totals.push(pass.total);
        for (s, &v) in stages.iter_mut().zip(&pass.stages) {
            s.push(v);
        }
    }
    let first = &passes[0];
    let scores = score_paired(
        &w.dataset,
        &w.set,
        first.synthetic.all(),
        &EvalConfig::default(),
    );
    let produced = first.synthetic.len() as u64;

    let mut out = Outcome {
        attempted: n * passes.len() as u64,
        failed: passes
            .iter()
            .map(|p| n.saturating_sub(p.synthetic.len() as u64))
            .sum(),
        ..Default::default()
    };
    out.gates = vec![
        Gate::eq("release.num_reports", first.num_reports, n),
        Gate::eq("release.synthetic_count", produced, n),
        Gate::eq(
            "release.model_bit_identical",
            model_bits(&passes[1].model) == model_bits(&first.model),
            true,
        ),
        Gate::eq(
            "release.synthetic_identical",
            passes[1].synthetic.all() == first.synthetic.all(),
            true,
        ),
    ];
    let median_s = totals.median();
    out.e2e = vec![
        Metric::new("release_s", "s", median_s, totals.len()),
        Metric::new(
            "release_prq_space",
            "%",
            scores.prq_space,
            produced as usize,
        ),
        Metric::new(
            "failed_frac",
            "ratio",
            out.failed as f64 / out.attempted as f64,
            out.attempted as usize,
        ),
    ];
    out.common = vec![
        Metric::new("throughput_rps", "1/s", n as f64 / median_s, totals.len()),
        Metric::pct("latency_p50_ms", "ms", &totals.scaled(1e3), 50.0),
        Metric::pct("latency_p90_ms", "ms", &totals.scaled(1e3), 90.0),
    ];
    if tracer.on() {
        out.layer = vec![
            Metric::new(
                "core.perturb_us",
                "us",
                stages[0].median() / n as f64 * 1e6,
                stages[0].len(),
            ),
            Metric::pct("release.perturb_s", "s", &stages[0], 50.0),
            Metric::pct("release.aggregate_s", "s", &stages[1], 50.0),
            Metric::pct("release.estimate_s", "s", &stages[2], 50.0),
            Metric::pct("release.synthesize_s", "s", &stages[3], 50.0),
        ];
    }
    out
}
