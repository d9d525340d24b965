//! What one measurement produces, and how it is printed and recorded.

use crate::stats::Samples;
use std::fmt::Write as _;

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// The `p`-th percentile of `s`.
    pub fn pct(name: &'static str, unit: &'static str, s: &Samples, p: f64) -> Self {
        Metric::new(name, unit, s.pct(p), s.len())
    }
}

/// A correctness check on a workload's outputs.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &'static str, got: T, want: T) -> Gate {
        Gate {
            name,
            ok: got == want,
            detail: format!("got {got:?}, want {want:?}"),
        }
    }
}

/// The rate an open-loop phase was asked for and the rate it achieved.
#[derive(Debug, Clone)]
pub struct Rate {
    pub phase: &'static str,
    pub target_rps: f64,
    pub achieved_rps: f64,
}

/// Everything one measurement of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The workload's end-to-end metrics, under their own names.
    pub e2e: Vec<Metric>,
    /// `throughput_rps`, `latency_p50_ms`, `latency_p90_ms`: the
    /// workload-independent forms every workload reports.
    pub common: Vec<Metric>,
    /// Per-layer metrics (filled on traced measurements only).
    pub layer: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    pub rates: Vec<Rate>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    pub fn layer_value(&self, name: &str) -> Option<&Metric> {
        self.layer.iter().find(|m| m.name == name)
    }
}

/// Formats a float as JSON, keeping every digit; non-finite values
/// (which no metric should produce) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

pub fn str_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u, "samples": n}, ...}`, or without
/// the sample count when `samples` is false.
pub fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = if samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                str_json(m.name),
                num(m.value),
                str_json(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints metrics as an aligned table: name, value, unit, samples.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}
