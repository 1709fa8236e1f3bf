//! End-to-end benchmark for adhls.
//!
//! One command runs one named workload through the public entry points the
//! CLI and the daemon use, checks every output against an independent
//! oracle, and prints its metrics as one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table4|fleet|serve-mix --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! * `fleet` — a seeded customer fleet of small random designs, cold
//!   skip-infeasible sweeps through [`adhls_explore::Engine::evaluate`]
//!   (what `adhls explore --workload random --skip-infeasible` runs).
//! * `serve-mix` — closed-loop clients over loopback TCP into a
//!   [`adhls_explore::Router`] over in-process workers (what `adhls serve
//!   --workers N --threads 1 --cache-bytes B` builds).
//! * `table4` — the paper's fifteen Table-4 IDCT points, cold sweeps through
//!   the same engine (what `adhls explore --workload idct-table4` runs). It
//!   is run by hand and is not among `BENCHMARK.json`'s workloads: one cell
//!   is a third of a sweep, so a sweep's time follows the speed of whichever
//!   core runs that cell, and on a shared host its runs spread too widely
//!   to judge a change by (see `README.md`).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! seeded inputs with spans around every call the benchmark makes into a
//! layer and prints the per-layer metrics, writing the span file and the
//! program's own telemetry snapshot under `perfbench/out/`.

pub mod batch;
pub mod cells;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-4 IDCT points.
    Table4,
    /// A seeded fleet of random customer designs.
    Fleet,
    /// The routed serve mix.
    ServeMix,
}

impl Workload {
    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "table4" => Some(Workload::Table4),
            "fleet" => Some(Workload::Fleet),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4 => "table4",
            Workload::Fleet => "fleet",
            Workload::ServeMix => "serve-mix",
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Replay with spans and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the benchmark's own self-check.
    pub tiny: bool,
    /// Corrupts one output before the check runs, so the self-check can
    /// prove the check catches it.
    pub inject_fault: bool,
    /// Where a traced run writes its span file and telemetry snapshot.
    pub out_dir: PathBuf,
}

impl Config {
    /// Default output directory: `out/` beside this package's manifest.
    #[must_use]
    pub fn default_out_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (cells for the sweeps, requests for serve-mix).
    pub attempted: u64,
    /// Operations that panicked, failed, or failed the output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Provenance key/value pairs, already rendered as JSON values.
    pub provenance: Vec<(String, String)>,
    /// Human-readable per-layer self-time table (traced runs only).
    pub layer_table: String,
    /// Notes on failed checks, one line each (capped).
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The provenance as one JSON object.
    #[must_use]
    pub fn provenance_object(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
        out
    }

    /// The provenance line printed before the result line.
    #[must_use]
    pub fn provenance_json(&self) -> String {
        format!("{{\"provenance\":{}}}", self.provenance_object())
    }

    /// Records a failed check (the first few are kept for the report).
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    pub(crate) fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub(crate) fn prov(&mut self, key: &str, value: impl std::fmt::Display) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    pub(crate) fn prov_str(&mut self, key: &str, value: &str) {
        let mut s = String::new();
        adhls_core::json::escape_into(&mut s, value);
        self.provenance.push((key.to_string(), s));
    }
}

/// A finite number rendered with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which JSON cannot carry) as `0`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs one workload as configured.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut out = match cfg.workload {
        Workload::Table4 | Workload::Fleet => batch::run(cfg),
        Workload::ServeMix => serve::run(cfg),
    };
    out.correct = out.failed == 0 && out.attempted > 0;
    out
}
