//! The `table4` and `fleet` workloads: cold sweeps through
//! [`Engine::evaluate`] at one thread per core, as `adhls explore` runs
//! them.
//!
//! * `table4` — the paper's fifteen Table-4 IDCT points (eight distinct
//!   designs, 25–980 ms a cell): scheduling is nearly all the work, and one
//!   cell is about a third of it. Fixed inputs; the seed only picks the
//!   oracle's stimuli.
//! * `fleet` — a seeded fleet of small random designs, one cell each, about
//!   a quarter overconstrained: per-design set-up, the failure path and
//!   retained prefixes weigh more and nothing is reused. Two seeds share no
//!   design.
//!
//! Each run builds the inputs several times (set-up), sweeps them cold
//! with a fresh engine until the timed region ends, then — untimed —
//! decomposes every cell call by call, asserts each sweep's rows equal the
//! decomposition's, and replays every feasible schedule in the interpreter
//! (and, for the IDCT, against `idct::golden_2d`).

use crate::cells::{idct_golden_matches, replay_matches, stimulus, Cell, Decomposer};
use crate::metrics::{write_trace_files, EndToEnd, Layers};
use crate::stats::{geomean, median, nproc, peak_rss_mb, quantile, ratio, record_provenance};
use crate::trace::Tracer;
use crate::{Config, Outcome, Workload};
use adhls_core::dse::DseRow;
use adhls_core::sched::HlsOptions;
use adhls_explore::server::{sweep_points, WorkloadSpec};
use adhls_explore::{Engine, EngineOptions, SweepResult};
use adhls_reslib::tsmc90;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Designs in one fleet sweep.
const FLEET_DESIGNS: usize = 1500;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// The `adhls explore` spec the workload runs.
fn spec(cfg: &Config) -> WorkloadSpec {
    match cfg.workload {
        Workload::Table4 => WorkloadSpec {
            workload: Some("idct-table4".into()),
            ..WorkloadSpec::default()
        },
        _ => WorkloadSpec {
            workload: Some("random".into()),
            count: Some(if cfg.tiny { 12 } else { FLEET_DESIGNS }),
            seed: Some(fleet_base(cfg.seed)),
            ..WorkloadSpec::default()
        },
    }
}

/// First design seed of the fleet for benchmark seed `seed`: fleets of
/// different seeds are disjoint ranges of design seeds.
#[must_use]
pub fn fleet_base(seed: u64) -> u64 {
    1_000 + (seed % 100_000_000) * 10_000
}

/// Runs `table4` or `fleet`.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    record_provenance(&mut out, cfg);
    let table4 = cfg.workload == Workload::Table4;
    let spec = spec(cfg);
    let epoch = Instant::now();

    // Set-up: the library, the points (through the CLI's own expansion),
    // and an engine. It is repeated after the timed region, so the extra
    // set-ups cannot inflate the timed region's peak memory, and the
    // median is reported.
    let engine_opts = EngineOptions {
        threads: nproc(),
        skip_infeasible: !table4,
        ..EngineOptions::default()
    };
    let setup = || {
        let t = Instant::now();
        let lib = tsmc90::library();
        let e = Instant::now();
        let mut points = sweep_points(&spec).expect("the benchmark's spec is valid");
        let expand_us = e.elapsed().as_secs_f64() * 1e6;
        if cfg.tiny && table4 {
            points.truncate(2);
        }
        std::hint::black_box(Engine::with_options(
            &lib,
            HlsOptions::default(),
            engine_opts.clone(),
        ));
        (t.elapsed().as_secs_f64(), expand_us, lib, points)
    };
    let (first_setup_s, first_expand_us, lib, points) = setup();
    let mut setup_s = vec![first_setup_s];
    let mut expand_us = vec![first_expand_us];

    // Timed region: cold sweeps, each with a fresh engine, until the time
    // is up. A sweep is the request a user of `adhls explore` waits for. A
    // traced run alternates untraced and traced sweeps (traced = a span
    // around the call plus the program's own telemetry registry enabled),
    // so their ratio is the tracing overhead.
    let mut tracer = Tracer::new(epoch);
    let mut sweeps: Vec<Result<SweepResult, String>> = Vec::new();
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut workers = 1;
    let min_sweeps = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut peak_mb = 0.0;
    while sweeps.len() < min_sweeps || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && sweeps.len() % 2 == 1;
        let engine = Engine::with_options(&lib, HlsOptions::default(), engine_opts.clone());
        let sweep = || catch_unwind(AssertUnwindSafe(|| engine.evaluate(&points)));
        let t = Instant::now();
        let res = if traced {
            adhls_telemetry::global().set_enabled(true);
            let r = tracer.span("engine.evaluate", sweeps.len() as u64, |_| sweep());
            adhls_telemetry::global().set_enabled(false);
            r
        } else {
            sweep()
        };
        let wall = t.elapsed().as_secs_f64();
        drop(engine);
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        sweeps.push(match res {
            Ok(Ok(r)) => {
                workers = r.workers;
                Ok(r)
            }
            Ok(Err(e)) => Err(format!("sweep failed: {e}")),
            Err(_) => Err("sweep panicked".into()),
        });
        if sweeps.len() == 1 {
            // Memory of what `adhls explore` runs: one cold sweep.
            peak_mb = peak_rss_mb();
        }
    }
    for _ in 1..if cfg.tiny { 2 } else { SETUP_REPEATS } {
        let (s, e, _, _) = setup();
        setup_s.push(s);
        expand_us.push(e);
    }

    // Untimed: decompose every cell once more, keeping the schedules, and
    // check them against the oracle.
    let mut dec = Decomposer::new(&lib, HlsOptions::default(), Tracer::new(epoch), cfg.trace);
    let cells: Vec<Cell> = points
        .iter()
        .enumerate()
        .map(|(i, p)| dec.cell(i as u64, p))
        .collect();
    let mut oracle_bad = 0u64;
    for (i, (p, c)) in points.iter().zip(&cells).enumerate() {
        let Some(flows) = &c.flows else { continue };
        let id = i as u64;
        let ok = dec.tracer.span("oracle", id, |_| {
            replay_matches(&p.design, &stimulus(&p.design, cfg.seed, id), flows)
                && (!table4 || idct_golden_matches(&p.design, cfg.seed, id, flows))
        });
        if !ok {
            oracle_bad += 1;
            out.fail(
                0,
                format!("{}: schedule replay disagrees with the oracle", p.name),
            );
        }
    }
    if cfg.inject_fault {
        if let Some(Ok(r)) = sweeps.first_mut() {
            if let Some(row) = r.rows.first_mut() {
                row.a_slack += 1.0;
            }
        }
    }
    let expected: Vec<(&str, &Result<DseRow, String>)> = points
        .iter()
        .zip(&cells)
        .map(|(p, c)| (p.name.as_str(), &c.row))
        .collect();
    for (k, s) in sweeps.iter().enumerate() {
        let bad = match s {
            Ok(r) => mismatches(&expected, r),
            Err(e) => {
                out.fail(0, format!("sweep {k}: {e}"));
                points.len() as u64
            }
        };
        if bad > 0 {
            out.fail(
                bad,
                format!("sweep {k}: {bad} cells differ from the decomposition"),
            );
        }
        // A schedule the oracle rejects makes that cell wrong in every sweep.
        out.failed += oracle_bad;
    }
    out.attempted = (points.len() * sweeps.len()) as u64;

    let feasible: Vec<DseRow> = cells.iter().filter_map(|c| c.row.clone().ok()).collect();
    let n_cells = points.len() as f64;
    // The median cold sweep. On a shared host the speed drifts for tens of
    // seconds at a time; the median of a run's sweeps varies less from run
    // to run than the fastest one does.
    let median_wall = median(&walls);
    let ms_list = |v: &[f64]| {
        let s: Vec<String> = v.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
        format!("[{}]", s.join(","))
    };
    out.prov("cells", points.len());
    out.prov("threads", workers);
    out.prov("sweeps_untraced", walls.len());
    out.prov("sweeps_traced", traced_walls.len());
    out.prov("sweep_walls_ms", ms_list(&walls));
    out.prov("setup_repeats", setup_s.len());
    out.prov("latency_samples", walls.len());
    if table4 {
        out.prov_str(
            "seed_scope",
            "inputs are fixed; the seed picks oracle stimuli only",
        );
    } else {
        out.prov("fleet_first_design_seed", fleet_base(cfg.seed));
    }

    if cfg.trace {
        let mut layers = Layers::default();
        layers.from_decomposition(&dec, &feasible);
        layers.engine_parallel_eff = ratio(
            dec.acc.cell_ms.iter().sum::<f64>() / 1e3,
            median_wall * workers as f64,
        );
        layers.session_expand_us = median(&expand_us);
        layers.trace_overhead_pct = (ratio(median(&traced_walls), median(&walls)) - 1.0) * 100.0;
        layers.push(&mut out);
        tracer.absorb(dec.tracer);
        out.layer_table = tracer.table();
        let telemetry = adhls_telemetry::global().snapshot().render_json();
        match write_trace_files(cfg, &out.provenance_object(), &tracer, &telemetry) {
            Ok(spans) => out.prov_str("span_file", &spans.display().to_string()),
            Err(e) => out.fail(1, format!("writing the trace files: {e}")),
        }
    } else {
        EndToEnd {
            setup_s: median(&setup_s),
            cells_per_s: n_cells / median_wall,
            req_per_s: 1.0 / median_wall,
            req_p50_ms: median_wall * 1e3,
            req_p99_ms: quantile(&walls, 0.99) * 1e3,
            feasible_ratio: feasible.len() as f64 / n_cells,
            area_geomean: geomean(feasible.iter().map(|r| r.a_slack)),
            peak_rss_mb: peak_mb,
        }
        .push(&mut out);
    }
    out
}

/// Cells of one sweep that differ from the decomposition: a feasible cell
/// must come back as the identical row, an infeasible one as a skipped
/// entry with the identical message, in input order.
#[must_use]
pub fn mismatches(expected: &[(&str, &Result<DseRow, String>)], got: &SweepResult) -> u64 {
    let mut rows = got.rows.iter();
    let mut skipped = got.skipped.iter();
    let mut bad = 0u64;
    for (name, exp) in expected {
        let same = match exp {
            Ok(row) => rows.next() == Some(row),
            Err(msg) => skipped.next().is_some_and(|(n, m)| n == name && m == msg),
        };
        bad += u64::from(!same);
    }
    bad + (rows.count() + skipped.count()) as u64
}
