//! Incremental-evaluation payoff: per-cell sweep cost through shared
//! phase-artifact prefixes vs the from-scratch reference pipeline
//! (`dse::evaluate_point_from_scratch`, point by point) on IDCT-1D and FIR
//! grids.
//!
//! Each grid holds few distinct designs and many clock/II cells per
//! design — the shape real explorations have — so the prepared prefix
//! (elaboration, timed DFG, mobility bounds, clock contexts) amortizes
//! across cells. Rows are bit-identical on both paths (asserted below
//! before timing starts, alongside prefix-cache activity); only the cost
//! moves. Measured per-cell cost reduction on these grids is ~2×: the
//! prefix (elaboration + per-pass bounds/timed-DFG rebuilds + first-restart
//! budgeting) is about half of a from-scratch cell, and the remainder —
//! the relaxation passes themselves — is per-cell work both paths must
//! pay. Tracked per PR in `BENCH_<n>.json`.

use adhls_core::dse::{evaluate_point_from_scratch, DsePoint, DseRow};
use adhls_core::sched::HlsOptions;
use adhls_explore::{Engine, EngineOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::{fir, idct};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// IDCT-1D cells: one design per latency budget, fanned across clocks and
/// initiation intervals (clock/II live in the options, so every cell of a
/// budget shares one prefix).
fn idct1d_grid() -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for &cycles in &[12u32, 16] {
        let design = idct::build_1d(cycles);
        for &clock in &[1800u64, 2200, 2600, 3000] {
            for &ii in &[None, Some(4)] {
                pts.push(DsePoint::grid("idct1d", design.clone(), clock, cycles, ii));
            }
        }
    }
    pts
}

/// FIR cells: 8-tap filter at two latency budgets, fanned across clocks.
fn fir_grid() -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for &cycles in &[8u32, 12] {
        let design = fir::build(&fir::FirConfig {
            coeffs: vec![3, -5, 11, 7, 2, -9, 6, 1],
            cycles,
            width: 16,
        });
        for &clock in &[1400u64, 1800, 2200, 2600] {
            pts.push(DsePoint::grid("fir", design.clone(), clock, cycles, None));
        }
    }
    pts
}

fn engine(lib: &adhls_reslib::Library) -> Engine<'_> {
    Engine::with_options(
        lib,
        HlsOptions::default(),
        EngineOptions {
            threads: 1,
            skip_infeasible: false,
            ..Default::default()
        },
    )
}

/// Every point from scratch, in order.
fn from_scratch(lib: &adhls_reslib::Library, points: &[DsePoint]) -> Vec<DseRow> {
    points
        .iter()
        .map(|p| evaluate_point_from_scratch(p, lib, &HlsOptions::default()))
        .collect::<Result<_, _>>()
        .expect("grid schedules")
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_incremental");
    let lib = tsmc90::library();

    for (grid_name, points) in [("idct1d", idct1d_grid()), ("fir", fir_grid())] {
        // The contract first, the clock second: both paths must produce
        // bit-identical rows, and the prefix cache must actually have been
        // consulted (hits > 0) while the incremental sweep ran.
        let was = adhls_telemetry::global().is_enabled();
        adhls_telemetry::global().set_enabled(true);
        let before = adhls_telemetry::global().snapshot();
        let warm_rows = engine(&lib)
            .evaluate_serial(&points)
            .expect("grid schedules")
            .rows;
        let after = adhls_telemetry::global().snapshot();
        adhls_telemetry::global().set_enabled(was);
        let cold_rows = from_scratch(&lib, &points);
        assert_eq!(warm_rows, cold_rows, "{grid_name}: rows must not move");
        let hits = after.counter("pipeline.prefix.hit").unwrap_or(0)
            - before.counter("pipeline.prefix.hit").unwrap_or(0);
        assert!(hits > 0, "{grid_name}: prefix cache never hit");
        println!(
            "{grid_name}: {} cells, {} prefix hits, rows bit-identical",
            points.len(),
            hits
        );

        // Fresh engine per iteration: the result cache must not answer for
        // the pipeline, and the prefix cache starts empty so the measured
        // sharing is purely within-sweep — what one `adhls explore` run sees.
        c.bench_function(&format!("explore/{grid_name}_incremental"), |b| {
            b.iter(|| {
                black_box(
                    engine(&lib)
                        .evaluate_serial(&points)
                        .expect("grid schedules")
                        .rows
                        .len(),
                )
            })
        });
        c.bench_function(&format!("explore/{grid_name}_scratch"), |b| {
            b.iter(|| black_box(from_scratch(&lib, &points).len()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
