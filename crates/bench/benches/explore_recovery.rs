//! Per-cell cost of the three evaluation modes — `full` (two syntheses),
//! `recover` (one conventional synthesis + the slack walk and pinned
//! rebind), `auto` (recovery plus full-synthesis re-checks on suspect
//! cells) — on IDCT-1D and FIR grids.
//!
//! Before any timing starts the recovery contract is asserted: every
//! recovered row is dominate-or-match against its conventional baseline,
//! and the `pipeline.recover.*` counters show the walk actually ran.
//! Tracked per PR in `BENCH_<n>.json`.

use adhls_core::dse::DsePoint;
use adhls_core::sched::HlsOptions;
use adhls_core::PointMode;
use adhls_explore::{Engine, EngineOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::{fir, idct};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// IDCT-1D cells: one design per latency budget, fanned across clocks —
/// a mix of headroom-rich cells (deep recovery) and tight ones (suspect
/// recoveries that auto re-checks).
fn idct1d_grid() -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for &cycles in &[12u32, 16] {
        let design = idct::build_1d(cycles);
        for &clock in &[1800u64, 2200, 2600, 3000] {
            pts.push(DsePoint::grid(
                "idct1d",
                design.clone(),
                clock,
                cycles,
                None,
            ));
        }
    }
    pts
}

/// FIR cells: 8-tap filter at two latency budgets across clocks —
/// recovery is clean nearly everywhere here, so auto's cost approaches
/// recover's.
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

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_recovery");
    let lib = tsmc90::library();

    for (grid_name, points) in [("idct1d", idct1d_grid()), ("fir", fir_grid())] {
        // The contract first, the clock second: recovered rows dominate
        // their conventional baselines, full mode shares those baselines
        // bit for bit, and the walk really ran (downgrades counted).
        let was = adhls_telemetry::global().is_enabled();
        adhls_telemetry::global().set_enabled(true);
        let before = adhls_telemetry::global().snapshot();
        let rec = engine(&lib)
            .evaluate_mode(&points, PointMode::Recover)
            .expect("grid schedules")
            .rows;
        let after = adhls_telemetry::global().snapshot();
        adhls_telemetry::global().set_enabled(was);
        let full = engine(&lib)
            .evaluate_mode(&points, PointMode::Full)
            .expect("grid schedules")
            .rows;
        for (r, f) in rec.iter().zip(&full) {
            assert!(
                r.a_slack <= r.a_conv + 1e-9,
                "{}: recovered area exceeds its baseline",
                r.name
            );
            assert!(
                (r.a_conv - f.a_conv).abs() < 1e-9,
                "{}: baselines diverge across modes",
                r.name
            );
        }
        let downgrades = after.counter("pipeline.recover.downgrades").unwrap_or(0)
            - before.counter("pipeline.recover.downgrades").unwrap_or(0);
        assert!(downgrades > 0, "{grid_name}: the slack walk never moved");
        println!(
            "{grid_name}: {} cells, {downgrades} downgrades kept, baselines shared",
            points.len()
        );

        // Fresh engine per iteration so the result cache never answers
        // for the pipeline; one thread so per-cell costs add up legibly.
        for (mode_name, mode) in [
            ("full", PointMode::Full),
            ("recover", PointMode::Recover),
            ("auto", PointMode::Auto),
        ] {
            c.bench_function(&format!("explore/{grid_name}_{mode_name}"), |b| {
                b.iter(|| {
                    black_box(
                        engine(&lib)
                            .evaluate_mode(&points, mode)
                            .expect("grid schedules")
                            .rows
                            .len(),
                    )
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
