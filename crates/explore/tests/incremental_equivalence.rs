//! Incremental evaluation is an optimization, never a semantic: every row
//! produced through shared phase-artifact prefixes must be bit-identical
//! to the from-scratch reference pipeline
//! ([`evaluate_point_from_scratch`]). These properties sweep random grids
//! through one-shot and shared pools and compare them with a from-scratch
//! loop over the same points, walk the degenerate `cycles_per_item == 0`
//! clamp, and check the prefix cache really was live
//! (`pipeline.prefix.hit` > 0) while it happened.

use adhls_core::dse::{evaluate_point_from_scratch, DsePoint, DseRow};
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::sweep::SweepCell;
use adhls_explore::{Engine, EngineOptions, SweepGrid};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use adhls_telemetry::Registry;
use proptest::prelude::*;

/// The synthetic workload the other equivalence suites use: a
/// multiply-multiply-add chain whose latency budget arrives as soft
/// states, so each cycle budget is a distinct design (and prefix).
fn build_cell(cell: &SweepCell) -> Design {
    let mut b = DesignBuilder::new("inc");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.binop(OpKind::Mul, x, y, 8);
    let m2 = b.binop(OpKind::Mul, m1, x, 8);
    let a = b.binop(OpKind::Add, m1, m2, 16);
    b.soft_waits(cell.cycles.saturating_sub(1));
    b.write("z", a);
    b.finish().unwrap()
}

/// Distinct clocks and cycle budgets from raw seeds (duplicates removed so
/// prefix-consult arithmetic below stays exact).
fn grid_from(clock_seeds: &[u16], cycle_seeds: &[u16]) -> SweepGrid {
    let mut clocks: Vec<u64> = clock_seeds
        .iter()
        .map(|&s| 1100 + 140 * u64::from(s % 10))
        .collect();
    clocks.sort_unstable();
    clocks.dedup();
    let mut cycles: Vec<u32> = cycle_seeds.iter().map(|&s| 2 + u32::from(s % 7)).collect();
    cycles.sort_unstable();
    cycles.dedup();
    SweepGrid::new().clocks_ps(clocks).cycles(cycles)
}

fn engine(lib: &adhls_reslib::Library, threads: usize) -> Engine<'_> {
    Engine::with_options(
        lib,
        HlsOptions::default(),
        EngineOptions {
            threads,
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

/// The reference: every point from scratch, in input order, failures
/// recorded as `(name, message)` the way a skip-infeasible sweep records
/// them.
fn from_scratch(points: &[DsePoint]) -> (Vec<DseRow>, Vec<(String, String)>) {
    let lib = tsmc90::library();
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for p in points {
        match evaluate_point_from_scratch(p, &lib, &HlsOptions::default()) {
            Ok(row) => rows.push(row),
            Err(e) => skipped.push((p.name.clone(), e.to_string())),
        }
    }
    (rows, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One-shot sweeps: prefix-shared rows are bit-identical to from-scratch
    /// rows, serially and in parallel, skips included.
    #[test]
    fn engine_incremental_rows_equal_from_scratch(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
        threads in 1usize..4,
    ) {
        let lib = tsmc90::library();
        let points = grid_from(&clock_seeds, &cycle_seeds)
            .expand("inc", build_cell)
            .expect("grid expands");

        let (rows, skipped) = from_scratch(&points);
        let a = engine(&lib, threads).evaluate(&points).expect("incremental sweep runs");
        prop_assert_eq!(&a.rows, &rows, "prefix sharing changed a row");
        prop_assert_eq!(&a.skipped, &skipped);

        // The serial path agrees too.
        let s = engine(&lib, 1).evaluate_serial(&points).expect("serial runs");
        prop_assert_eq!(&s.rows, &rows);
        prop_assert_eq!(&s.skipped, &skipped);
        prop_assert!(!a.rows.is_empty());
    }

    /// Pool sweeps: same contract through the persistent evaluator pool,
    /// with the meters on to prove the prefix cache was actually consulted
    /// — every cell after the first at a given cycle budget shares that
    /// budget's prefix, so hits are exactly `points - distinct designs`.
    #[test]
    fn pool_incremental_rows_equal_from_scratch_and_prefixes_hit(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
        threads in 1usize..4,
    ) {
        let grid = grid_from(&clock_seeds, &cycle_seeds);
        let points = grid.expand("inc", build_cell).expect("grid expands");
        let designs: usize = grid.cycles_axis().len();

        let registry = Registry::new();
        registry.set_enabled(true);
        // One metered worker: two workers racing on the same missing prefix
        // both (benignly) count a miss, so exact consult arithmetic needs a
        // serial pool. A second pool keeps the random thread count, so the
        // comparison still crosses worker interleavings.
        let mk = |threads, registry| {
            EvaluatorPool::with_telemetry(
                tsmc90::library(),
                HlsOptions::default(),
                PoolOptions {
                    threads,
                    skip_infeasible: true,
                    ..Default::default()
                },
                registry,
            )
        };
        let warm = mk(1, registry.clone());
        let (rows, skipped) = from_scratch(&points);
        for pool in [&warm, &mk(threads, Registry::new())] {
            let a = pool.evaluate(&points).expect("incremental sweep runs");
            prop_assert_eq!(&a.rows, &rows, "prefix sharing changed a row");
            prop_assert_eq!(&a.skipped, &skipped);
        }

        let snap = warm.metrics_snapshot();
        prop_assert_eq!(snap.counter("pipeline.prefix.miss"), Some(designs as u64));
        prop_assert_eq!(
            snap.counter("pipeline.prefix.hit"),
            Some((points.len() - designs) as u64)
        );
        if points.len() > designs {
            prop_assert!(snap.counter("pipeline.prefix.hit").unwrap_or(0) > 0);
        }
    }
}

/// The degenerate `cycles_per_item == 0` point exercises the clamp at the
/// head of evaluation (a zero interval counts as one cycle so throughput
/// stays finite); the clamp must land identically on both paths.
#[test]
fn degenerate_zero_cycles_per_item_clamps_identically() {
    let lib = tsmc90::library();
    let cell = SweepCell {
        clock_ps: 1200,
        cycles: 3,
        pipeline_ii: None,
    };
    let point = DsePoint {
        name: "inc-degenerate".to_string(),
        design: build_cell(&cell).into(),
        clock_ps: cell.clock_ps,
        pipeline_ii: None,
        cycles_per_item: 0,
    };
    let points = vec![point];
    let warm = engine(&lib, 1)
        .evaluate_serial(&points)
        .expect("degenerate point schedules");
    assert_eq!(warm.rows, from_scratch(&points).0);
    let row = &warm.rows[0];
    assert!(
        row.throughput.is_finite() && row.throughput > 0.0,
        "clamped throughput must stay finite, got {}",
        row.throughput
    );
}
