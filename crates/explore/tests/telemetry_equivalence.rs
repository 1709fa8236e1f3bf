//! Telemetry observes, never steers: every result the stack produces must
//! be bit-identical with the meters on and off. These properties drive
//! the same sweep and refinement through a metered pool and a quiet one
//! and require byte-equal rows, fronts, and traces — the contract that
//! lets `--profile`, the serve tier's always-on registry, and the
//! recording harness exist without a determinism caveat.

use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, RefineOptions};
use adhls_explore::sweep::SweepCell;
use adhls_explore::SweepGrid;
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use adhls_telemetry::Registry;
use proptest::prelude::*;

/// Cheap synthetic workload with a real area/latency tradeoff (the same
/// shape `proptest_refine` uses): a multiply-multiply-add chain whose
/// latency budget arrives as soft states.
fn build_cell(cell: &SweepCell) -> Design {
    let mut b = DesignBuilder::new("syn");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.binop(OpKind::Mul, x, y, 8);
    let m2 = b.binop(OpKind::Mul, m1, x, 8);
    let a = b.binop(OpKind::Add, m1, m2, 16);
    b.soft_waits(cell.cycles.saturating_sub(1));
    b.write("z", a);
    b.finish().unwrap()
}

fn grid_from(clock_seeds: &[u16], cycle_seeds: &[u16]) -> SweepGrid {
    let clocks: Vec<u64> = clock_seeds
        .iter()
        .map(|&s| 1100 + 140 * u64::from(s % 10))
        .collect();
    let cycles: Vec<u32> = cycle_seeds.iter().map(|&s| 2 + u32::from(s % 7)).collect();
    SweepGrid::new().clocks_ps(clocks).cycles(cycles)
}

fn pool(threads: usize, registry: Registry) -> EvaluatorPool {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A metered sweep returns byte-identical rows and skip lists, and the
    /// meters really were live (phase counts match the work done).
    #[test]
    fn sweep_rows_are_bit_identical_with_telemetry_on(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
        threads in 1usize..4,
    ) {
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let points = g.expand("syn", build_cell).expect("grid expands");

        let metered_registry = Registry::new();
        metered_registry.set_enabled(true);
        let metered = pool(threads, metered_registry);
        let quiet = pool(threads, Registry::new());

        let loud = metered.evaluate(&points).expect("metered sweep runs");
        let calm = quiet.evaluate(&points).expect("quiet sweep runs");
        prop_assert_eq!(&loud.rows, &calm.rows);
        prop_assert_eq!(&loud.skipped, &calm.skipped);

        // The comparison is only meaningful if the meters actually ran.
        // Duplicate grid cells answer from the pool's memo cache without
        // re-running the pipeline, so the span count is the miss count.
        let snap = metered.metrics_snapshot();
        prop_assert!(!loud.rows.is_empty());
        prop_assert_eq!(
            snap.histogram("pipeline.evaluate").map(|h| h.count),
            snap.counter("cache.misses")
        );
        prop_assert!(quiet.metrics_snapshot().histogram("pipeline.evaluate").is_none());
    }

    /// A metered refinement walks the same path: rows, front, prune
    /// counts, and the per-round trace all byte-equal, and the refine
    /// counters reconcile with the result's own accounting.
    #[test]
    fn refinement_is_bit_identical_with_telemetry_on(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
    ) {
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let opts = RefineOptions::default();

        let metered_registry = Registry::new();
        metered_registry.set_enabled(true);
        let metered = pool(2, metered_registry.clone());
        // The refine driver runs on this thread; route its counters to the
        // pool's registry the same way the server's dispatch does.
        let loud = {
            let _install = adhls_telemetry::install(&metered_registry);
            refine(&metered, &g, "syn", build_cell, &opts).expect("metered refine runs")
        };
        let calm = refine(&pool(2, Registry::new()), &g, "syn", build_cell, &opts)
            .expect("quiet refine runs");

        prop_assert_eq!(&loud.rows, &calm.rows);
        prop_assert_eq!(&loud.front, &calm.front);
        prop_assert_eq!(&loud.trace, &calm.trace);
        prop_assert_eq!(loud.evaluated, calm.evaluated);
        prop_assert_eq!(loud.pruned, calm.pruned);

        let snap = metered.metrics_snapshot();
        prop_assert_eq!(
            snap.counter("refine.cells_evaluated"),
            Some(loud.evaluated as u64)
        );
        prop_assert_eq!(snap.counter("refine.cells_pruned"), Some(loud.pruned as u64));
        // One round-span sample per evaluated round, seed included.
        prop_assert_eq!(
            snap.histogram("refine.round.area_latency").map(|h| h.count),
            Some(loud.trace.len() as u64)
        );
    }
}
