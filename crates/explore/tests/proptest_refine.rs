//! Property-based tests for adaptive refinement against the exhaustive
//! grid: every refined cell is a grid cell (bit-identical rows), the
//! refined front ε-covers the exhaustive front, budgets are hard caps, and
//! the whole procedure is deterministic.

use adhls_core::sched::HlsOptions;
use adhls_explore::pareto::{objectives, pareto_front};
use adhls_explore::refine::{refine, RefineOptions};
use adhls_explore::sweep::SweepCell;
use adhls_explore::{Engine, EngineOptions, SweepGrid};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use proptest::prelude::*;

/// Cheap synthetic workload with a real area/latency tradeoff: a
/// multiply-multiply-add chain whose latency budget is baked in as soft
/// states, so looser budgets let the slack flow downgrade resources.
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

fn engine(lib: &adhls_reslib::Library) -> Engine<'_> {
    Engine::with_options(
        lib,
        HlsOptions::default(),
        EngineOptions {
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

/// Builds a grid from raw axis seeds (quantized so duplicate values — and
/// therefore the dedup path — appear regularly).
fn grid_from(clock_seeds: &[u16], cycle_seeds: &[u16]) -> SweepGrid {
    let clocks: Vec<u64> = clock_seeds
        .iter()
        .map(|&s| 1100 + 140 * u64::from(s % 10))
        .collect();
    let cycles: Vec<u32> = cycle_seeds.iter().map(|&s| 2 + u32::from(s % 7)).collect();
    SweepGrid::new().clocks_ps(clocks).cycles(cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every adaptive row is bit-identical to the exhaustive sweep's row
    /// for the same cell, and refinement never evaluates more cells than
    /// the grid holds.
    #[test]
    fn adaptive_rows_are_a_subset_of_the_exhaustive_sweep(
        clock_seeds in prop::collection::vec(0u16..10, 2..6),
        cycle_seeds in prop::collection::vec(0u16..7, 2..6),
    ) {
        let lib = tsmc90::library();
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let r = refine(&engine(&lib), &g, "syn", build_cell, &RefineOptions::default())
            .expect("refinement runs");
        let exhaustive = g.expand("syn", build_cell).expect("grid expands");
        let ex_rows = engine(&lib).evaluate(&exhaustive).expect("sweep runs").rows;
        prop_assert!(r.evaluated <= r.grid_cells);
        for row in &r.rows {
            let twin = ex_rows.iter().find(|e| e.name == row.name);
            prop_assert!(twin.is_some(), "{} is not an exhaustive grid cell", row.name);
            prop_assert_eq!(row, twin.unwrap(), "row diverged from the exhaustive sweep");
        }
    }

    /// The refined front ε-covers the exhaustive front: every exhaustive
    /// front point is matched by a refined front point within the gap
    /// tolerance (normalized area/latency box of the exhaustive front), or
    /// dominated-or-equalled outright.
    #[test]
    fn adaptive_front_is_subset_or_better_within_tolerance(
        clock_seeds in prop::collection::vec(0u16..10, 2..6),
        cycle_seeds in prop::collection::vec(0u16..7, 2..6),
        tol_pick in 0u16..3,
    ) {
        let gap_tol = [0.05, 0.15, 0.3][tol_pick as usize];
        let lib = tsmc90::library();
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions { gap_tol, ..Default::default() },
        )
        .expect("refinement runs");
        let exhaustive = g.expand("syn", build_cell).expect("grid expands");
        let ex_rows = engine(&lib).evaluate(&exhaustive).expect("sweep runs").rows;
        let ex_front = pareto_front(&ex_rows);
        prop_assert!(!ex_front.is_empty());
        // Normalization box of the exhaustive front.
        let (mut amin, mut amax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lmin, mut lmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for o in ex_front.iter().map(objectives) {
            amin = amin.min(o.area);
            amax = amax.max(o.area);
            lmin = lmin.min(o.latency_ps);
            lmax = lmax.max(o.latency_ps);
        }
        let ar = (amax - amin).max(1e-9);
        let lr = (lmax - lmin).max(1e-9);
        for e in &ex_front {
            let oe = objectives(e);
            let covered = r.front.iter().any(|a| {
                let oa = objectives(a);
                oa.area <= oe.area + gap_tol * ar + 1e-9
                    && oa.latency_ps <= oe.latency_ps + gap_tol * lr + 1e-9
            });
            prop_assert!(
                covered,
                "exhaustive front point {} is not ε-covered (tol {})",
                e.name,
                gap_tol
            );
        }
    }

    /// Refinement is a pure function of (grid, options): two runs on fresh
    /// engines agree on everything, including the trace.
    #[test]
    fn refinement_is_deterministic(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
    ) {
        let lib = tsmc90::library();
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let opts = RefineOptions { gap_tol: 0.1, ..Default::default() };
        let a = refine(&engine(&lib), &g, "syn", build_cell, &opts).expect("first run");
        let b = refine(&engine(&lib), &g, "syn", build_cell, &opts).expect("second run");
        prop_assert_eq!(a, b);
    }

    /// Constrained refinement equals post-hoc filtering **on the same
    /// evaluations**: the reported front is exactly the feasible slice of
    /// the unconstrained four-objective front over the run's own rows —
    /// the window clipping and infeasibility pruning save evaluations, but
    /// never change what the evaluations mean. Every evaluated row is
    /// still a cell of the exhaustive grid, and every reported row is
    /// feasible.
    #[test]
    fn constrained_refine_equals_post_hoc_filter_on_same_evaluations(
        clock_seeds in prop::collection::vec(0u16..10, 2..6),
        cycle_seeds in prop::collection::vec(0u16..7, 2..6),
        lat_seed in 2u16..14,
    ) {
        use adhls_explore::constraint::Constraint;
        use adhls_explore::pareto::{pareto_front_in_constrained, ObjectiveSpace};
        let lib = tsmc90::library();
        let g = grid_from(&clock_seeds, &cycle_seeds);
        // An improving latency budget cutting through the grid's range
        // (cells run at clock*cycles ps, clocks 1100..2360, cycles 2..8).
        let bound = f64::from(lat_seed) * 1500.0;
        let cs = vec![Constraint::parse(&format!("latency<={bound}")).unwrap()];
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions { gap_tol: 0.0, constraints: cs.clone(), ..Default::default() },
        )
        .expect("constrained refinement runs");
        // The front is the post-hoc constrained extraction of its own rows
        // — which, for improving bounds, is the feasible slice of the
        // unconstrained front over the same rows.
        let full = ObjectiveSpace::full();
        prop_assert_eq!(&r.front, &pareto_front_in_constrained(&full, &cs, &r.rows));
        let post_hoc: Vec<_> = pareto_front(&r.rows)
            .into_iter()
            .filter(|row| row.latency_ps <= bound)
            .collect();
        prop_assert_eq!(&r.front, &post_hoc);
        // Nothing infeasible was ever evaluated (the latency of a cell is
        // closed-form, so infeasible cells are provably skippable)...
        for row in &r.rows {
            prop_assert!(row.latency_ps <= bound, "{} violates the budget", row.name);
        }
        // ...and every evaluated row is bit-identical to the exhaustive
        // sweep's row for the same cell.
        let exhaustive = g.expand("syn", build_cell).expect("grid expands");
        let ex_rows = engine(&lib).evaluate(&exhaustive).expect("sweep").rows;
        for row in &r.rows {
            prop_assert!(
                ex_rows.iter().any(|e| e == row),
                "{} diverged from the exhaustive sweep",
                row.name
            );
        }
        prop_assert!(r.evaluated <= r.grid_cells);
    }

    /// The budget is a hard cap on submitted cells.
    #[test]
    fn budget_is_a_hard_cap(
        clock_seeds in prop::collection::vec(0u16..10, 2..6),
        cycle_seeds in prop::collection::vec(0u16..7, 2..6),
        budget in 1usize..14,
    ) {
        let lib = tsmc90::library();
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions { budget, gap_tol: 0.0, ..Default::default() },
        )
        .expect("refinement runs");
        prop_assert!(
            r.evaluated <= budget,
            "budget {} exceeded: {} cells submitted",
            budget,
            r.evaluated
        );
    }
}
