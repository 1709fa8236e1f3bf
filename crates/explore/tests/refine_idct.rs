//! The acceptance bar on the paper's own workload: adaptive refinement of
//! an IDCT clock × latency grid reaches a front within the gap tolerance
//! of the exhaustive grid's front while evaluating measurably fewer cells
//! — once in the default (area, latency) plane, once power-aware in
//! (area, power).
//!
//! "Within the gap tolerance" is measured where refinement steers: the
//! selected objective space's plane, normalized by the exhaustive front's
//! bounding box. Both directions are asserted — nothing the exact sweep
//! found is missed by more than the tolerance, and nothing the refinement
//! kept is beaten by more than the tolerance.
//!
//! The 1-D 8-point IDCT keeps a single scheduling run cheap enough for a
//! 70-cell exhaustive reference in debug-profile CI; the 2-D kernel has
//! the same axes and is exercised by the benches.

use adhls_core::dse::DseRow;
use adhls_core::sched::HlsOptions;
use adhls_explore::constraint::Constraint;
use adhls_explore::pareto::{
    pareto_front, pareto_front_in, tradeoff_staircase, tradeoff_staircase_in,
    tradeoff_staircase_in_constrained, ObjectiveSpace,
};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, refine_multi, RefineOptions, RefineResult};
use adhls_explore::sweep::SweepCell;
use adhls_explore::SweepGrid;
use adhls_ir::Design;
use adhls_reslib::tsmc90;
use adhls_workloads::idct;

fn idct_cell(cell: &SweepCell) -> Design {
    idct::build_1d(cell.cycles)
}

fn idct_grid() -> SweepGrid {
    SweepGrid::new()
        .clocks_ps([1400, 1550, 1700, 1850, 2000, 2200, 2400, 2600, 2900, 3200])
        .cycles([4, 6, 8, 10, 12, 14, 16])
}

fn idct_pool() -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 0, // all cores — the sweep and refinement share the cache
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

/// Asserts the refined run ε-matches the exhaustive reference in `space`'s
/// plane, both directions, with the tolerance box normalized over
/// `box_rows`'s plane extent:
///
/// * **soundness** — no point on the refined staircase is beaten by an
///   exhaustive row by more than the tolerance on the plane axes (the
///   full front legitimately keeps plane-beaten points — they win on an
///   unselected axis — so soundness is a staircase property),
/// * **completeness** — every `cover_rows` point is matched by a refined
///   staircase point no more than the tolerance worse on both plane axes.
fn assert_plane_eps_equivalence(
    space: &ObjectiveSpace,
    ex_rows: &[DseRow],
    box_rows: &[DseRow],
    cover_rows: &[&DseRow],
    refined: &RefineResult,
    gap_tol: f64,
) {
    let (p, s) = space.plane();
    let value =
        |r: &DseRow, axis: adhls_explore::Objective| axis.value(&adhls_explore::objectives(r));
    let (mut pmin, mut pmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut smin, mut smax) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in box_rows {
        pmin = pmin.min(value(r, p));
        pmax = pmax.max(value(r, p));
        smin = smin.min(value(r, s));
        smax = smax.max(value(r, s));
    }
    let ptol = (pmax - pmin).max(1e-9) * gap_tol + 1e-9;
    let stol = (smax - smin).max(1e-9) * gap_tol + 1e-9;

    let ad_stairs = tradeoff_staircase_in(space, &refined.rows);
    assert!(!ad_stairs.is_empty());
    for a in &ad_stairs {
        let beaten = ex_rows.iter().find(|e| {
            value(e, p) <= value(a, p)
                && value(e, s) <= value(a, s)
                && (value(a, p) - value(e, p) > ptol || value(a, s) - value(e, s) > stol)
        });
        assert!(
            beaten.is_none(),
            "refined ({space}) staircase point {} is beaten beyond the tolerance by {}",
            a.name,
            beaten.map_or(String::new(), |e| e.name.clone())
        );
    }
    for e in cover_rows {
        let covered = ad_stairs
            .iter()
            .any(|a| value(a, p) <= value(e, p) + ptol && value(a, s) <= value(e, s) + stol);
        assert!(
            covered,
            "exhaustive ({space}) front point {} is not ε-covered",
            e.name
        );
    }
}

#[test]
fn idct_adaptive_front_matches_exhaustive_within_tolerance_with_fewer_evals() {
    const GAP_TOL: f64 = 0.05;
    let grid = idct_grid();
    let grid_cells = grid.checked_len().expect("grid counts");
    assert_eq!(grid_cells, 70);

    let pool = idct_pool();

    // Exhaustive reference through the same pool.
    let points = grid.expand("idct", idct_cell).expect("grid expands");
    let ex = pool.evaluate(&points).expect("exhaustive sweep runs");
    assert!(
        ex.rows.len() >= 60,
        "most IDCT cells schedule, got {}",
        ex.rows.len()
    );
    let ex_front = pareto_front(&ex.rows);
    assert!(!ex_front.is_empty());

    let r = refine(
        &pool,
        &grid,
        "idct",
        idct_cell,
        &RefineOptions {
            gap_tol: GAP_TOL,
            ..Default::default()
        },
    )
    .expect("refinement runs");

    // Measurably fewer evaluations than the exhaustive grid.
    assert!(
        r.evaluated * 3 <= grid_cells * 2,
        "adaptive evaluated {} of {} cells — not measurably fewer",
        r.evaluated,
        grid_cells
    );

    // ε-equivalence in the default (area, latency) plane: box over the
    // exhaustive four-objective front, cover over that front plus the
    // exhaustive staircase.
    let ex_stairs = tradeoff_staircase(&ex.rows);
    let cover: Vec<&DseRow> = ex_front.iter().chain(ex_stairs.iter()).collect();
    assert_plane_eps_equivalence(
        &ObjectiveSpace::default(),
        &ex.rows,
        &ex_front,
        &cover,
        &r,
        GAP_TOL,
    );
}

/// The same acceptance bar in the power-aware plane: `--objectives
/// area,power` refinement of the 70-cell IDCT-1D grid converges with
/// measurably fewer evaluations than the exhaustive sweep while its front
/// ε-covers the exhaustive (area, power) front in both directions.
#[test]
fn idct_adaptive_power_front_matches_exhaustive_within_tolerance_with_fewer_evals() {
    const GAP_TOL: f64 = 0.05;
    let space = ObjectiveSpace::parse("area,power").expect("valid plane");
    let grid = idct_grid();
    let grid_cells = grid.checked_len().expect("grid counts");
    assert_eq!(grid_cells, 70);

    let pool = idct_pool();

    // Exhaustive reference through the same pool.
    let points = grid.expand("idct", idct_cell).expect("grid expands");
    let ex = pool.evaluate(&points).expect("exhaustive sweep runs");
    let ex_front = pareto_front_in(&space, &ex.rows);
    assert!(!ex_front.is_empty());

    let r = refine(
        &pool,
        &grid,
        "idct",
        idct_cell,
        &RefineOptions {
            gap_tol: GAP_TOL,
            objectives: space.clone(),
            ..Default::default()
        },
    )
    .expect("power-aware refinement runs");
    assert_eq!(r.objectives, space);

    // Measurably fewer evaluations than the exhaustive grid.
    assert!(
        r.evaluated * 3 <= grid_cells * 2,
        "adaptive evaluated {} of {} cells — not measurably fewer",
        r.evaluated,
        grid_cells
    );

    // ε-equivalence in the (area, power) plane: box and cover over the
    // exhaustive plane front plus its staircase.
    let ex_stairs = tradeoff_staircase_in(&space, &ex.rows);
    let cover: Vec<&DseRow> = ex_front.iter().chain(ex_stairs.iter()).collect();
    assert_plane_eps_equivalence(&space, &ex.rows, &ex_front, &cover, &r, GAP_TOL);
}

/// The constrained acceptance bar: refining the IDCT-1D grid under
/// `area<=A` / `power<=P` budgets returns **exactly** the feasible slice
/// of the unconstrained plane front — the same staircase an exhaustive
/// sweep plus post-hoc filter produces — while evaluating measurably
/// fewer cells than that sweep, and skipping provably-infeasible cells
/// without evaluation.
#[test]
fn idct_constrained_refine_is_exactly_the_feasible_slice_with_fewer_evals() {
    let grid = idct_grid();
    let grid_cells = grid.checked_len().expect("grid counts");
    assert_eq!(grid_cells, 70);
    // Area and power both bounded, so the space must select all three
    // axes; the steering plane stays the paper's (area, latency).
    let space = ObjectiveSpace::parse("area,latency,power").expect("valid space");

    let pool = idct_pool();
    let points = grid.expand("idct", idct_cell).expect("grid expands");
    let ex = pool.evaluate(&points).expect("exhaustive sweep runs");

    // Budgets cutting through the middle of the plane: the median front
    // area, and the 75th-percentile front power.
    let ex_front = pareto_front_in(&space, &ex.rows);
    let mut areas: Vec<f64> = ex_front.iter().map(|r| r.a_slack).collect();
    areas.sort_by(f64::total_cmp);
    let a_bound = areas[areas.len() / 2];
    let mut powers: Vec<f64> = ex_front.iter().map(|r| r.power.total).collect();
    powers.sort_by(f64::total_cmp);
    let p_bound = powers[3 * powers.len() / 4];
    let cs = vec![
        Constraint::parse(&format!("area<={a_bound}")).unwrap(),
        Constraint::parse(&format!("power<={p_bound}")).unwrap(),
    ];

    // The reference: exhaustive sweep + post-hoc filter of the
    // unconstrained plane staircase.
    let feasible_slice: Vec<&DseRow> = tradeoff_staircase_in(&space, &ex.rows)
        .iter()
        .map(|r| ex.rows.iter().find(|e| e.name == r.name).unwrap())
        .filter(|r| r.a_slack <= a_bound && r.power.total <= p_bound)
        .collect();
    assert!(
        feasible_slice.len() >= 2,
        "the bounds must leave a nontrivial slice for this test to mean anything"
    );

    let r = refine(
        &pool,
        &grid,
        "idct",
        idct_cell,
        &RefineOptions {
            gap_tol: 0.0,
            objectives: space.clone(),
            constraints: cs.clone(),
            ..Default::default()
        },
    )
    .expect("constrained refinement runs");
    assert_eq!(r.constraints, cs);

    // Exactly the feasible slice — same rows, same order.
    let refined_slice = tradeoff_staircase_in_constrained(&space, &cs, &r.rows);
    let got: Vec<&str> = refined_slice.iter().map(|r| r.name.as_str()).collect();
    let want: Vec<&str> = feasible_slice.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(got, want, "constrained refine != exhaustive sweep + filter");
    // ... and bit-identical rows, not merely the same names.
    for row in &refined_slice {
        assert_eq!(
            ex.rows.iter().find(|e| e.name == row.name),
            Some(row),
            "{} diverged from the exhaustive sweep",
            row.name
        );
    }

    // Measurably fewer evaluations than exhaustive sweep + filter, with
    // real work saved by the constraint-aware pruning.
    assert!(
        r.evaluated * 3 <= grid_cells * 2,
        "constrained refine evaluated {} of {} cells — not measurably fewer",
        r.evaluated,
        grid_cells
    );
    assert!(r.pruned > 0, "the optimistic budget prune never fired");
    // Every reported front row is feasible.
    for row in &r.front {
        assert!(
            row.a_slack <= a_bound && row.power.total <= p_bound,
            "{}",
            row.name
        );
    }
}

/// The multi-plane acceptance bar: one `refine_multi` pass over
/// `[area,latency]` + `[area,power]` performs **no duplicate HLS
/// evaluations** across the planes — the pool's cache counters prove
/// every cell ran once — and each plane's converged staircase is
/// ε-equivalent to its dedicated single-plane run.
#[test]
fn idct_multi_plane_pass_shares_evaluations_and_matches_single_plane_runs() {
    const GAP_TOL: f64 = 0.05;
    let grid = idct_grid();
    let planes = ObjectiveSpace::parse_multi("area,latency;area,power").expect("valid planes");
    let opts = RefineOptions {
        gap_tol: GAP_TOL,
        ..Default::default()
    };

    // A fresh pool, so its cache counters describe this pass alone.
    let pool = idct_pool();
    let multi = refine_multi(&pool, &grid, "idct", idct_cell, &opts, &planes)
        .expect("multi-plane refinement runs");
    let stats = pool.cache_stats();
    assert_eq!(
        stats.hits + stats.coalesced,
        0,
        "a duplicate evaluation hit the cache — cells were submitted twice"
    );
    assert_eq!(
        stats.misses, multi.evaluated as u64,
        "every evaluation ran HLS exactly once"
    );
    assert!(
        multi.evaluated < multi.grid_cells,
        "one shared pass stays under the exhaustive grid: {} of {}",
        multi.evaluated,
        multi.grid_cells
    );

    // Each plane ε-matches its dedicated single-plane run (fresh pools,
    // so the runs are independent).
    for (pi, plane) in planes.iter().enumerate() {
        let single = refine(
            &idct_pool(),
            &grid,
            "idct",
            idct_cell,
            &RefineOptions {
                objectives: plane.clone(),
                ..opts.clone()
            },
        )
        .expect("single-plane refinement runs");
        let cover_rows = tradeoff_staircase_in(plane, &single.rows);
        let cover: Vec<&DseRow> = cover_rows.iter().collect();
        assert_plane_eps_equivalence(
            plane,
            &single.rows,
            &single.front,
            &cover,
            &multi.planes[pi],
            GAP_TOL,
        );
        // The shared pass never does worse on evaluations than running
        // this plane's refinement on top of the other's would.
        assert!(multi.evaluated <= multi.grid_cells);
    }
}
