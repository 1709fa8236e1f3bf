//! The recovery mode's acceptance bar on the paper's workloads: over the
//! IDCT-1D clock × latency grid and a FIR taps × clock × budget grid,
//!
//! * every `recover`-mode row dominates-or-matches its conventional
//!   (fastest-grade) baseline — the mode's hard guarantee,
//! * every `auto`-mode row dominates-or-matches full synthesis at equal
//!   latency (bit-exact on IDCT; within a small tolerance on the one FIR
//!   cell where a clean-looking recovery is ~2% off), while invoking full
//!   synthesis on measurably fewer cells (`pipeline.recover.fallback`
//!   pinned against the grid size),
//! * adaptive refinement in auto mode reaches the same ε-front as full
//!   mode with fewer full syntheses.
//!
//! The per-cell walk-feasibility and conv-dominance *properties* live in
//! `recovery_feasibility.rs`; this suite is the fixed-workload
//! acceptance check, mirroring `refine_idct.rs`.

use std::collections::HashMap;

use adhls_core::dse::{DsePoint, DseRow};
use adhls_core::sched::HlsOptions;
use adhls_core::PointMode;
use adhls_explore::pareto::{pareto_front, tradeoff_staircase_in, ObjectiveSpace};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, RefineOptions, RefineResult};
use adhls_explore::sweep::SweepCell;
use adhls_explore::SweepGrid;
use adhls_ir::Design;
use adhls_reslib::tsmc90;
use adhls_telemetry::Registry;
use adhls_workloads::{fir, idct};

fn idct_cell(cell: &SweepCell) -> Design {
    idct::build_1d(cell.cycles)
}

fn idct_grid() -> SweepGrid {
    SweepGrid::new()
        .clocks_ps([1400, 1550, 1700, 1850, 2000, 2200, 2400, 2600, 2900, 3200])
        .cycles([4, 6, 8, 10, 12, 14, 16])
}

/// FIR fleet over taps × clocks × cycle budgets (the streaming workload's
/// axes), with grid-style names so rows key cleanly.
fn fir_points() -> Vec<DsePoint> {
    let base = [3i64, -5, 11, 7, 2, -9, 6, 1];
    let mut pts = Vec::new();
    for &taps in &[2usize, 4, 8] {
        for &clock in &[1400u64, 1700, 2000, 2400] {
            for &cycles in &[6u32, 10, 14] {
                let cfg = fir::FirConfig {
                    coeffs: base[..taps].to_vec(),
                    cycles,
                    ..Default::default()
                };
                pts.push(DsePoint {
                    name: format!("fir{taps}-c{clock}-l{cycles}"),
                    design: fir::build(&cfg).into(),
                    clock_ps: clock,
                    pipeline_ii: None,
                    cycles_per_item: cycles,
                });
            }
        }
    }
    pts
}

/// A metered pool; each test gives every mode its own pool and registry so
/// counters never mix.
fn metered_pool() -> (EvaluatorPool, Registry) {
    let registry = Registry::new();
    registry.set_enabled(true);
    let pool = EvaluatorPool::with_telemetry(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 0,
            skip_infeasible: true,
            ..Default::default()
        },
        registry.clone(),
    );
    (pool, registry)
}

fn by_name(rows: &[DseRow]) -> HashMap<&str, &DseRow> {
    rows.iter().map(|r| (r.name.as_str(), r)).collect()
}

/// Evaluates `points` under full, recover, and auto modes and runs the
/// shared per-cell dominance assertions; returns the three row sets plus
/// the auto pool's counter snapshot.
fn evaluate_three_modes(
    points: &[DsePoint],
    auto_vs_full_tol: f64,
) -> (
    Vec<DseRow>,
    Vec<DseRow>,
    Vec<DseRow>,
    adhls_telemetry::Snapshot,
) {
    let (full_pool, full_reg) = metered_pool();
    let (rec_pool, _) = metered_pool();
    let (auto_pool, auto_reg) = metered_pool();

    let full = full_pool
        .evaluate_mode(points, PointMode::Full)
        .expect("full sweep runs");
    let rec = rec_pool
        .evaluate_mode(points, PointMode::Recover)
        .expect("recover sweep runs");
    let auto = auto_pool
        .evaluate_mode(points, PointMode::Auto)
        .expect("auto sweep runs");

    // Both grids schedule everywhere in every mode (the conventional leg
    // gates all three), so the row sets must line up cell for cell.
    assert_eq!(full.rows.len(), points.len(), "full skipped cells");
    assert_eq!(rec.rows.len(), points.len(), "recover skipped cells");
    assert_eq!(auto.rows.len(), points.len(), "auto skipped cells");

    let full_rows = by_name(&full.rows);
    for r in &rec.rows {
        // The mode's hard guarantee: never worse than the fastest-grade
        // conventional baseline, and the baseline itself is the same one
        // full synthesis reports.
        assert!(
            r.a_slack <= r.a_conv + 1e-9,
            "{}: recovered area {} exceeds conventional {}",
            r.name,
            r.a_slack,
            r.a_conv
        );
        assert!(r.save_pct >= -1e-9, "{}: negative save", r.name);
        let f = full_rows[r.name.as_str()];
        assert!(
            (r.a_conv - f.a_conv).abs() < 1e-9,
            "{}: conventional baselines diverge across modes",
            r.name
        );
    }
    for a in &auto.rows {
        // Dominate-or-match full synthesis at equal latency (same cell —
        // same clock and cycle budget).
        let f = full_rows[a.name.as_str()];
        assert!(
            a.a_slack <= f.a_slack * (1.0 + auto_vs_full_tol) + 1e-9,
            "{}: auto area {} vs full {} exceeds tolerance {}",
            a.name,
            a.a_slack,
            f.a_slack,
            auto_vs_full_tol
        );
    }

    // Full synthesis never touches the recovery machinery.
    let full_snap = full_reg.snapshot();
    assert_eq!(full_snap.counter("pipeline.recover.used"), None);
    assert_eq!(full_snap.counter("pipeline.recover.fallback"), None);

    (full.rows, rec.rows, auto.rows, auto_reg.snapshot())
}

/// IDCT-1D, the paper's own kernel: recovery dominates its baseline on
/// all 70 cells, auto dominates-or-matches full synthesis *bit-exactly*
/// per cell, and auto invoked full synthesis on measurably fewer cells
/// than full mode's 70.
#[test]
fn idct_recovery_dominates_and_auto_matches_full_with_fewer_syntheses() {
    let grid = idct_grid();
    let cells = grid.checked_len().expect("grid counts");
    assert_eq!(cells, 70);
    let points = grid.expand("idct", idct_cell).expect("grid expands");

    let (_full, _rec, _auto, snap) = evaluate_three_modes(&points, 0.0);

    let used = snap.counter("pipeline.recover.used").unwrap_or(0);
    let fallback = snap.counter("pipeline.recover.fallback").unwrap_or(0);
    // Every cell is accounted for: clean recoveries under `used`, full
    // syntheses (no headroom or suspect re-checks) under `fallback`; the
    // two overlap only on suspect cells recovery won.
    assert!(
        used + fallback >= cells as u64,
        "auto counters {used}+{fallback} miss cells"
    );
    // Measurably fewer full syntheses than full mode (the refine bound).
    assert!(
        fallback * 3 <= cells as u64 * 2,
        "auto ran full synthesis on {fallback} of {cells} cells — not measurably fewer"
    );
    // And recovery carried most of the grid.
    assert!(
        used * 2 >= cells as u64,
        "recovery rows won only {used} of {cells} cells"
    );
}

/// The FIR grids: same bars, except one clean-looking cell
/// (`fir8-c2400-l6`) recovers ~2% above full synthesis, so the per-cell
/// auto-vs-full comparison carries a 2.5% tolerance — and the
/// per-latency-class *front* tightens it back to 1%.
#[test]
fn fir_recovery_dominates_and_auto_fronts_match_full() {
    let points = fir_points();
    let cells = points.len() as u64;

    let (full, _rec, auto, snap) = evaluate_three_modes(&points, 0.025);

    // Per (taps, cycles) class — equal latency, best over clocks — the
    // auto front dominates-or-matches the full front within 1%.
    let class_of = |name: &str| {
        let (t, rest) = name.split_once("-c").expect("grid name");
        let (_, l) = rest.split_once("-l").expect("grid name");
        (t.to_string(), l.to_string())
    };
    let mut best_full: HashMap<(String, String), f64> = HashMap::new();
    for r in &full {
        let e = best_full.entry(class_of(&r.name)).or_insert(f64::INFINITY);
        *e = e.min(r.a_slack);
    }
    for (class, f) in &best_full {
        let a = auto
            .iter()
            .filter(|r| &class_of(&r.name) == class)
            .map(|r| r.a_slack)
            .fold(f64::INFINITY, f64::min);
        assert!(
            a <= f * 1.01 + 1e-9,
            "{class:?}: auto front {a} vs full front {f}"
        );
    }

    // FIR cells rarely need the full-synthesis re-check: recovery is
    // clean nearly everywhere, so fallbacks stay a small fraction.
    let fallback = snap.counter("pipeline.recover.fallback").unwrap_or(0);
    assert!(
        fallback * 4 <= cells,
        "auto fell back on {fallback} of {cells} FIR cells"
    );
}

/// ε-front equivalence between refined runs (`assert_plane_eps_equivalence`
/// in `refine_idct.rs`, with the full-mode refinement as the reference):
/// soundness — no auto staircase point is beaten by a full-mode row beyond
/// the tolerance; completeness — every full-mode front point is ε-covered.
fn assert_auto_front_matches_full(full_run: &RefineResult, auto_run: &RefineResult, gap_tol: f64) {
    let space = ObjectiveSpace::default();
    let (p, s) = space.plane();
    let value =
        |r: &DseRow, axis: adhls_explore::Objective| axis.value(&adhls_explore::objectives(r));
    let reference = pareto_front(&full_run.rows);
    let (mut pmin, mut pmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut smin, mut smax) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in &reference {
        pmin = pmin.min(value(r, p));
        pmax = pmax.max(value(r, p));
        smin = smin.min(value(r, s));
        smax = smax.max(value(r, s));
    }
    let ptol = (pmax - pmin).max(1e-9) * gap_tol + 1e-9;
    let stol = (smax - smin).max(1e-9) * gap_tol + 1e-9;

    let stairs = tradeoff_staircase_in(&space, &auto_run.rows);
    assert!(!stairs.is_empty());
    for a in &stairs {
        let beaten = full_run.rows.iter().find(|e| {
            value(e, p) <= value(a, p)
                && value(e, s) <= value(a, s)
                && (value(a, p) - value(e, p) > ptol || value(a, s) - value(e, s) > stol)
        });
        assert!(
            beaten.is_none(),
            "auto staircase point {} is beaten beyond tolerance by full-mode {}",
            a.name,
            beaten.map_or(String::new(), |e| e.name.clone())
        );
    }
    let full_stairs = tradeoff_staircase_in(&space, &full_run.rows);
    let cover: Vec<&DseRow> = reference.iter().chain(full_stairs.iter()).collect();
    for e in cover {
        let covered = stairs
            .iter()
            .any(|a| value(a, p) <= value(e, p) + ptol && value(a, s) <= value(e, s) + stol);
        assert!(
            covered,
            "full-mode front point {} is not ε-covered by auto",
            e.name
        );
    }
}

/// `--adaptive --mode auto` against `--adaptive --mode full` on the IDCT
/// grid: the same ε-front, with fewer full syntheses than the full-mode
/// refinement performed evaluations.
#[test]
fn idct_auto_refinement_reaches_full_front_with_fewer_full_syntheses() {
    const GAP_TOL: f64 = 0.05;
    let grid = idct_grid();
    let refine_with = |mode: PointMode| {
        let (pool, registry) = metered_pool();
        let r = refine(
            &pool,
            &grid,
            "idct",
            idct_cell,
            &RefineOptions {
                gap_tol: GAP_TOL,
                point_mode: mode,
                ..Default::default()
            },
        )
        .expect("refinement runs");
        (r, registry.snapshot())
    };
    let (full_run, full_snap) = refine_with(PointMode::Full);
    let (auto_run, auto_snap) = refine_with(PointMode::Auto);

    assert_auto_front_matches_full(&full_run, &auto_run, GAP_TOL);

    // Full-synthesis invocations: every full-mode evaluation is one; in
    // auto mode only the fallback cells are.
    let fallback = auto_snap.counter("pipeline.recover.fallback").unwrap_or(0);
    assert_eq!(full_snap.counter("pipeline.recover.fallback"), None);
    assert!(
        fallback < full_run.evaluated as u64,
        "auto refinement ran {fallback} full syntheses, full mode ran {}",
        full_run.evaluated
    );
    eprintln!(
        "auto refine: evaluated={} fallback={fallback}; full refine: evaluated={}",
        auto_run.evaluated, full_run.evaluated
    );
}
