//! The recovery pass's two contracts, property-tested over random DFGs ×
//! random clock/budget grids: every recovered point is timing-feasible
//! (the post-recovery aligned slack is non-negative whenever the
//! fastest-grade start was), and the reported implementation never
//! exceeds the fastest-grade (conventional) binding in area or power.

use adhls_core::dse::DsePoint;
use adhls_core::recover::{
    evaluate_mode_prepared, fastest_min_slack, recover_grades, recover_prepared,
};
use adhls_core::sched::{Flow, HlsOptions};
use adhls_core::{PointMode, PreparedDesign};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, usize, usize)>,
    cycles: u32,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..16),
        1u32..6,
    )
        .prop_map(|(ops, cycles)| Recipe { ops, cycles })
}

/// Random DFG with its latency budget expressed as soft states — the same
/// builder shape the equivalence suites use, so every cycle budget is a
/// distinct design (and prefix).
fn build(r: &Recipe) -> Design {
    let mut b = DesignBuilder::new("rprop");
    let x = b.input("x", 16);
    let y = b.input("y", 16);
    let mut pool = vec![x, y];
    for &(k, ia, ib) in &r.ops {
        let a = pool[ia % pool.len()];
        let c = pool[ib % pool.len()];
        let kind = match k {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Mul,
            _ => OpKind::Xor,
        };
        pool.push(b.binop(kind, a, c, 16));
    }
    b.soft_waits(r.cycles.saturating_sub(1));
    b.write("out", *pool.last().unwrap());
    b.finish().unwrap()
}

fn point(r: &Recipe, clock_ps: u64) -> DsePoint {
    DsePoint {
        name: format!("rprop-c{clock_ps}-l{}", r.cycles),
        design: build(r),
        clock_ps,
        pipeline_ii: None,
        cycles_per_item: r.cycles,
    }
}

/// The conventional-leg options `recover_prepared` derives for a point —
/// what `recover_grades`/`fastest_min_slack` see.
fn conv_opts(p: &DsePoint) -> HlsOptions {
    HlsOptions {
        clock_ps: p.clock_ps,
        flow: Flow::Conventional,
        pipeline_ii: p.pipeline_ii,
        ..HlsOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feasibility: the slack walk never leaves the design infeasible.
    /// From a feasible all-fastest start the recovered delays keep
    /// `min_slack >= 0`; from an infeasible start it refuses to move.
    #[test]
    fn recovered_grades_stay_timing_feasible(
        r in recipe(),
        clock_seeds in prop::collection::vec(0u16..12, 1..4),
    ) {
        let lib = tsmc90::library();
        for &s in &clock_seeds {
            let p = point(&r, 900 + 180 * u64::from(s));
            let prep = PreparedDesign::new(&p.design, &lib).expect("elaboration");
            let opts = conv_opts(&p);
            let g = recover_grades(&prep, &lib, &opts);
            prop_assert_eq!(
                g.min_slack_fastest,
                fastest_min_slack(&prep, &lib, &opts),
                "walk and probe disagree on the starting slack"
            );
            if g.min_slack_fastest >= 0 {
                prop_assert!(
                    g.min_slack >= 0,
                    "recovery left {} infeasible: min slack {} after {} downgrades",
                    p.name, g.min_slack, g.downgrades
                );
            } else {
                prop_assert_eq!(g.downgrades, 0, "downgraded an infeasible start");
            }
        }
    }

    /// Dominance: the reported implementation never exceeds the
    /// fastest-grade binding on either axis, and the row mirrors that
    /// (`a_slack <= a_conv`, non-negative save).
    #[test]
    fn recovered_point_never_exceeds_fastest_binding(
        r in recipe(),
        clock_seeds in prop::collection::vec(0u16..12, 1..4),
    ) {
        let lib = tsmc90::library();
        let base = HlsOptions::default();
        for &s in &clock_seeds {
            let p = point(&r, 900 + 180 * u64::from(s));
            let prep = PreparedDesign::new(&p.design, &lib).expect("elaboration");
            // An overconstrained cell fails its conventional leg in every
            // mode; that is the full evaluator's failure, not recovery's.
            let Ok(out) = recover_prepared(&prep, &p, &lib, &base) else {
                continue;
            };
            prop_assert!(
                out.result.area.total <= out.conv.area.total,
                "{}: recovered area {} > conventional {}",
                p.name, out.result.area.total, out.conv.area.total
            );
            prop_assert!(
                out.power.total <= out.conv_power.total,
                "{}: recovered power {} > conventional {}",
                p.name, out.power.total, out.conv_power.total
            );
            let row = evaluate_mode_prepared(PointMode::Recover, &prep, &p, &lib, &base)
                .expect("recover row follows when the outcome did");
            prop_assert!(row.a_slack <= row.a_conv);
            prop_assert!(row.save_pct >= 0.0);
            prop_assert!((row.a_conv - out.conv.area.total).abs() < 1e-9);
            prop_assert!((row.a_slack - out.result.area.total).abs() < 1e-9);
        }
    }

    /// Determinism and auto-dispatch: two walks agree exactly, and an
    /// auto-mode row is bit-identical to whichever of recover/full its
    /// headroom probe selects.
    #[test]
    fn recovery_is_deterministic_and_auto_dispatches(
        r in recipe(),
        clock_seed in 0u16..12,
    ) {
        let lib = tsmc90::library();
        let base = HlsOptions::default();
        let p = point(&r, 900 + 180 * u64::from(clock_seed));
        let prep = PreparedDesign::new(&p.design, &lib).expect("elaboration");
        let opts = conv_opts(&p);
        let g1 = recover_grades(&prep, &lib, &opts);
        let g2 = recover_grades(&prep, &lib, &opts);
        prop_assert_eq!(g1.grade_idx, g2.grade_idx);
        prop_assert_eq!(g1.delays, g2.delays);
        prop_assert_eq!(g1.downgrades, g2.downgrades);

        // Replay auto's documented policy with the public pieces: no
        // headroom or a recovery error → the full row; clean recovery →
        // the recovered row; suspect recovery → whichever of the two
        // implementations is better (area, then power; recovery survives
        // a full-synthesis failure).
        let auto = evaluate_mode_prepared(PointMode::Auto, &prep, &p, &lib, &base);
        let full = || evaluate_mode_prepared(PointMode::Full, &prep, &p, &lib, &base);
        let expect = if fastest_min_slack(&prep, &lib, &opts) > 0 {
            match recover_prepared(&prep, &p, &lib, &base) {
                Err(_) => full(),
                Ok(out) => {
                    let rec = evaluate_mode_prepared(PointMode::Recover, &prep, &p, &lib, &base)
                        .expect("recover row follows when the outcome did");
                    if !out.suspect() {
                        Ok(rec)
                    } else {
                        match full() {
                            Ok(f)
                                if f.a_slack < rec.a_slack
                                    || (f.a_slack == rec.a_slack
                                        && f.power.total < rec.power.total) =>
                            {
                                Ok(f)
                            }
                            _ => Ok(rec),
                        }
                    }
                }
            }
        } else {
            full()
        };
        match (auto, expect) {
            (Ok(a), Ok(e)) => prop_assert_eq!(a, e, "auto row diverged from its dispatch"),
            (Err(a), Err(e)) => prop_assert_eq!(a.to_string(), e.to_string()),
            (a, e) => prop_assert!(false, "auto {a:?} vs dispatched {e:?}"),
        }
    }
}
