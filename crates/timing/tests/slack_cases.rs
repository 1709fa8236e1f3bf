//! Edge-case coverage for the slack analysis surface (`compute_slack`,
//! `SlackResult::min_slack`, `SlackResult::critical_ops`): empty results,
//! all-critical designs, negative slack, and margin-binning boundary
//! behavior.

use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpId, OpKind};
use adhls_timing::slack::{compute_slack, SlackMode, SlackResult};
use adhls_timing::TimedDfg;
use proptest::prelude::*;

/// A straight chain of `n` muls, each `delay_ps` long.
fn chain(n: usize, soft_waits: u32) -> (Design, Vec<OpId>) {
    let mut b = DesignBuilder::new("chain");
    let x = b.input("x", 16);
    let mut ops = Vec::new();
    let mut cur = x;
    for _ in 0..n {
        cur = b.binop(OpKind::Mul, cur, cur, 16);
        ops.push(cur);
    }
    b.soft_waits(soft_waits);
    b.write("out", cur);
    (b.finish().unwrap(), ops)
}

fn timed(d: &Design) -> TimedDfg {
    let (info, spans) = d.analyze().unwrap();
    TimedDfg::build(&d.dfg, &info, &spans).unwrap()
}

/// An empty result (no ops at all) reports `i64::MAX` min slack and an
/// empty critical set for every margin — the documented degenerate
/// behavior for op-free designs.
#[test]
fn empty_result_has_max_min_slack_and_no_critical_ops() {
    let r = SlackResult {
        mode: SlackMode::Aligned,
        clock_ps: 1000,
        arr: Vec::new(),
        req: Vec::new(),
        slack: Vec::new(),
    };
    assert_eq!(r.min_slack(), i64::MAX);
    assert!(r.critical_ops(0).is_empty());
    assert!(r.critical_ops(i64::MAX).is_empty());
}

/// Untimed ids carry `i64::MAX` slack; when every id is untimed the min
/// is `i64::MAX` and binning still returns nothing (the `min == MAX`
/// guard, not the filter, must catch this — `MAX <= MAX + margin` holds).
#[test]
fn all_untimed_ids_bin_to_nothing() {
    let r = SlackResult {
        mode: SlackMode::Plain,
        clock_ps: 500,
        arr: vec![0; 3],
        req: vec![i64::MAX; 3],
        slack: vec![i64::MAX; 3],
    };
    assert_eq!(r.min_slack(), i64::MAX);
    assert!(r.critical_ops(0).is_empty());
}

/// A uniform chain is all-critical: every timed op shares the minimum
/// slack, so zero-margin binning returns the whole chain.
#[test]
fn uniform_chain_is_all_critical() {
    let (d, ops) = chain(3, 0);
    let tdfg = timed(&d);
    let mut delays = vec![0i64; d.dfg.len_ids()];
    for o in &ops {
        delays[o.0 as usize] = 300;
    }
    let r = compute_slack(&tdfg, &delays, 1000, SlackMode::Plain);
    let crit = r.critical_ops(0);
    for o in &ops {
        assert!(crit.contains(o), "{o} missing from the critical set");
        assert_eq!(r.slack(*o), r.min_slack());
    }
}

/// Negative slack (an overconstrained chain) is reported, not clamped:
/// the min goes negative and the critical set at margin 0 holds exactly
/// the ops sitting at that negative minimum.
#[test]
fn negative_slack_is_reported_and_binnable() {
    let (d, ops) = chain(3, 0);
    let tdfg = timed(&d);
    let mut delays = vec![0i64; d.dfg.len_ids()];
    for o in &ops {
        delays[o.0 as usize] = 600;
    }
    // Three 600ps ops in one 1000ps cycle: 800ps over budget.
    let r = compute_slack(&tdfg, &delays, 1000, SlackMode::Aligned);
    assert!(
        r.min_slack() < 0,
        "expected infeasible, got {}",
        r.min_slack()
    );
    let crit = r.critical_ops(0);
    assert!(!crit.is_empty());
    for o in &crit {
        assert_eq!(r.slack(*o), r.min_slack());
    }
}

/// `critical_ops(i64::MAX)` must not overflow (`saturating_add`) and,
/// with a negative minimum, returns every timed op — including untimed
/// `i64::MAX` entries would be wrong only if the margin wrapped.
#[test]
fn huge_margin_saturates_instead_of_wrapping() {
    let (d, ops) = chain(2, 0);
    let tdfg = timed(&d);
    let mut delays = vec![0i64; d.dfg.len_ids()];
    for o in &ops {
        delays[o.0 as usize] = 900;
    }
    let r = compute_slack(&tdfg, &delays, 1000, SlackMode::Aligned);
    assert!(r.min_slack() < 0);
    let all = r.critical_ops(i64::MAX);
    // Saturation makes the bound MAX, so every id (timed or not) passes
    // the filter; the point is that it does not wrap to a tiny bound.
    assert_eq!(all.len(), d.dfg.len_ids());
    assert!(r.critical_ops(0).len() <= all.len());
}

#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, usize, usize)>,
    soft_states: u32,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..24),
        0u32..4,
    )
        .prop_map(|(ops, soft_states)| Recipe { ops, soft_states })
}

fn build(r: &Recipe) -> Design {
    let mut b = DesignBuilder::new("sprop");
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
    b.soft_waits(r.soft_states);
    b.write("out", *pool.last().unwrap());
    b.finish().unwrap()
}

fn delays_from(seed: &[u16], n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| i64::from(seed[i % seed.len()] % 1500) + 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `min_slack` is exactly the minimum over timed ops (untimed ids sit
    /// at `i64::MAX` and never win), in both modes.
    #[test]
    fn min_slack_is_the_timed_minimum(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        clock in 300i64..3000,
    ) {
        let d = build(&r);
        let tdfg = timed(&d);
        let delays = delays_from(&dseed, d.dfg.len_ids());
        for mode in [SlackMode::Plain, SlackMode::Aligned] {
            let res = compute_slack(&tdfg, &delays, clock, mode);
            let timed_min = d
                .dfg
                .op_ids()
                .filter(|&o| tdfg.is_timed(o))
                .map(|o| res.slack(o))
                .min()
                .unwrap_or(i64::MAX);
            prop_assert_eq!(res.min_slack(), timed_min, "{:?}", mode);
        }
    }

    /// Binning is sound and monotone: every binned op's slack is within
    /// the margin of the minimum, the zero-margin bin is never empty (on
    /// a timed design), and growing the margin only grows the bin.
    #[test]
    fn critical_binning_is_sound_and_monotone(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        clock in 300i64..3000,
        m1 in 0i64..400,
        m2 in 0i64..400,
    ) {
        let d = build(&r);
        let tdfg = timed(&d);
        let delays = delays_from(&dseed, d.dfg.len_ids());
        let res = compute_slack(&tdfg, &delays, clock, SlackMode::Aligned);
        let min = res.min_slack();
        prop_assume!(min != i64::MAX);
        let (lo, hi) = (m1.min(m2), m1.max(m2));
        let tight = res.critical_ops(lo);
        let loose = res.critical_ops(hi);
        prop_assert!(!res.critical_ops(0).is_empty());
        for o in &tight {
            prop_assert!(res.slack(*o) <= min + lo);
            prop_assert!(loose.contains(o), "{o} fell out of a larger bin");
        }
    }

    /// Aligned analysis is never more optimistic than plain: rounding
    /// arrivals up and requireds down can only shrink per-op slack.
    #[test]
    fn aligned_slack_never_exceeds_plain(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        clock in 300i64..3000,
    ) {
        let d = build(&r);
        let tdfg = timed(&d);
        let delays = delays_from(&dseed, d.dfg.len_ids());
        let plain = compute_slack(&tdfg, &delays, clock, SlackMode::Plain);
        let aligned = compute_slack(&tdfg, &delays, clock, SlackMode::Aligned);
        for o in d.dfg.op_ids() {
            if tdfg.is_timed(o) {
                prop_assert!(
                    aligned.slack(o) <= plain.slack(o),
                    "{o}: aligned {} > plain {}",
                    aligned.slack(o),
                    plain.slack(o)
                );
            }
        }
    }

    /// Scaling the clock up from an infeasible point eventually clears
    /// the negative slack, and min slack is monotone along the way.
    #[test]
    fn min_slack_is_monotone_in_clock(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        base in 300i64..1500,
        bump in 1i64..2000,
    ) {
        let d = build(&r);
        let tdfg = timed(&d);
        let delays = delays_from(&dseed, d.dfg.len_ids());
        let tight = compute_slack(&tdfg, &delays, base, SlackMode::Plain);
        let loose = compute_slack(&tdfg, &delays, base + bump, SlackMode::Plain);
        prop_assert!(
            loose.min_slack() >= tight.min_slack(),
            "min slack dropped {} -> {} when the clock grew",
            tight.min_slack(),
            loose.min_slack()
        );
    }
}
