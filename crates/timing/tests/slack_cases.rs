//! Edge-case coverage for the slack analysis surface (`compute_slack`,
//! `SlackResult::min_slack`): empty results, all-critical designs and
//! negative slack.

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

/// An empty result (no ops at all) reports `i64::MAX` min slack and no op
/// at that minimum — the documented degenerate behavior for op-free
/// designs.
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
    assert!(r.slack.iter().all(|&s| s > r.min_slack()));
}

/// A uniform chain is all-critical: every timed op shares the minimum
/// slack.
#[test]
fn uniform_chain_is_all_critical() {
    let (d, ops) = chain(3, 0);
    let tdfg = timed(&d);
    let mut delays = vec![0i64; d.dfg.len_ids()];
    for o in &ops {
        delays[o.0 as usize] = 300;
    }
    let r = compute_slack(&tdfg, &delays, 1000, SlackMode::Plain);
    for o in &ops {
        assert_eq!(r.slack(*o), r.min_slack(), "{o} is off the minimum");
    }
}

/// Negative slack (an overconstrained chain) is reported, not clamped:
/// the min goes negative and some chain op sits at that minimum.
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
    assert!(ops.iter().any(|&o| r.slack(o) == r.min_slack()));
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
