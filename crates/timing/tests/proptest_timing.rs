//! Property-based tests for the timing analyses: the linear sweep agrees
//! with Bellman-Ford everywhere, the incremental slack state agrees with a
//! fresh analysis after every move and revert, slack is monotone in
//! delays, budgeting gives the same answer on either slack engine, never
//! worsens feasibility and respects locks.

use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpId, OpKind};
use adhls_reslib::tsmc90;
use adhls_timing::bellman::compute_slack_bellman;
use adhls_timing::budget::{
    budget, budget_with_choices_from, op_choices, BudgetEngine, BudgetOptions, SlackEngine,
};
use adhls_timing::slack::{compute_slack, SlackMode, SlackState};
use adhls_timing::TimedDfg;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, usize, usize)>,
    soft_states: u32,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..32),
        0u32..4,
    )
        .prop_map(|(ops, soft_states)| Recipe { ops, soft_states })
}

fn build(r: &Recipe) -> (Design, Vec<OpId>) {
    let mut b = DesignBuilder::new("tprop");
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
    (b.finish().unwrap(), pool)
}

fn delays_from(seed: &[u16], n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| i64::from(seed[i % seed.len()] % 1500) + 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's linear two-sweep algorithm and the Bellman-Ford baseline
    /// agree exactly, in both plain and aligned modes.
    #[test]
    fn topological_equals_bellman_ford(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        clock in 300i64..3000,
    ) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let delays = delays_from(&dseed, d.dfg.len_ids());
        for mode in [SlackMode::Plain, SlackMode::Aligned] {
            let a = compute_slack(&tdfg, &delays, clock, mode);
            let b = compute_slack_bellman(&tdfg, &delays, clock, mode);
            prop_assert_eq!(&a.arr, &b.arr, "{:?} arrivals differ", mode);
            prop_assert_eq!(&a.req, &b.req, "{:?} requireds differ", mode);
            prop_assert_eq!(&a.slack, &b.slack, "{:?} slacks differ", mode);
        }
    }

    /// After any sequence of single-op delay changes, some taken back,
    /// the incremental slack state equals a fresh analysis exactly —
    /// arrivals, requireds, slacks and the minimum — in both modes.
    #[test]
    fn slack_state_equals_fresh_analysis(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        steps in prop::collection::vec((0usize..64, 0u16..2000, any::<bool>()), 1..24),
        clock in 300i64..3000,
    ) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let timed = tdfg.topo().to_vec();
        for mode in [SlackMode::Plain, SlackMode::Aligned] {
            let mut delays = delays_from(&dseed, d.dfg.len_ids());
            let mut st = SlackState::new(compute_slack(&tdfg, &delays, clock, mode));
            for &(pick, delay, take_back) in &steps {
                let o = timed[pick % timed.len()];
                let old = delays[o.0 as usize];
                delays[o.0 as usize] = i64::from(delay);
                st.update(&tdfg, &delays, o);
                if take_back {
                    delays[o.0 as usize] = old;
                    st.revert();
                }
                let fresh = compute_slack(&tdfg, &delays, clock, mode);
                prop_assert_eq!(&st.result().arr, &fresh.arr, "{:?} arrivals", mode);
                prop_assert_eq!(&st.result().req, &fresh.req, "{:?} requireds", mode);
                prop_assert_eq!(&st.result().slack, &fresh.slack, "{:?} slacks", mode);
                prop_assert_eq!(st.min_slack(), fresh.min_slack(), "{:?} minimum", mode);
            }
        }
    }

    /// One budgeting loop, two engines: the incremental topological
    /// refresh and the Bellman-Ford full recomputation pick the same moves
    /// and end in the same state, with and without locked ops, from the
    /// slowest grades or a warm start. Either way a call makes at most two
    /// moves per candidate: phase 1 only upgrades, phase 2 only
    /// downgrades, and a reverted downgrade caps its op at its grade, so
    /// no loop needs a move cap. A reused `BudgetEngine` budgets like a
    /// fresh one, counts included.
    #[test]
    fn budget_engines_agree(
        r in recipe(),
        clock in 300u64..3500,
        plain in any::<bool>(),
        overhead in 0u64..120,
        lock_seeds in prop::collection::vec(0usize..64, 0..4),
        warm_seeds in prop::collection::vec(0usize..8, 1..16),
    ) {
        let (d, pool) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let choices = op_choices(&d.dfg, &tsmc90::library()).unwrap();
        let locked: Vec<OpId> = lock_seeds.iter().map(|&k| pool[k % pool.len()]).collect();
        let lock = |o: OpId| {
            let c = choices.candidates(o.0 as usize);
            (locked.contains(&o) && !c.is_empty()).then(|| c[c.len() / 2].grade.delay_ps)
        };
        let bound = 2 * choices.iter().map(|c| c.candidates.len()).sum::<usize>();
        let warm: Vec<Option<usize>> = (0..d.dfg.len_ids())
            .map(|i| {
                let n = choices.candidates(i).len();
                (n > 0).then(|| warm_seeds[i % warm_seeds.len()] % n)
            })
            .collect();
        let opts = |engine| BudgetOptions {
            mode: if plain { SlackMode::Plain } else { SlackMode::Aligned },
            engine,
            overhead_ps: overhead,
            ..BudgetOptions::default()
        };
        // A `BudgetEngine` kept across both calls, as the scheduler keeps
        // one per run, must answer like the fresh one of each call.
        let mut kept = BudgetEngine::default();
        for initial in [None, Some(warm.as_slice())] {
            let run = |engine| {
                budget_with_choices_from(&tdfg, &choices, clock, &opts(engine), lock, initial)
            };
            let topo = run(SlackEngine::Topological);
            let bf = run(SlackEngine::BellmanFord);
            prop_assert_eq!(&topo.choice_idx, &bf.choice_idx);
            prop_assert_eq!(&topo.delays, &bf.delays);
            prop_assert_eq!(&topo.slack, &bf.slack);
            prop_assert_eq!(topo.min_slack, bf.min_slack);
            prop_assert_eq!(topo.moves, bf.moves);
            prop_assert_eq!(topo.reverted, bf.reverted);
            kept.run(&tdfg, &choices, clock, &opts(SlackEngine::Topological), lock, initial);
            prop_assert_eq!(kept.choice_idx(), &topo.choice_idx[..]);
            prop_assert_eq!(kept.slack(), &topo.slack);
            let counts = (kept.moves, kept.reverted, kept.slack_evals);
            prop_assert_eq!(counts, (topo.moves, topo.reverted, topo.slack_evals));
            prop_assert!(
                topo.moves <= bound,
                "warm {}: {} moves over {} candidates",
                initial.is_some(),
                topo.moves,
                bound / 2
            );
        }
    }

    /// Speeding any single op up never decreases any op's slack (monotone
    /// analysis), in plain mode.
    #[test]
    fn slack_is_monotone_in_delays(
        r in recipe(),
        dseed in prop::collection::vec(1u16..2000, 1..8),
        victim in 0usize..64,
        cut in 1i64..500,
    ) {
        let (d, pool) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let delays = delays_from(&dseed, d.dfg.len_ids());
        let v = pool[victim % pool.len()];
        let mut faster = delays.clone();
        faster[v.0 as usize] = (faster[v.0 as usize] - cut).max(1);
        let before = compute_slack(&tdfg, &delays, 2000, SlackMode::Plain);
        let after = compute_slack(&tdfg, &faster, 2000, SlackMode::Plain);
        for o in d.dfg.op_ids() {
            if tdfg.is_timed(o) {
                prop_assert!(
                    after.slack(o) >= before.slack(o),
                    "{o}: slack dropped {} -> {} after speeding {v}",
                    before.slack(o), after.slack(o)
                );
            }
        }
    }

    /// Budgeting output is feasible-or-fastest: either min slack >= 0, or
    /// every negative-slack op sits at its fastest grade (Proposition 1's
    /// infeasibility witness).
    #[test]
    fn budget_is_feasible_or_fastest(r in recipe(), clock in 500u64..3500) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let res = budget(&d.dfg, &tdfg, &lib, clock, &BudgetOptions::default()).unwrap();
        if res.min_slack < 0 {
            for o in d.dfg.op_ids() {
                if tdfg.is_timed(o) && res.slack.slack(o) < 0 {
                    if let Some(k) = res.choice_idx[o.0 as usize] {
                        prop_assert_eq!(k, 0, "{} negative but not fastest", o);
                    }
                }
            }
        }
        // Chosen delays always come from the candidate lists.
        for o in d.dfg.op_ids() {
            if let Some(c) = res.candidate_of(o) {
                prop_assert_eq!(res.delays[o.0 as usize], c.grade.delay_ps as i64);
            }
        }
    }

    /// A feasible budget solution stays feasible when re-checked with its
    /// own delays (self-consistency of the aligned analysis).
    #[test]
    fn budget_solution_rechecks_clean(r in recipe(), clock in 800u64..3500) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let res = budget(&d.dfg, &tdfg, &lib, clock, &BudgetOptions::default()).unwrap();
        prop_assume!(res.min_slack >= 0);
        let recheck =
            compute_slack(&tdfg, &res.delays, clock as i64, SlackMode::Aligned);
        prop_assert!(recheck.min_slack() >= 0);
        prop_assert_eq!(recheck.min_slack(), res.min_slack);
    }

    /// Budgeting with a larger clock never yields a larger dedicated area
    /// (more slack to spend can only help), comparing feasible solutions.
    #[test]
    fn budget_area_monotone_in_clock(r in recipe()) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let tight = budget(&d.dfg, &tdfg, &lib, 1200, &BudgetOptions::default()).unwrap();
        let loose = budget(&d.dfg, &tdfg, &lib, 3600, &BudgetOptions::default()).unwrap();
        prop_assume!(tight.min_slack >= 0 && loose.min_slack >= 0);
        prop_assert!(
            loose.dedicated_area <= tight.dedicated_area + 1e-9,
            "loose {} > tight {}",
            loose.dedicated_area,
            tight.dedicated_area
        );
    }
}
