//! Slack budgeting (paper §V, algorithm of Fig. 7).
//!
//! Budgeting finds, before scheduling, "the (heuristically) best resource
//! for every operation": starting from the **slowest** library grades, it
//! first repairs negative aligned slack by *upgrading* critical operations
//! (cheapest area increase per picosecond gained), then spends the
//! remaining positive slack by *downgrading* operations to cheaper grades
//! (largest area saving whose delay increase fits the operation's slack —
//! the multi-state generalization of the zero-slack algorithm \[14\]).
//!
//! Slack *binning* (treat slacks within a margin, default 5% of the clock,
//! as equal) bounds the number of distinct moves, giving the paper's
//! `O(C·N)` complexity claim.
//!
//! The budgeting loop is generic over the slack engine so the Bellman-Ford
//! baseline of Table 5 can be swapped in ([`SlackEngine::BellmanFord`]).

use crate::bellman::compute_slack_bellman;
use crate::slack::{compute_slack, SlackMode, SlackResult, SlackState};
use crate::tdfg::TimedDfg;
use adhls_ir::{Dfg, Error, OpId, Result};
use adhls_reslib::library::op_resource_width;
use adhls_reslib::{Candidate, Library};

/// Which slack computation the budgeting loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SlackEngine {
    /// Linear topological sweeps (the paper's contribution).
    #[default]
    Topological,
    /// Fixpoint edge relaxation (prior work \[10\]; Table 5 baseline).
    BellmanFord,
}

/// Options for [`budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetOptions {
    /// Slack-binning margin as a fraction of the clock period (paper: 5%).
    pub margin_frac: f64,
    /// Slack variant (aligned by default, per the paper).
    pub mode: SlackMode,
    /// Slack engine.
    pub engine: SlackEngine,
    /// Extra delay added to every resource-backed candidate — the
    /// scheduler's steering-mux/sharing overhead, so budget plans remain
    /// schedulable (the paper: "our actual implementation estimates
    /// them").
    pub overhead_ps: u64,
}

impl Default for BudgetOptions {
    fn default() -> Self {
        BudgetOptions {
            margin_frac: 0.05,
            mode: SlackMode::Aligned,
            engine: SlackEngine::Topological,
            overhead_ps: 0,
        }
    }
}

/// Delay alternatives of one operation: either a library grade curve or a
/// fixed intrinsic delay (I/O, φs, constants).
#[derive(Debug, Clone, PartialEq)]
pub struct OpChoice {
    /// Pareto candidates, fastest first (empty for fixed-delay ops).
    pub candidates: Vec<Candidate>,
    /// Intrinsic delay for ops without resource candidates.
    pub fixed_ps: Option<u64>,
}

/// Builds the per-operation delay alternatives from a library.
///
/// A shift by a **constant** amount is pure wiring in hardware — it gets a
/// fixed zero delay and no resource instead of a barrel shifter.
///
/// # Errors
///
/// Returns [`Error::MalformedDfg`] if a resource-backed operation has no
/// library candidates at its width.
pub fn op_choices(dfg: &Dfg, lib: &Library) -> Result<Vec<OpChoice>> {
    let mut out = vec![
        OpChoice {
            candidates: Vec::new(),
            fixed_ps: Some(0)
        };
        dfg.len_ids()
    ];
    for o in dfg.op_ids() {
        let kind = dfg.op(o).kind();
        let const_shift = matches!(kind, adhls_ir::OpKind::Shl | adhls_ir::OpKind::Shr)
            && dfg
                .operands(o)
                .get(1)
                .is_some_and(|&p| dfg.op(p).kind().is_const());
        let choice = if const_shift {
            OpChoice {
                candidates: Vec::new(),
                fixed_ps: Some(0),
            }
        } else if let Some(f) = lib.fixed_delay_ps(kind) {
            OpChoice {
                candidates: Vec::new(),
                fixed_ps: Some(f),
            }
        } else {
            let w = op_resource_width(dfg, o);
            let candidates = lib.candidates(kind, w);
            if candidates.is_empty() {
                return Err(Error::MalformedDfg(format!(
                    "no library candidates for {o} ({kind} at width {w})"
                )));
            }
            OpChoice {
                candidates,
                fixed_ps: None,
            }
        };
        out[o.0 as usize] = choice;
    }
    Ok(out)
}

/// Result of slack budgeting: a grade per operation plus the final slack
/// distribution.
#[derive(Debug, Clone)]
pub struct BudgetResult {
    /// Chosen candidate index per op id (None for fixed-delay ops).
    pub choice_idx: Vec<Option<usize>>,
    /// Chosen candidate per op id (None for fixed-delay ops).
    pub chosen: Vec<Option<Candidate>>,
    /// Effective delay per op id (ps).
    pub delays: Vec<i64>,
    /// Final slack distribution.
    pub slack: SlackResult,
    /// Minimum aligned slack after budgeting (negative = infeasible even
    /// with the fastest grades, per Proposition 1).
    pub min_slack: i64,
    /// Sum of chosen candidate areas (dedicated resources, before sharing).
    pub dedicated_area: f64,
    /// Number of budgeting moves performed (upgrades + downgrades).
    pub moves: usize,
    /// Downgrades taken back because they made some slack worse than
    /// the op's own slack allowed (counted in `moves` too).
    pub reverted: usize,
    /// Per-op arrival/required evaluations the slack analysis performed
    /// (a full analysis costs two per timed op).
    pub slack_evals: usize,
}

impl BudgetResult {
    /// Chosen candidate for `o`, if it is resource-backed.
    #[must_use]
    pub fn candidate_of(&self, o: OpId) -> Option<Candidate> {
        self.chosen[o.0 as usize]
    }
}

/// One-call budgeting: derives choices from the library and runs
/// [`budget_with_choices`] with nothing locked.
///
/// # Errors
///
/// See [`op_choices`].
pub fn budget(
    dfg: &Dfg,
    tdfg: &TimedDfg,
    lib: &Library,
    clock_ps: u64,
    opts: &BudgetOptions,
) -> Result<BudgetResult> {
    let choices = op_choices(dfg, lib)?;
    Ok(budget_with_choices(tdfg, &choices, clock_ps, opts, |_| {
        None
    }))
}

/// Budgeting over explicit per-op choices. `locked(o) = Some(delay)` pins an
/// operation's delay (used by `Schedule_pass` for already-scheduled ops,
/// whose grades must not change retroactively).
///
/// # Panics
///
/// Panics if `clock_ps` is zero or `choices` is shorter than the id space.
#[must_use]
pub fn budget_with_choices(
    tdfg: &TimedDfg,
    choices: &[OpChoice],
    clock_ps: u64,
    opts: &BudgetOptions,
    locked: impl Fn(OpId) -> Option<u64>,
) -> BudgetResult {
    budget_with_choices_from(tdfg, choices, clock_ps, opts, locked, None)
}

/// Like [`budget_with_choices`], warm-started from `initial` grade indices
/// (per op id). `Schedule_pass` re-budgets after every edge; starting from
/// the previous solution makes each re-budget incremental instead of
/// re-deriving every grade from the slowest point.
///
/// # Panics
///
/// Panics if `clock_ps` is zero or `choices` is shorter than the id space.
#[must_use]
pub fn budget_with_choices_from(
    tdfg: &TimedDfg,
    choices: &[OpChoice],
    clock_ps: u64,
    opts: &BudgetOptions,
    locked: impl Fn(OpId) -> Option<u64>,
    initial: Option<&[Option<usize>]>,
) -> BudgetResult {
    assert!(clock_ps > 0, "clock period must be positive");
    assert!(choices.len() >= tdfg.len_ids(), "choices table too short");
    let t = clock_ps as i64;
    let n = tdfg.len_ids();
    let overhead = opts.overhead_ps as i64;
    let margin = ((opts.margin_frac * clock_ps as f64).round() as i64).max(0);

    // One loop serves both engines: the topological engine refreshes the
    // slack state incrementally after each move, the Bellman-Ford baseline
    // (Table 5) by a full recomputation.
    let full = |delays: &[i64]| -> SlackResult {
        match opts.engine {
            SlackEngine::Topological => compute_slack(tdfg, delays, t, opts.mode),
            SlackEngine::BellmanFord => compute_slack_bellman(tdfg, delays, t, opts.mode),
        }
    };
    let full_evals = 2 * tdfg.topo().len();
    let refresh = |st: &mut SlackState, delays: &[i64], o: OpId| -> usize {
        match opts.engine {
            SlackEngine::Topological => st.update(tdfg, delays, o),
            SlackEngine::BellmanFord => {
                st.replace(full(delays));
                full_evals
            }
        }
    };

    // ---- initial point: the warm start, else the slowest grade.
    let mut idx: Vec<Option<usize>> = vec![None; n];
    let mut delays: Vec<i64> = vec![0; n];
    let mut lock_flag: Vec<bool> = vec![false; n];
    // Per-op cap on how slow we may go (tightened when an aligned-mode
    // downgrade has to be reverted).
    let mut max_idx: Vec<usize> = vec![usize::MAX; n];
    for i in 0..n {
        let o = OpId(i as u32);
        if !tdfg.is_timed(o) {
            continue;
        }
        if let Some(d) = locked(o) {
            delays[i] = d as i64;
            lock_flag[i] = true;
            // Keep the matching candidate index if one matches exactly.
            idx[i] = choices[i]
                .candidates
                .iter()
                .position(|c| c.grade.delay_ps == d);
            continue;
        }
        let ch = &choices[i];
        if ch.candidates.is_empty() {
            delays[i] = ch.fixed_ps.unwrap_or(0) as i64;
        } else {
            let warm = initial
                .and_then(|init| init[i])
                .filter(|&k| k < ch.candidates.len());
            let k = warm.unwrap_or(ch.candidates.len() - 1);
            idx[i] = Some(k);
            delays[i] = ch.candidates[k].grade.delay_ps as i64 + overhead;
        }
    }

    let mut moves = 0usize;
    let mut reverted = 0usize;
    let max_moves = 4 * choices
        .iter()
        .map(|c| c.candidates.len())
        .sum::<usize>()
        .max(16);

    // The one-grade moves open to each op at its current grade, refreshed
    // whenever its grade or cap changes, so every pick is one scan of
    // plain numbers in id order.
    let mut up: Vec<Option<f64>> = vec![None; n];
    let mut down: Vec<Option<(i64, f64)>> = vec![None; n];
    for i in 0..n {
        if tdfg.is_timed(OpId(i as u32)) && !lock_flag[i] {
            (up[i], down[i]) = moves_of(&choices[i], idx[i], max_idx[i]);
        }
    }

    let mut st = SlackState::new(full(&delays));
    let mut slack_evals = full_evals;

    // ---- phase 1: repair negative aligned slack by upgrading critical
    // ops.
    while st.min_slack() < 0 && moves < max_moves {
        // Candidates: ops with negative slack that can still be sped up,
        // preferring the binned-critical set (slack within `margin` of the
        // minimum), falling back to any negative-slack op once the most
        // critical ones are all at their fastest grade.
        let min = st.min_slack();
        let slack = st.slack();
        let pick = |bin_only: bool| -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for (i, score) in up.iter().enumerate() {
                let Some(score) = *score else { continue };
                let s = slack[i];
                if s >= 0 || (bin_only && s > min + margin) {
                    continue;
                }
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((i, score));
                }
            }
            best.map(|(i, _)| i)
        };
        let Some(i) = pick(true).or_else(|| pick(false)) else {
            break;
        };
        let k = idx[i].unwrap() - 1;
        idx[i] = Some(k);
        delays[i] = choices[i].candidates[k].grade.delay_ps as i64 + overhead;
        (up[i], down[i]) = moves_of(&choices[i], idx[i], max_idx[i]);
        moves += 1;
        slack_evals += refresh(&mut st, &delays, OpId(i as u32));
    }

    // ---- phase 2: spend positive slack on cheaper grades.
    while moves < max_moves {
        let slack = st.slack();
        let mut best: Option<(usize, f64)> = None;
        for (i, mv) in down.iter().enumerate() {
            let Some((dcost, saving)) = *mv else { continue };
            let s = slack[i];
            if s <= margin {
                continue; // binned as zero slack
            }
            if dcost > s {
                continue;
            }
            if best.is_none_or(|(_, b)| saving > b) {
                best = Some((i, saving));
            }
        }
        let Some((i, _)) = best else { break };
        let k = idx[i].unwrap();
        idx[i] = Some(k + 1);
        delays[i] = choices[i].candidates[k + 1].grade.delay_ps as i64 + overhead;
        moves += 1;
        let before = st.min_slack();
        slack_evals += refresh(&mut st, &delays, OpId(i as u32));
        // Revert when the downgrade cost more than the op's own slack
        // (aligned-mode boundary push) — detected as a drop of the global
        // minimum, or as any op turning negative that was not before (the
        // global minimum of an infeasible design can mask new violations).
        if st.min_slack() < before.min(0) || st.turned_negative() {
            idx[i] = Some(k);
            delays[i] = choices[i].candidates[k].grade.delay_ps as i64 + overhead;
            max_idx[i] = k;
            st.revert();
            reverted += 1;
        }
        (up[i], down[i]) = moves_of(&choices[i], idx[i], max_idx[i]);
    }

    let mut chosen: Vec<Option<Candidate>> = vec![None; n];
    let mut dedicated_area = 0.0;
    for i in 0..n {
        if let Some(k) = idx[i] {
            let c = choices[i].candidates[k];
            chosen[i] = Some(c);
            dedicated_area += c.grade.area;
        }
    }
    let min_slack = st.min_slack();
    BudgetResult {
        choice_idx: idx,
        chosen,
        delays,
        slack: st.into_result(),
        min_slack,
        dedicated_area,
        moves,
        reverted,
        slack_evals,
    }
}

/// The one-grade moves of an op at grade `k` under slowness cap `cap`:
/// the phase-1 upgrade score (delay gained per unit of area spent), and
/// the phase-2 downgrade's delay cost and area saving; `None` where the
/// move does not exist.
fn moves_of(ch: &OpChoice, k: Option<usize>, cap: usize) -> (Option<f64>, Option<(i64, f64)>) {
    let Some(k) = k else { return (None, None) };
    let grade = |j: usize| ch.candidates[j].grade;
    let up = (k > 0).then(|| {
        let (cur, fast) = (grade(k), grade(k - 1));
        let dgain = (cur.delay_ps - fast.delay_ps) as f64;
        let acost = (fast.area - cur.area).max(1e-9);
        dgain / acost
    });
    let down = (k + 1 < ch.candidates.len() && k < cap).then(|| {
        let (cur, slow) = (grade(k), grade(k + 1));
        ((slow.delay_ps - cur.delay_ps) as i64, cur.area - slow.area)
    });
    (up, down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::tsmc90;

    /// Two chained 8-bit muls under an 1100ps clock, 2-cycle budget: the
    /// paper's §II intuition — 540ps grades (area 575) suffice; the fastest
    /// 430ps grades (area 878) are wasted area.
    #[test]
    fn budget_picks_mid_grades_not_fastest() {
        let mut b = DesignBuilder::new("two_muls");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.soft_waits(1);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let r = budget(&d.dfg, &tdfg, &lib, 1100, &BudgetOptions::default()).unwrap();
        assert!(r.min_slack >= 0, "feasible: min slack {}", r.min_slack);
        for m in [m1, m2] {
            let c = r.candidate_of(m).unwrap();
            assert!(
                c.grade.delay_ps >= 540,
                "{m} should get a mid/slow grade, got {}",
                c.grade
            );
        }
        // Both muls in one cycle would need 2*delay <= 1100, met by 540+540.
        // With the 2-cycle budget they may even go slower; either way the
        // area must be far below 2x the fastest grade.
        assert!(r.dedicated_area < 2.0 * 878.0 * 0.8);
    }

    #[test]
    fn budget_upgrades_when_slowest_is_infeasible() {
        // One mul per cycle at 610ps under a 500ps clock is infeasible;
        // under 620ps the slowest grade fits and nothing upgrades. (The
        // write sits after a wait so its I/O delay does not chain with the
        // mul.)
        let mut b = DesignBuilder::new("upg");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.wait();
        b.write("y", m);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let tight = budget(&d.dfg, &tdfg, &lib, 500, &BudgetOptions::default()).unwrap();
        assert!(tight.candidate_of(m).unwrap().grade.delay_ps <= 470);
        let loose = budget(&d.dfg, &tdfg, &lib, 620, &BudgetOptions::default()).unwrap();
        assert_eq!(loose.candidate_of(m).unwrap().grade.delay_ps, 610);
        assert!(loose.min_slack >= 0);
    }

    #[test]
    fn infeasible_design_reports_negative_slack() {
        // Three chained muls in one 500ps cycle can never fit (min 430each).
        let mut b = DesignBuilder::new("inf");
        let x = b.read("in", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        let m3 = b.binop(OpKind::Mul, m2, m2, 8);
        b.write("y", m3);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let r = budget(&d.dfg, &tdfg, &lib, 500, &BudgetOptions::default()).unwrap();
        assert!(r.min_slack < 0);
        // Everything on the chain was pushed to the fastest grade trying.
        for m in [m1, m2, m3] {
            assert_eq!(r.candidate_of(m).unwrap().grade.delay_ps, 430);
        }
    }

    #[test]
    fn budgeting_never_leaves_fixable_negative_slack() {
        // Whatever the clock, after budgeting either slack >= 0 or all
        // critical ops are already at their fastest grade.
        let mut b = DesignBuilder::new("mix");
        let x = b.input("x", 16);
        let a1 = b.binop(OpKind::Add, x, x, 16);
        let m1 = b.binop(OpKind::Mul, a1, x, 16);
        b.soft_waits(2);
        let a2 = b.binop(OpKind::Add, m1, x, 16);
        let m2 = b.binop(OpKind::Mul, a2, a1, 16);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        for clock in [600u64, 900, 1200, 2000, 4000] {
            let r = budget(&d.dfg, &tdfg, &lib, clock, &BudgetOptions::default()).unwrap();
            if r.min_slack < 0 {
                for i in 0..tdfg.len_ids() {
                    let o = OpId(i as u32);
                    if tdfg.is_timed(o) && r.slack.slack[i] < 0 {
                        if let Some(k) = r.choice_idx[i] {
                            assert_eq!(k, 0, "critical {o} not at fastest grade");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn locked_ops_keep_their_delay() {
        let mut b = DesignBuilder::new("lock");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        b.soft_waits(1);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let choices = op_choices(&d.dfg, &lib).unwrap();
        let r = budget_with_choices(&tdfg, &choices, 1100, &BudgetOptions::default(), |o| {
            (o == m1).then_some(470)
        });
        assert_eq!(r.delays[m1.0 as usize], 470);
        assert!(r.min_slack >= 0);
    }

    #[test]
    fn bellman_engine_gives_same_choices() {
        let mut b = DesignBuilder::new("bf");
        let x = b.input("x", 16);
        let a = b.binop(OpKind::Add, x, x, 16);
        let m = b.binop(OpKind::Mul, a, x, 16);
        b.soft_waits(1);
        b.write("y", m);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let lib = tsmc90::library();
        let topo = budget(&d.dfg, &tdfg, &lib, 1500, &BudgetOptions::default()).unwrap();
        let bf = budget(
            &d.dfg,
            &tdfg,
            &lib,
            1500,
            &BudgetOptions {
                engine: SlackEngine::BellmanFord,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(topo.choice_idx, bf.choice_idx);
        assert_eq!(topo.delays, bf.delays);
    }
}
