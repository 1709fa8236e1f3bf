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
use crate::slack::{SlackMode, SlackResult, SlackState};
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
/// fixed intrinsic delay (I/O, φs, constants). A view into an
/// [`OpChoices`] table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpChoice<'a> {
    /// Pareto candidates, fastest first (empty for fixed-delay ops).
    pub candidates: &'a [Candidate],
    /// Intrinsic delay for ops without resource candidates.
    pub fixed_ps: Option<u64>,
}

/// The delay alternatives of every operation of a DFG, indexed by op id,
/// in one candidate table: two allocations whatever the design's size.
#[derive(Debug, Clone, PartialEq)]
pub struct OpChoices {
    /// Per op id: its run of `candidates` and its intrinsic delay.
    ops: Vec<ChoiceRun>,
    /// Every op's candidates, op after op.
    candidates: Vec<Candidate>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChoiceRun {
    start: u32,
    len: u32,
    fixed_ps: Option<u64>,
}

impl OpChoices {
    /// The alternatives of op id `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> OpChoice<'_> {
        let r = self.ops[i];
        OpChoice {
            candidates: &self.candidates[r.start as usize..(r.start + r.len) as usize],
            fixed_ps: r.fixed_ps,
        }
    }

    /// The alternatives of every op id, in id order.
    pub fn iter(&self) -> impl Iterator<Item = OpChoice<'_>> {
        (0..self.ops.len()).map(|i| self.get(i))
    }

    /// The Pareto candidates of op id `i`, fastest first.
    #[must_use]
    pub fn candidates(&self, i: usize) -> &[Candidate] {
        self.get(i).candidates
    }

    /// Makes this table `base` with op id `i` limited to its `caps[i] + 1`
    /// fastest candidates (ops without candidates keep none), reusing its
    /// buffers.
    pub fn set_truncated(&mut self, base: &OpChoices, caps: &[usize]) {
        self.ops.clear();
        self.ops
            .extend(base.ops.iter().zip(caps).map(|(r, &cap)| ChoiceRun {
                len: (r.len as usize).min(cap.saturating_add(1)) as u32,
                ..*r
            }));
        self.candidates.clone_from(&base.candidates);
    }

    /// Heap bytes the table holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        adhls_ir::vec_heap_bytes(&self.ops) + adhls_ir::vec_heap_bytes(&self.candidates)
    }
}

/// Builds the per-operation delay alternatives from a library. Ops of one
/// kind and resource width share one run of the candidate table.
///
/// A shift by a **constant** amount is pure wiring in hardware — it gets a
/// fixed zero delay and no resource instead of a barrel shifter.
///
/// # Errors
///
/// Returns [`Error::MalformedDfg`] if a resource-backed operation has no
/// library candidates at its width.
pub fn op_choices(dfg: &Dfg, lib: &Library) -> Result<OpChoices> {
    let fixed = |fixed_ps| ChoiceRun {
        start: 0,
        len: 0,
        fixed_ps: Some(fixed_ps),
    };
    let mut ops = vec![fixed(0); dfg.len_ids()];
    let mut candidates = Vec::new();
    let mut runs: Vec<(adhls_ir::OpKind, u16, ChoiceRun)> = Vec::new();
    for o in dfg.op_ids() {
        let kind = dfg.op(o).kind();
        let const_shift = matches!(kind, adhls_ir::OpKind::Shl | adhls_ir::OpKind::Shr)
            && dfg
                .operands(o)
                .get(1)
                .is_some_and(|&p| dfg.op(p).kind().is_const());
        ops[o.0 as usize] = if const_shift {
            fixed(0)
        } else if let Some(f) = lib.fixed_delay_ps(kind) {
            fixed(f)
        } else {
            let w = op_resource_width(dfg, o);
            if let Some(&(.., run)) = runs.iter().find(|r| (r.0, r.1) == (kind, w)) {
                run
            } else {
                let cands = lib.candidates(kind, w);
                if cands.is_empty() {
                    return Err(Error::MalformedDfg(format!(
                        "no library candidates for {o} ({kind} at width {w})"
                    )));
                }
                let run = ChoiceRun {
                    start: candidates.len() as u32,
                    len: cands.len() as u32,
                    fixed_ps: None,
                };
                candidates.extend_from_slice(&cands);
                runs.push((kind, w, run));
                run
            }
        };
    }
    candidates.shrink_to_fit();
    Ok(OpChoices { ops, candidates })
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
    choices: &OpChoices,
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
/// A fresh [`BudgetEngine`] runs the call; a caller that budgets
/// repeatedly keeps one engine instead.
///
/// # Panics
///
/// Panics if `clock_ps` is zero or `choices` is shorter than the id space.
#[must_use]
pub fn budget_with_choices_from(
    tdfg: &TimedDfg,
    choices: &OpChoices,
    clock_ps: u64,
    opts: &BudgetOptions,
    locked: impl Fn(OpId) -> Option<u64>,
    initial: Option<&[Option<usize>]>,
) -> BudgetResult {
    let mut engine = BudgetEngine::default();
    engine.run(tdfg, choices, clock_ps, opts, locked, initial);
    let mut chosen: Vec<Option<Candidate>> = vec![None; engine.idx.len()];
    let mut dedicated_area = 0.0;
    for (i, k) in engine.idx.iter().enumerate() {
        if let Some(k) = *k {
            let c = choices.candidates(i)[k];
            chosen[i] = Some(c);
            dedicated_area += c.grade.area;
        }
    }
    BudgetResult {
        choice_idx: engine.idx,
        chosen,
        delays: engine.delays,
        min_slack: engine.st.min_slack(),
        slack: engine.st.into_result(),
        dedicated_area,
        moves: engine.moves,
        reverted: engine.reverted,
        slack_evals: engine.slack_evals,
    }
}

/// The budgeting loop and every table it works in: grade, delay and cap
/// per op, each op's one-grade moves, the slack state, and phase 1's
/// candidate set. [`BudgetEngine::run`] resets the tables in place, so an
/// engine kept across calls allocates only while its tables grow to the
/// largest graph it budgets.
#[derive(Debug, Default)]
pub struct BudgetEngine {
    /// Grade index per op id (None for fixed-delay ops).
    idx: Vec<Option<usize>>,
    delays: Vec<i64>,
    /// Per-op cap on how slow an op may go (tightened when an aligned-mode
    /// downgrade has to be reverted).
    cap: Vec<usize>,
    /// The one-grade moves open to each op at its current grade and cap.
    up: Vec<Option<f64>>,
    down: Vec<Option<(i64, f64)>>,
    /// Phase 1's candidates: ops with an upgrade and negative slack, one
    /// bit per op id.
    upgradable: Vec<u64>,
    st: SlackState,
    /// Moves (upgrades + downgrades) of the last call.
    pub moves: usize,
    /// Downgrades the last call took back because they made some slack
    /// worse than the op's own slack allowed (counted in `moves` too).
    pub reverted: usize,
    /// Per-op arrival/required evaluations of the last call's slack
    /// analysis (a full analysis costs two per timed op).
    pub slack_evals: usize,
}

impl BudgetEngine {
    /// Chosen candidate index per op id after the last call (None for
    /// fixed-delay ops).
    #[must_use]
    pub fn choice_idx(&self) -> &[Option<usize>] {
        &self.idx
    }

    /// Slack distribution after the last call.
    #[must_use]
    pub fn slack(&self) -> &SlackResult {
        self.st.result()
    }

    /// Budgets `tdfg` like [`budget_with_choices_from`], leaving the
    /// grades, slacks and counts in the engine.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ps` is zero or `choices` is shorter than the id
    /// space.
    pub fn run(
        &mut self,
        tdfg: &TimedDfg,
        choices: &OpChoices,
        clock_ps: u64,
        opts: &BudgetOptions,
        locked: impl Fn(OpId) -> Option<u64>,
        initial: Option<&[Option<usize>]>,
    ) {
        assert!(clock_ps > 0, "clock period must be positive");
        assert!(
            choices.ops.len() >= tdfg.len_ids(),
            "choices table too short"
        );
        let t = clock_ps as i64;
        let n = tdfg.len_ids();
        let overhead = opts.overhead_ps as i64;
        let margin = ((opts.margin_frac * clock_ps as f64).round() as i64).max(0);
        let delay = |i: usize, k: usize| choices.candidates(i)[k].grade.delay_ps as i64 + overhead;

        // ---- initial point: the warm start, else the slowest grade.
        reset(&mut self.idx, n, None);
        reset(&mut self.delays, n, 0);
        reset(&mut self.cap, n, usize::MAX);
        reset(&mut self.up, n, None);
        reset(&mut self.down, n, None);
        for i in 0..n {
            let o = OpId(i as u32);
            if !tdfg.is_timed(o) {
                continue;
            }
            if let Some(d) = locked(o) {
                self.delays[i] = d as i64;
                // Keep the matching candidate index if one matches exactly.
                self.idx[i] = choices
                    .candidates(i)
                    .iter()
                    .position(|c| c.grade.delay_ps == d);
                continue;
            }
            let ch = choices.get(i);
            if ch.candidates.is_empty() {
                self.delays[i] = ch.fixed_ps.unwrap_or(0) as i64;
            } else {
                let warm = initial
                    .and_then(|init| init[i])
                    .filter(|&k| k < ch.candidates.len());
                let k = warm.unwrap_or(ch.candidates.len() - 1);
                self.idx[i] = Some(k);
                self.delays[i] = delay(i, k);
            }
            (self.up[i], self.down[i]) = moves_of(ch, self.idx[i], self.cap[i]);
        }

        // One loop serves both engines: the topological engine refreshes
        // the slack state incrementally after each move, the Bellman-Ford
        // baseline (Table 5) by a full recomputation.
        let full_evals = 2 * tdfg.topo().len();
        match opts.engine {
            SlackEngine::Topological => self.st.recompute(tdfg, &self.delays, t, opts.mode),
            SlackEngine::BellmanFord => {
                self.st = SlackState::new(compute_slack_bellman(tdfg, &self.delays, t, opts.mode));
            }
        }
        let refresh = |st: &mut SlackState, delays: &[i64], o: usize| -> usize {
            match opts.engine {
                SlackEngine::Topological => st.update(tdfg, delays, OpId(o as u32)),
                SlackEngine::BellmanFord => {
                    st.replace(compute_slack_bellman(tdfg, delays, t, opts.mode));
                    full_evals
                }
            }
        };
        // Each loop ends on its own: phase 1 only upgrades, phase 2 only
        // downgrades, and a reverted downgrade caps its op at its grade, so
        // a call makes at most two moves per candidate.
        (self.moves, self.reverted, self.slack_evals) = (0, 0, full_evals);

        // ---- phase 1: repair negative aligned slack by upgrading critical
        // ops. The candidate set changes only where a move changed an op's
        // upgrade or the update changed its slack.
        reset(&mut self.upgradable, n.div_ceil(64), 0);
        for i in 0..n {
            mark_upgradable(&mut self.upgradable, &self.up, self.st.slack(), i);
        }
        while self.st.min_slack() < 0 {
            // Candidates: ops with negative slack that can still be sped
            // up, preferring the binned-critical set (slack within `margin`
            // of the minimum), falling back to any negative-slack op once
            // the most critical ones are all at their fastest grade. Ties
            // go to the lowest id.
            let (min, slack) = (self.st.min_slack(), self.st.slack());
            let pick = |bin_only: bool| -> Option<usize> {
                let mut best: Option<(usize, f64)> = None;
                for (w, &word) in self.upgradable.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let score = self.up[i].expect("candidates can upgrade");
                        if bin_only && slack[i] > min + margin {
                            continue;
                        }
                        if best.is_none_or(|(_, b)| score > b) {
                            best = Some((i, score));
                        }
                    }
                }
                best.map(|(i, _)| i)
            };
            let Some(i) = pick(true).or_else(|| pick(false)) else {
                break;
            };
            let k = self.idx[i].unwrap() - 1;
            self.idx[i] = Some(k);
            self.delays[i] = delay(i, k);
            (self.up[i], self.down[i]) = moves_of(choices.get(i), self.idx[i], self.cap[i]);
            self.moves += 1;
            self.slack_evals += refresh(&mut self.st, &self.delays, i);
            for j in std::iter::once(i).chain(self.st.changed()) {
                mark_upgradable(&mut self.upgradable, &self.up, self.st.slack(), j);
            }
        }

        // ---- phase 2: spend positive slack on cheaper grades.
        loop {
            let slack = self.st.slack();
            let mut best: Option<(usize, f64)> = None;
            for (i, mv) in self.down.iter().enumerate() {
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
            let k = self.idx[i].unwrap();
            self.idx[i] = Some(k + 1);
            self.delays[i] = delay(i, k + 1);
            self.moves += 1;
            let before = self.st.min_slack();
            self.slack_evals += refresh(&mut self.st, &self.delays, i);
            // Revert when the downgrade cost more than the op's own slack
            // (aligned-mode boundary push) — detected as a drop of the
            // global minimum, or as any op turning negative that was not
            // before (the global minimum of an infeasible design can mask
            // new violations).
            if self.st.min_slack() < before.min(0) || self.st.turned_negative() {
                self.idx[i] = Some(k);
                self.delays[i] = delay(i, k);
                self.cap[i] = k;
                self.st.revert();
                self.reverted += 1;
            }
            (self.up[i], self.down[i]) = moves_of(choices.get(i), self.idx[i], self.cap[i]);
        }
    }
}

/// Puts op `i` in phase 1's candidate set exactly when it has an upgrade
/// and negative slack.
fn mark_upgradable(set: &mut [u64], up: &[Option<f64>], slack: &[i64], i: usize) {
    let bit = 1 << (i % 64);
    if up[i].is_some() && slack[i] < 0 {
        set[i / 64] |= bit;
    } else {
        set[i / 64] &= !bit;
    }
}

/// Empties `v` and refills it with `n` copies of `x`, keeping its buffer.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// The one-grade moves of an op at grade `k` under slowness cap `cap`:
/// the phase-1 upgrade score (delay gained per unit of area spent), and
/// the phase-2 downgrade's delay cost and area saving; `None` where the
/// move does not exist.
fn moves_of(ch: OpChoice, k: Option<usize>, cap: usize) -> (Option<f64>, Option<(i64, f64)>) {
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
    fn a_truncated_table_keeps_each_ops_fastest_candidates() {
        let mut b = DesignBuilder::new("trunc");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        let a = b.binop(OpKind::Add, m, x, 8);
        b.write("y", a);
        let d = b.finish().unwrap();
        let full = op_choices(&d.dfg, &tsmc90::library()).unwrap();
        let n = d.dfg.len_ids();
        let caps: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut cut = full.clone();
        cut.set_truncated(&full, &caps);
        for (i, cap) in caps.iter().enumerate() {
            let (f, c) = (full.get(i), cut.get(i));
            assert_eq!(c.fixed_ps, f.fixed_ps);
            let keep = f.candidates.len().min(cap + 1);
            assert_eq!(c.candidates, &f.candidates[..keep], "op {i}");
        }
        let total = |t: &OpChoices| t.iter().map(|c| c.candidates.len()).sum::<usize>();
        assert!(total(&cut) < total(&full));
    }

    #[test]
    fn ops_of_one_kind_and_width_share_a_candidate_run() {
        let mut b = DesignBuilder::new("share");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        let m3 = b.binop(OpKind::Mul, m2, x, 16);
        b.write("y", m3);
        let d = b.finish().unwrap();
        let choices = op_choices(&d.dfg, &tsmc90::library()).unwrap();
        let run = |o: OpId| choices.candidates(o.0 as usize);
        assert!(std::ptr::eq(run(m1), run(m2)), "one run per (kind, width)");
        assert!(
            !std::ptr::eq(run(m1), run(m3)),
            "another width, another run"
        );
        assert_eq!(choices.candidates.len(), run(m1).len() + run(m3).len());
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

    /// Phase 2 takes a downgrade whose extra delay equals the op's slack
    /// exactly: the op ends at zero slack, which still meets timing.
    #[test]
    fn a_downgrade_that_spends_exactly_the_slack_is_taken() {
        let mut b = DesignBuilder::new("tie");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.write("y", m);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let choices = op_choices(&d.dfg, &tsmc90::library()).unwrap();
        let grades = choices.candidates(m.0 as usize);
        let cost = (grades[1].grade.delay_ps - grades[0].grade.delay_ps) as i64;
        let opts = BudgetOptions {
            margin_frac: 0.0,
            mode: SlackMode::Plain,
            ..BudgetOptions::default()
        };
        let fastest = |clock: u64| {
            let r = budget_with_choices(&tdfg, &choices, clock, &opts, |o| {
                (o == m).then_some(grades[0].grade.delay_ps)
            });
            r.slack.slack(m)
        };
        // The clock at which the fastest grade leaves exactly `cost` slack.
        let clock = (4000 - fastest(4000) + cost) as u64;
        assert_eq!(fastest(clock), cost);
        let warm: Vec<Option<usize>> = (0..tdfg.len_ids())
            .map(|i| (i == m.0 as usize).then_some(0))
            .collect();
        let r = budget_with_choices_from(&tdfg, &choices, clock, &opts, |_| None, Some(&warm));
        assert_eq!(r.choice_idx[m.0 as usize], Some(1));
        assert_eq!(r.slack.slack(m), 0);
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
