//! Sequential arrival/required times and slack (paper Definitions V.3–V.4,
//! algorithm of Fig. 6).
//!
//! Times are in picoseconds, *local* to each operation's `early`-edge state
//! (the `T·latency` terms in the recurrences renormalize across states):
//!
//! ```text
//! Arr(o) = max over preds p   ( Arr(p) + del(p) − T·latency(p, o) ),   0 for sources
//! Req(o) = min( T − del(o) + T·sink_w(o),
//!               min over succs s ( Req(s) − del(o) + T·latency(o, s) ) )
//! slack(o) = Req(o) − Arr(o)
//! ```
//!
//! `Arr` is the earliest possible *start* of `o`; `Req` the latest start
//! that still meets every downstream deadline and `o`'s own span end (the
//! sink term). Complexity: two sweeps over the timed DFG in topological
//! order — linear in the number of connections (the paper's improvement
//! over the Bellman-Ford formulation of prior work, kept in
//! [`crate::bellman`] for comparison).

use crate::aligned::{align_start_down, align_start_up};
use crate::tdfg::TimedDfg;
use adhls_ir::OpId;

/// Which variant of the analysis to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SlackMode {
    /// Paper Definition V.3: ignore clock boundaries.
    Plain,
    /// Aligned slack: operations may not straddle a clock edge; multi-cycle
    /// operations start at a boundary (the variant used for budgeting).
    #[default]
    Aligned,
}

/// Result of a slack computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlackResult {
    /// Mode used.
    pub mode: SlackMode,
    /// Clock period (ps).
    pub clock_ps: i64,
    /// Earliest start per op id (aligned when mode is `Aligned`).
    pub arr: Vec<i64>,
    /// Latest start per op id.
    pub req: Vec<i64>,
    /// `req − arr` per op id; `i64::MAX` for untimed ids.
    pub slack: Vec<i64>,
}

impl SlackResult {
    /// Slack of `o`.
    #[must_use]
    pub fn slack(&self, o: OpId) -> i64 {
        self.slack[o.0 as usize]
    }

    /// Minimum slack over timed ops (`i64::MAX` when there are none).
    #[must_use]
    pub fn min_slack(&self) -> i64 {
        self.slack.iter().copied().min().unwrap_or(i64::MAX)
    }

    /// Overwrites the result with [`compute_slack`]'s, in its own buffers.
    fn fill(&mut self, tdfg: &TimedDfg, delays: &[i64], clock_ps: i64, mode: SlackMode) {
        assert!(clock_ps > 0, "clock period must be positive");
        assert!(delays.len() >= tdfg.len_ids(), "delay table too short");
        let n = tdfg.len_ids();
        let t = clock_ps;
        (self.mode, self.clock_ps) = (mode, t);
        for (v, init) in [
            (&mut self.arr, 0),
            (&mut self.req, i64::MAX),
            (&mut self.slack, i64::MAX),
        ] {
            v.clear();
            v.resize(n, init);
        }
        for &o in tdfg.topo() {
            self.arr[o.0 as usize] = arrival(tdfg, delays, &self.arr, o, t, mode);
        }
        for &o in tdfg.topo().iter().rev() {
            self.req[o.0 as usize] = required(tdfg, delays, &self.req, o, t, mode);
        }
        for &o in tdfg.topo() {
            let oi = o.0 as usize;
            self.slack[oi] = self.req[oi] - self.arr[oi];
        }
    }
}

/// Computes sequential (or aligned) slack for the timed DFG under the given
/// per-op delays (ps, indexed by op id) and clock period.
///
/// # Panics
///
/// Panics if `clock_ps` is zero or `delays` is shorter than the id space.
#[must_use]
pub fn compute_slack(
    tdfg: &TimedDfg,
    delays: &[i64],
    clock_ps: i64,
    mode: SlackMode,
) -> SlackResult {
    let mut r = SlackResult::default();
    r.fill(tdfg, delays, clock_ps, mode);
    r
}

/// The forward recurrence of Fig. 6: `o`'s earliest start from its
/// predecessors' arrivals. Shared by [`compute_slack`] and
/// [`SlackState::update`], so the two cannot disagree.
#[inline]
fn arrival(tdfg: &TimedDfg, delays: &[i64], arr: &[i64], o: OpId, t: i64, mode: SlackMode) -> i64 {
    let preds = tdfg.preds(o);
    let mut a = if preds.is_empty() { 0 } else { i64::MIN };
    for &(p, w) in preds {
        let pi = p.0 as usize;
        a = a.max(arr[pi] + delays[pi] - t * i64::from(w));
    }
    if mode == SlackMode::Aligned {
        a = align_start_up(a, delays[o.0 as usize], t);
    }
    a
}

/// The backward recurrence of Fig. 6: `o`'s latest start from its sink
/// term and its successors' required times.
#[inline]
fn required(tdfg: &TimedDfg, delays: &[i64], req: &[i64], o: OpId, t: i64, mode: SlackMode) -> i64 {
    let d = delays[o.0 as usize];
    // Sink term: finish by the end of the late-edge state.
    let mut r = t - d + t * i64::from(tdfg.sink_weight(o));
    for &(s, w) in tdfg.succs(o) {
        r = r.min(req[s.0 as usize] - d + t * i64::from(w));
    }
    if mode == SlackMode::Aligned {
        r = align_start_down(r, d, t);
    }
    r
}

/// A slack analysis kept current under single-op delay changes — the
/// access pattern of the budgeting loop, which moves one operation's grade
/// at a time and sometimes takes the move back.
///
/// [`SlackState::update`] re-derives arrivals over the moved op's fan-out
/// and required times over its fan-in, in topological order, and stops
/// wherever a value does not change. Every value it touches is computed by
/// the same recurrence as [`compute_slack`], and a value none of whose
/// inputs changed cannot change, so the state always equals a fresh
/// analysis of the current delays. Each update keeps an undo log of the
/// values it overwrote: [`SlackState::revert`] restores the state before
/// the update, and [`SlackState::turned_negative`] inspects only the ops
/// that changed.
#[derive(Debug, Clone, Default)]
pub struct SlackState {
    r: SlackResult,
    /// Minimum of `r.slack` (`i64::MAX` when no op is timed).
    min: i64,
    /// `(op, arr, req, slack)` before the last update, one entry per op
    /// the update changed.
    undo: Vec<(u32, i64, i64, i64)>,
    /// Minimum slack before the last update.
    undo_min: i64,
    /// Whether an op has an entry in `undo`.
    logged: Vec<bool>,
    /// Worklist of topological positions, one bit each; empty between
    /// updates.
    work: Vec<u64>,
}

impl SlackState {
    /// Wraps a complete analysis (from [`compute_slack`] or the
    /// Bellman-Ford baseline) of the timed DFG later updates will name.
    #[must_use]
    pub fn new(r: SlackResult) -> Self {
        let mut st = SlackState {
            r,
            ..SlackState::default()
        };
        st.reset();
        st
    }

    /// Overwrites the state with a fresh analysis of `tdfg` under `delays`,
    /// reusing its buffers (an empty undo log, as after [`SlackState::new`]).
    pub(crate) fn recompute(&mut self, tdfg: &TimedDfg, delays: &[i64], t: i64, mode: SlackMode) {
        self.r.fill(tdfg, delays, t, mode);
        self.reset();
    }

    /// Sizes the per-op tables to the analysis and empties the undo log.
    fn reset(&mut self) {
        let n = self.r.slack.len();
        self.undo.clear();
        self.logged.clear();
        self.logged.resize(n, false);
        self.work.clear();
        self.work.resize(n.div_ceil(64), 0);
        self.min = self.r.min_slack();
        self.undo_min = self.min;
    }

    /// The current analysis.
    #[must_use]
    pub fn result(&self) -> &SlackResult {
        &self.r
    }

    /// The current analysis, by value.
    #[must_use]
    pub fn into_result(self) -> SlackResult {
        self.r
    }

    /// Current slack per op id.
    #[must_use]
    pub fn slack(&self) -> &[i64] {
        &self.r.slack
    }

    /// Current minimum slack, as [`SlackResult::min_slack`].
    #[must_use]
    pub fn min_slack(&self) -> i64 {
        self.min
    }

    /// The ops whose values the last update (or replace) changed.
    pub(crate) fn changed(&self) -> impl Iterator<Item = usize> + '_ {
        self.undo.iter().map(|&(i, ..)| i as usize)
    }

    /// Brings the analysis up to date after `delays[o]` changed (every
    /// other delay unchanged since the last update), and starts a new undo
    /// log holding exactly the ops whose values changed. Returns how many
    /// per-op recurrences it evaluated (a full analysis evaluates two per
    /// timed op).
    ///
    /// # Panics
    ///
    /// Panics if `o` is not timed or `delays` is shorter than the id space.
    pub fn update(&mut self, tdfg: &TimedDfg, delays: &[i64], o: OpId) -> usize {
        assert!(tdfg.is_timed(o), "delay change on untimed {o}");
        self.begin();
        let (t, mode) = (self.r.clock_ps, self.r.mode);
        let mut evals = 0;
        // Arrivals: `o`'s own (aligned mode reads its delay) and its
        // successors' (they read `arr(o) + del(o)`), then onward wherever
        // an arrival moved. Positions only grow along edges, so an upward
        // scan of the worklist visits each op once, after all its changed
        // predecessors.
        let start = tdfg.topo_pos(o) as usize;
        self.mark(start);
        for &(s, _) in tdfg.succs(o) {
            self.mark(tdfg.topo_pos(s) as usize);
        }
        for w in start / 64..self.work.len() {
            while self.work[w] != 0 {
                let bits = self.work[w];
                self.work[w] = bits & (bits - 1);
                let x = tdfg.topo()[w * 64 + bits.trailing_zeros() as usize];
                evals += 1;
                let a = arrival(tdfg, delays, &self.r.arr, x, t, mode);
                if a != self.r.arr[x.0 as usize] {
                    self.log(x);
                    self.r.arr[x.0 as usize] = a;
                    for &(s, _) in tdfg.succs(x) {
                        self.mark(tdfg.topo_pos(s) as usize);
                    }
                }
            }
        }
        // Required times: `o`'s own (it reads `del(o)`), then backward
        // over the fan-in wherever one moved, by a downward scan.
        self.mark(start);
        for w in (0..=start / 64).rev() {
            while self.work[w] != 0 {
                let b = 63 - self.work[w].leading_zeros() as usize;
                self.work[w] &= !(1 << b);
                let x = tdfg.topo()[w * 64 + b];
                evals += 1;
                let r = required(tdfg, delays, &self.r.req, x, t, mode);
                if r != self.r.req[x.0 as usize] {
                    self.log(x);
                    self.r.req[x.0 as usize] = r;
                    for &(q, _) in tdfg.preds(x) {
                        self.mark(tdfg.topo_pos(q) as usize);
                    }
                }
            }
        }
        let mut rescan = false;
        for k in 0..self.undo.len() {
            let (i, _, _, old) = self.undo[k];
            let i = i as usize;
            let new = self.r.req[i] - self.r.arr[i];
            self.r.slack[i] = new;
            if new < self.min {
                self.min = new;
            } else if old == self.undo_min && new > old {
                rescan = true;
            }
        }
        if rescan {
            self.min = self.r.min_slack();
        }
        evals
    }

    /// Puts topological position `p` on the worklist.
    fn mark(&mut self, p: usize) {
        self.work[p / 64] |= 1 << (p % 64);
    }

    /// Replaces the analysis with a complete recomputation `r` of the same
    /// graph (the Bellman-Ford engine's refresh), logging the ops whose
    /// values differ like [`SlackState::update`] does.
    pub fn replace(&mut self, r: SlackResult) {
        self.begin();
        for i in 0..r.slack.len() {
            if (r.arr[i], r.req[i], r.slack[i]) != (self.r.arr[i], self.r.req[i], self.r.slack[i]) {
                self.log(OpId(i as u32));
            }
        }
        self.min = r.min_slack();
        self.r = r;
    }

    /// Whether the last update drove some op's slack from non-negative to
    /// negative.
    #[must_use]
    pub fn turned_negative(&self) -> bool {
        self.undo
            .iter()
            .any(|&(i, _, _, old)| old >= 0 && self.r.slack[i as usize] < 0)
    }

    /// Restores the analysis from before the last update (or replace).
    pub fn revert(&mut self) {
        for &(i, a, r, s) in &self.undo {
            let i = i as usize;
            self.r.arr[i] = a;
            self.r.req[i] = r;
            self.r.slack[i] = s;
            self.logged[i] = false;
        }
        self.undo.clear();
        self.min = self.undo_min;
    }

    /// Closes the previous update's undo log.
    fn begin(&mut self) {
        for &(i, ..) in &self.undo {
            self.logged[i as usize] = false;
        }
        self.undo.clear();
        self.undo_min = self.min;
    }

    /// Records `o`'s values before their first change in this update.
    fn log(&mut self, o: OpId) {
        let i = o.0 as usize;
        if !self.logged[i] {
            self.logged[i] = true;
            self.undo
                .push((o.0, self.r.arr[i], self.r.req[i], self.r.slack[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdfg::TimedDfg;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::cfg::{Cfg, NodeKind, StateKind};
    use adhls_ir::op::{Op, OpKind};
    use adhls_ir::{Design, Dfg};

    /// Rebuilds the paper's Fig. 4/5 resizer design (same construction as
    /// the `adhls-ir` span tests) and returns it with the interesting ops.
    fn resizer() -> (Design, Vec<(&'static str, OpId)>) {
        let mut g = Cfg::new("resizer");
        let start = g.add_node(NodeKind::Start);
        let loop_top = g.add_node(NodeKind::Join);
        let if_top = g.add_node(NodeKind::Fork);
        let s0 = g.add_node(NodeKind::State(StateKind::Hard));
        let s1 = g.add_node(NodeKind::State(StateKind::Hard));
        let if_bottom = g.add_node(NodeKind::Join);
        let s2 = g.add_node(NodeKind::State(StateKind::Hard));
        let loop_bottom = g.add_node(NodeKind::Plain);
        g.add_edge(start, loop_top);
        let e1 = g.add_edge(loop_top, if_top);
        let e2 = g.add_branch_edge(if_top, s0, true);
        let e3 = g.add_branch_edge(if_top, s1, false);
        let e4 = g.add_edge(s0, if_bottom);
        let e5 = g.add_edge(s1, if_bottom);
        let e6 = g.add_edge(if_bottom, s2);
        let e7 = g.add_edge(s2, loop_bottom);
        g.add_back_edge(loop_bottom, loop_top);
        let _ = (e2, e3);

        let mut d = Dfg::new();
        let w = 16;
        let rd_a = d.add_op(Op::new(OpKind::Read, w).named("a"), e1, &[]);
        let offset = d.add_op(Op::new(OpKind::Const(3), w), e1, &[]);
        let add = d.add_op(Op::new(OpKind::Add, w), e1, &[rd_a, offset]);
        let th = d.add_op(Op::new(OpKind::Const(100), w), e1, &[]);
        let gt = d.add_op(Op::new(OpKind::Gt, 1), e1, &[add, th]);
        g.set_cond(if_top, gt);
        let scale = d.add_op(Op::new(OpKind::Const(2), w), e4, &[]);
        let div = d.add_op(Op::new(OpKind::Div, w), e4, &[add, scale]);
        let sub = d.add_op(Op::new(OpKind::Sub, w), e4, &[div, offset]);
        let rd_b = d.add_op(Op::new(OpKind::Read, w).named("b"), e5, &[]);
        let mul = d.add_op(Op::new(OpKind::Mul, w), e5, &[add, rd_b]);
        let mux = d.add_op(Op::new(OpKind::Mux, w), e6, &[gt, sub, mul]);
        let wr = d.add_op(Op::new(OpKind::Write, w).named("out"), e7, &[mux]);
        (
            Design::new(g, d),
            vec![
                ("rd_a", rd_a),
                ("add", add),
                ("gt", gt),
                ("div", div),
                ("sub", sub),
                ("rd_b", rd_b),
                ("mul", mul),
                ("mux", mux),
                ("wr", wr),
            ],
        )
    }

    /// Paper Table 3, with concrete values satisfying `D + d < T < 2D`.
    ///
    /// The paper's walk-through sets del(I/O) = d, del(others) = D and omits
    /// the `gt` comparison from the table; we give it delay 0 so the DFG
    /// matches the published closed forms exactly.
    #[test]
    fn table3_closed_forms() {
        let (design, ops) = resizer();
        let (info, spans) = design.analyze().unwrap();
        let tdfg = TimedDfg::build(&design.dfg, &info, &spans).unwrap();
        let (d, big_d, t) = (100i64, 600i64, 1100i64);
        assert!(big_d + d < t && t < 2 * big_d, "Table 3 precondition");
        let op = |name: &str| ops.iter().find(|(n, _)| *n == name).unwrap().1;
        let mut delays = vec![0i64; design.dfg.len_ids()];
        for (name, o) in &ops {
            delays[o.0 as usize] = match *name {
                "rd_a" | "rd_b" | "wr" => d,
                "gt" => 0,
                _ => big_d,
            };
        }
        let r = compute_slack(&tdfg, &delays, t, SlackMode::Plain);

        // Row by row from paper Table 3.
        assert_eq!(r.arr[op("rd_a").0 as usize], 0);
        assert_eq!(r.req[op("rd_a").0 as usize], 2 * t - 4 * big_d - d);
        assert_eq!(r.slack(op("rd_a")), 2 * t - 4 * big_d - d);

        assert_eq!(r.arr[op("add").0 as usize], d);
        assert_eq!(r.req[op("add").0 as usize], 2 * t - 4 * big_d);
        assert_eq!(r.slack(op("add")), 2 * t - 4 * big_d - d);

        assert_eq!(r.arr[op("div").0 as usize], d + big_d);
        assert_eq!(r.req[op("div").0 as usize], 2 * t - 3 * big_d);
        assert_eq!(r.slack(op("div")), 2 * t - 4 * big_d - d);

        assert_eq!(r.arr[op("sub").0 as usize], d + 2 * big_d);
        assert_eq!(r.req[op("sub").0 as usize], 2 * t - 2 * big_d);
        assert_eq!(r.slack(op("sub")), 2 * t - 4 * big_d - d);

        assert_eq!(r.arr[op("rd_b").0 as usize], 0);
        assert_eq!(r.req[op("rd_b").0 as usize], t - 2 * big_d - d);
        assert_eq!(r.slack(op("rd_b")), t - 2 * big_d - d);

        assert_eq!(r.arr[op("mul").0 as usize], d);
        assert_eq!(r.req[op("mul").0 as usize], t - 2 * big_d);
        assert_eq!(r.slack(op("mul")), t - 2 * big_d - d);

        assert_eq!(r.arr[op("mux").0 as usize], d + 3 * big_d - t);
        assert_eq!(r.req[op("mux").0 as usize], t - big_d);
        assert_eq!(r.slack(op("mux")), 2 * t - 4 * big_d - d);

        assert_eq!(r.arr[op("wr").0 as usize], d + 4 * big_d - 2 * t);
        assert_eq!(r.req[op("wr").0 as usize], t - d);
        assert_eq!(r.slack(op("wr")), 3 * t - 4 * big_d - 2 * d);
    }

    /// Paper §V: "the important property of combinational slack, namely
    /// that all gates on the critical path have the same minimal slack, is
    /// preserved" — rd_a → add → div → sub → mux.
    #[test]
    fn critical_path_has_uniform_min_slack() {
        let (design, ops) = resizer();
        let (info, spans) = design.analyze().unwrap();
        let tdfg = TimedDfg::build(&design.dfg, &info, &spans).unwrap();
        let mut delays = vec![0i64; design.dfg.len_ids()];
        for (name, o) in &ops {
            delays[o.0 as usize] = match *name {
                "rd_a" | "rd_b" | "wr" => 100,
                "gt" => 0,
                _ => 600,
            };
        }
        let r = compute_slack(&tdfg, &delays, 1100, SlackMode::Plain);
        let names: Vec<&str> = ops
            .iter()
            .filter(|(_, o)| r.slack(*o) == r.min_slack())
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, vec!["rd_a", "add", "div", "sub", "mux"]);
    }

    #[test]
    fn aligned_mode_pushes_crossing_ops() {
        // Two chained 600ps ops under a 1000ps clock with a 2-cycle budget:
        // plain slack lets the second start at 600 (crossing); aligned mode
        // pushes its start to 1000.
        let mut b = DesignBuilder::new("chain");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        b.soft_wait();
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let mut delays = vec![0i64; d.dfg.len_ids()];
        delays[m1.0 as usize] = 600;
        delays[m2.0 as usize] = 600;
        let plain = compute_slack(&tdfg, &delays, 1000, SlackMode::Plain);
        let aligned = compute_slack(&tdfg, &delays, 1000, SlackMode::Aligned);
        assert_eq!(plain.arr[m2.0 as usize], 600);
        assert_eq!(aligned.arr[m2.0 as usize], 1000);
        assert!(aligned.slack(m2) <= plain.slack(m2));
    }

    #[test]
    fn infeasible_chain_has_negative_slack() {
        // Three chained 600ps muls forced into one 1000ps cycle.
        let mut b = DesignBuilder::new("tight");
        let x = b.read("in", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        let m3 = b.binop(OpKind::Mul, m2, m2, 8);
        b.write("y", m3);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let mut delays = vec![0i64; d.dfg.len_ids()];
        for o in [m1, m2, m3] {
            delays[o.0 as usize] = 600;
        }
        let r = compute_slack(&tdfg, &delays, 1000, SlackMode::Aligned);
        assert!(r.min_slack() < 0);
    }

    #[test]
    fn a_zero_slack_op_turning_negative_is_seen_under_a_lower_minimum() {
        // Two independent chains in one 1000ps cycle: three chained 600ps
        // muls (far negative slack) and a lone mul set to exactly zero
        // slack. Slowing the lone mul by 10ps drives its chain from 0 to
        // -10 while the global minimum stays put, so only
        // `turned_negative` can see the change.
        let mut b = DesignBuilder::new("masked");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        let m3 = b.binop(OpKind::Mul, m2, m2, 8);
        b.write("y", m3);
        let z = b.input("z", 8);
        let lone = b.binop(OpKind::Mul, z, z, 8);
        b.write("w", lone);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let tdfg = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let mut delays = vec![0i64; d.dfg.len_ids()];
        for o in [m1, m2, m3] {
            delays[o.0 as usize] = 600;
        }
        let free = compute_slack(&tdfg, &delays, 1000, SlackMode::Plain).slack(lone);
        delays[lone.0 as usize] = free;
        let mut st = SlackState::new(compute_slack(&tdfg, &delays, 1000, SlackMode::Plain));
        let min = st.min_slack();
        assert_eq!(st.slack()[lone.0 as usize], 0);
        assert!(min < -10, "the muls' chain sets the minimum: {min}");
        delays[lone.0 as usize] = free + 10;
        st.update(&tdfg, &delays, lone);
        assert_eq!(st.slack()[lone.0 as usize], -10);
        assert_eq!(st.min_slack(), min);
        assert!(st.turned_negative());
    }
}
