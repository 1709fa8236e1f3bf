//! Operation spans (paper §IV, Definition 4).
//!
//! The *opSpan* of an operation is the topologically ordered set of CFG
//! edges it may legally be scheduled on — the generalization of an
//! ASAP/ALAP interval to arbitrary control structures.
//!
//! The paper's Definition 4 specifies spans through `early`/`late`
//! reachability but leaves the *control legality* of code motion implicit.
//! We make it explicit (and verify against every span the paper lists for
//! its Fig. 4/5 resizer example):
//!
//! * **Fixed** operations (I/O reads/writes — they implement the
//!   communication protocol) and source-like operations (constants, inputs,
//!   loop φs) stay on their birth edge.
//! * An operation may be **hoisted** (speculated) to any edge that
//!   *edge-dominates* its birth edge within the same loop nest: every
//!   execution reaching the birth edge has already executed the hoisted
//!   position, so operands permitting, the value is simply computed earlier.
//! * An operation may be **sunk** only to control-equivalent later edges
//!   (its birth edge dominates them and they post-dominate it) that are not
//!   separated from the birth edge by a **hard** state: `wait()` is an
//!   observable synchronization point, so computation does not migrate
//!   across it, while scheduler-inserted soft states exist precisely to give
//!   operations room to move.
//!
//! `early(o)` is then the first legal edge where every operand value is
//!   available (an operand computed on the same edge can be *chained*
//!   combinationally), and `late(o)` the last legal edge from which every
//!   consumer's `late` edge is still reachable.

use crate::cfg::{CfgInfo, EdgeId};
use crate::dfg::{Dfg, OpId};
use crate::error::{Error, Result};

/// Span of one operation: `early`/`late` edges plus the full legal edge set
/// between them, in topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Earliest legal edge (paper: `early(o)`, the head of the span).
    pub early: EdgeId,
    /// Latest legal edge (paper: `late(o)`).
    pub late: EdgeId,
    /// All legal edges `e` with `early →* e →* late`, topologically ordered.
    pub edges: Vec<EdgeId>,
}

impl SpanInfo {
    /// True when `e` belongs to the span.
    #[must_use]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Number of edges in the span (1 = the operation cannot move).
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the span is a single edge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Reusable legality sets: which edges each operation may ever be scheduled
/// on, independent of operand positions. Compute once, then derive
/// [`OpSpans`] (or the allocation-free [`SpanBounds`]) repeatedly as
/// scheduling pins operations.
#[derive(Debug, Clone)]
pub struct SpanAnalysis {
    /// Legal edges of every op id, each op's sorted by topological
    /// position; op `o`'s are `legal[legal_start[o]..legal_start[o + 1]]`.
    legal: Vec<EdgeId>,
    legal_start: Vec<u32>,
    /// Cached forward topological order of the DFG (invariant under
    /// pinning).
    topo: Vec<OpId>,
    /// Position of each live op in `topo` (`u32::MAX` for dead ids).
    pos: Vec<u32>,
}

impl SpanAnalysis {
    /// Builds the legality sets for every live operation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadBirth`] if an operation's birth edge is a back
    /// edge (cannot host operations).
    pub fn new(dfg: &Dfg, info: &CfgInfo) -> Result<Self> {
        let topo = dfg.topo_order()?;
        let mut legal: Vec<EdgeId> = Vec::new();
        let mut legal_start = vec![0u32; dfg.len_ids() + 1];
        for o in dfg.op_ids() {
            let birth = dfg.birth(o);
            if info.is_back_edge(birth) {
                return Err(Error::BadBirth(format!("{o} born on back edge {birth}")));
            }
            let kind = dfg.op(o).kind();
            let from = legal.len();
            if kind.is_fixed() || kind.is_source_like() {
                legal.push(birth);
            } else {
                let birth_loops = info.loops_of(birth);
                for f in 0..info.len_edges() {
                    let e = EdgeId(f as u32);
                    if info.is_back_edge(e) || info.loops_of(e) != birth_loops {
                        continue;
                    }
                    let hoist = info.edge_dominates(e, birth);
                    let sink = info.edge_dominates(birth, e)
                        && info.edge_postdominates(e, birth)
                        && info.hard_latency(birth, e) == Some(0);
                    if hoist || sink {
                        legal.push(e);
                    }
                }
            }
            legal[from..].sort_by_key(|&e| info.edge_topo_pos(e));
            legal_start[o.0 as usize + 1] = legal.len() as u32;
        }
        // A dead id's range is empty: it starts and ends where the last
        // live id before it ended.
        for i in 1..legal_start.len() {
            legal_start[i] = legal_start[i].max(legal_start[i - 1]);
        }
        legal.shrink_to_fit();
        let mut pos = vec![u32::MAX; dfg.len_ids()];
        for (k, &o) in topo.iter().enumerate() {
            pos[o.0 as usize] = k as u32;
        }
        Ok(SpanAnalysis {
            legal,
            legal_start,
            topo,
            pos,
        })
    }

    /// Legal edges for `o`, in topological order.
    #[must_use]
    pub fn legal(&self, o: OpId) -> &[EdgeId] {
        let i = o.0 as usize;
        &self.legal[self.legal_start[i] as usize..self.legal_start[i + 1] as usize]
    }

    /// Heap bytes the analysis holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use crate::vec_heap_bytes as b;
        b(&self.legal) + b(&self.legal_start) + b(&self.topo) + b(&self.pos)
    }

    /// Computes spans with no operations pinned (the pre-scheduling
    /// analysis of the paper's Fig. 6 step 1).
    ///
    /// # Errors
    ///
    /// See [`SpanAnalysis::compute_pinned`].
    pub fn compute(&self, dfg: &Dfg, info: &CfgInfo) -> Result<OpSpans> {
        self.compute_pinned(dfg, info, |_| None)
    }

    /// Computes spans while honoring scheduling decisions already made:
    /// `pin(o) = Some(e)` fixes `o` to edge `e` (its span collapses to that
    /// edge, and consumers see its value there). Used by `Schedule_pass`
    /// step (c) — "recompute opspan of not-scheduled operations".
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedDfg`] when no legal edge can satisfy an
    /// operation's operand availability (inconsistent pinning or a
    /// malformed graph).
    pub fn compute_pinned(
        &self,
        dfg: &Dfg,
        info: &CfgInfo,
        pin: impl Fn(OpId) -> Option<EdgeId>,
    ) -> Result<OpSpans> {
        let bounds = self.bounds_pinned(dfg, info, &pin)?;
        // Assemble span edge lists.
        let n = dfg.len_ids();
        let mut spans: Vec<Option<SpanInfo>> = vec![None; n];
        for o in dfg.op_ids() {
            let e = bounds.early(o);
            let l = bounds.late(o);
            let edges: Vec<EdgeId> = if pin(o).is_some() {
                vec![e]
            } else {
                self.legal(o)
                    .iter()
                    .copied()
                    .filter(|&x| info.reaches(e, x) && info.reaches(x, l))
                    .collect()
            };
            spans[o.0 as usize] = Some(SpanInfo {
                early: e,
                late: l,
                edges,
            });
        }
        Ok(OpSpans { spans })
    }

    /// Allocation-free pinned span computation: only `early`/`late` bounds
    /// (the scheduler's per-edge re-analysis needs nothing more; full
    /// [`OpSpans`] edge lists are built once for final validation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpanAnalysis::compute_pinned`].
    pub fn bounds_pinned(
        &self,
        dfg: &Dfg,
        info: &CfgInfo,
        pin: impl Fn(OpId) -> Option<EdgeId>,
    ) -> Result<SpanBounds> {
        let n = dfg.len_ids();
        let mut early: Vec<Option<EdgeId>> = vec![None; n];
        let mut late: Vec<Option<EdgeId>> = vec![None; n];
        for &o in &self.topo {
            early[o.0 as usize] = Some(match pin(o) {
                Some(e) => e,
                None => self.early_of(dfg, info, &early, o)?,
            });
        }
        for &o in self.topo.iter().rev() {
            late[o.0 as usize] = Some(match pin(o) {
                Some(e) => e,
                None => self.late_of(dfg, info, &early, &late, o)?,
            });
        }
        Ok(SpanBounds { early, late })
    }

    /// Brings `bounds` up to date after the ops in `new_pins` were pinned:
    /// `bounds` must be this analysis's [`SpanAnalysis::bounds_pinned`]
    /// result for `pin` with `new_pins` unpinned, and afterwards equals the
    /// result for `pin`. Ops whose early or late bound changed are written
    /// to `moved`, each once.
    ///
    /// An early bound depends only on the op's pin and its operands' early
    /// bounds, a late bound only on the op's pin, its early bound and its
    /// users' late bounds. So early bounds are re-derived forward from the
    /// new pins over their fan-out, late bounds backward from every op
    /// whose pin or early bound changed over its fan-in, each in
    /// topological order and only past ops whose bound moved — the same
    /// per-op rules the full sweeps apply, to exactly the ops whose inputs
    /// changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpanAnalysis::bounds_pinned`] over `pin`; on
    /// error `bounds` is left partially updated.
    pub fn repin(
        &self,
        dfg: &Dfg,
        info: &CfgInfo,
        bounds: &mut SpanBounds,
        pin: impl Fn(OpId) -> Option<EdgeId>,
        new_pins: &[OpId],
        moved: &mut Vec<OpId>,
    ) -> Result<()> {
        const FWD: u8 = 1; // early bound must be re-derived
        const BWD: u8 = 2; // late bound must be re-derived
        const MOVED: u8 = 4; // listed in `moved`
        moved.clear();
        let Some(lo) = new_pins.iter().map(|o| self.pos[o.0 as usize]).min() else {
            return Ok(());
        };
        // Flags per topological position. Forward edges only go to higher
        // positions, so one upward sweep re-derives every early bound after
        // all its changed operands, and one downward sweep every late bound
        // after all its changed users.
        let mut flags = vec![0u8; self.topo.len()];
        let mut hi = lo;
        for o in new_pins {
            let p = self.pos[o.0 as usize];
            flags[p as usize] |= FWD | BWD;
            hi = hi.max(p);
        }
        let mut p = lo;
        while p <= hi {
            if flags[p as usize] & FWD != 0 {
                let o = self.topo[p as usize];
                let e = match pin(o) {
                    Some(e) => e,
                    None => self.early_of(dfg, info, &bounds.early, o)?,
                };
                if bounds.early[o.0 as usize] != Some(e) {
                    bounds.early[o.0 as usize] = Some(e);
                    flags[p as usize] |= BWD | MOVED;
                    moved.push(o);
                    for (u, _) in dfg.forward_users(o) {
                        let q = self.pos[u.0 as usize];
                        flags[q as usize] |= FWD;
                        hi = hi.max(q);
                    }
                }
            }
            p += 1;
        }
        let mut lo = lo;
        let mut p = hi + 1;
        while p > lo {
            p -= 1;
            if flags[p as usize] & BWD == 0 {
                continue;
            }
            let o = self.topo[p as usize];
            let l = match pin(o) {
                Some(e) => e,
                None => self.late_of(dfg, info, &bounds.early, &bounds.late, o)?,
            };
            if bounds.late[o.0 as usize] != Some(l) {
                bounds.late[o.0 as usize] = Some(l);
                if flags[p as usize] & MOVED == 0 {
                    moved.push(o);
                }
                for q in dfg.forward_operands(o) {
                    let q = self.pos[q.0 as usize];
                    flags[q as usize] |= BWD;
                    lo = lo.min(q);
                }
            }
        }
        Ok(())
    }

    /// Earliest legal edge of unpinned `o` with all operand values
    /// available (chaining on the same edge allowed → reflexive reach),
    /// given its operands' early bounds.
    #[inline]
    fn early_of(
        &self,
        dfg: &Dfg,
        info: &CfgInfo,
        early: &[Option<EdgeId>],
        o: OpId,
    ) -> Result<EdgeId> {
        'edges: for &e in self.legal(o) {
            for p in dfg.forward_operands(o) {
                if dfg.op(p).kind().is_const() {
                    continue; // constants are always available
                }
                let pe = early[p.0 as usize].ok_or_else(|| {
                    Error::MalformedDfg(format!("operand {p} of {o} has no early edge"))
                })?;
                if !info.reaches(pe, e) {
                    continue 'edges;
                }
            }
            return Ok(e);
        }
        Err(Error::MalformedDfg(format!(
            "no legal edge for {o} satisfies operand availability"
        )))
    }

    /// Latest legal edge of unpinned `o` from which every consumer's late
    /// edge is still reachable, given its early bound and its users' late
    /// bounds.
    #[inline]
    fn late_of(
        &self,
        dfg: &Dfg,
        info: &CfgInfo,
        early: &[Option<EdgeId>],
        late: &[Option<EdgeId>],
        o: OpId,
    ) -> Result<EdgeId> {
        let eo = early[o.0 as usize].expect("early computed before late");
        // Constants are hardwired literals: they have no timing position
        // and never constrain (nor are constrained by) their consumers —
        // a consumer may even be hoisted above the constant's birth.
        if dfg.op(o).kind().is_const() {
            return Ok(eo);
        }
        for &e in self.legal(o).iter().rev() {
            if !info.reaches(eo, e) {
                continue; // must stay within [early, ...]
            }
            let ok = dfg
                .forward_users(o)
                .all(|(u, _)| late[u.0 as usize].is_some_and(|ul| info.reaches(e, ul)));
            if ok {
                return Ok(e);
            }
        }
        // No users (dead value): collapse to early.
        if dfg.forward_users(o).next().is_none() {
            return Ok(eo);
        }
        Err(Error::MalformedDfg(format!(
            "no legal edge for {o} satisfies its users"
        )))
    }
}

/// Early/late scheduling bounds per operation, without materialized edge
/// lists. Produced by [`SpanAnalysis::bounds_pinned`].
#[derive(Debug)]
pub struct SpanBounds {
    early: Vec<Option<EdgeId>>,
    late: Vec<Option<EdgeId>>,
}

impl Clone for SpanBounds {
    fn clone(&self) -> Self {
        SpanBounds {
            early: self.early.clone(),
            late: self.late.clone(),
        }
    }

    /// Field-wise, so resetting pinned bounds to their source reuses both
    /// allocations.
    fn clone_from(&mut self, src: &Self) {
        self.early.clone_from(&src.early);
        self.late.clone_from(&src.late);
    }
}

impl SpanBounds {
    /// Heap bytes the bounds hold.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        crate::vec_heap_bytes(&self.early) + crate::vec_heap_bytes(&self.late)
    }

    /// Early edge of `o`.
    ///
    /// # Panics
    ///
    /// Panics for dead/unknown ops.
    #[must_use]
    pub fn early(&self, o: OpId) -> EdgeId {
        self.early[o.0 as usize].expect("bounds queried for unknown/dead op")
    }

    /// Late edge of `o`.
    ///
    /// # Panics
    ///
    /// Panics for dead/unknown ops.
    #[must_use]
    pub fn late(&self, o: OpId) -> EdgeId {
        self.late[o.0 as usize].expect("bounds queried for unknown/dead op")
    }

    /// Whether `o` may be scheduled on `e`: `e` must be legal for `o` and
    /// lie between the current early and late bounds.
    #[must_use]
    pub fn contains(&self, analysis: &SpanAnalysis, info: &CfgInfo, o: OpId, e: EdgeId) -> bool {
        let (early, late) = (self.early(o), self.late(o));
        info.reaches(early, e)
            && info.reaches(e, late)
            && (e == early || analysis.legal(o).contains(&e))
    }
}

/// Spans for every live operation of a DFG. Produced by [`SpanAnalysis`];
/// the convenience constructor [`OpSpans::compute`] does both steps.
#[derive(Debug, Clone)]
pub struct OpSpans {
    spans: Vec<Option<SpanInfo>>,
}

impl OpSpans {
    /// One-shot span computation (builds a throwaway [`SpanAnalysis`]).
    ///
    /// # Errors
    ///
    /// See [`SpanAnalysis::new`] and [`SpanAnalysis::compute_pinned`].
    pub fn compute(dfg: &Dfg, info: &CfgInfo) -> Result<OpSpans> {
        SpanAnalysis::new(dfg, info)?.compute(dfg, info)
    }

    /// Span of operation `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is dead or was added after the spans were computed.
    #[must_use]
    pub fn span(&self, o: OpId) -> &SpanInfo {
        self.spans[o.0 as usize]
            .as_ref()
            .expect("span queried for unknown/dead op")
    }

    /// Early edge of `o`.
    #[must_use]
    pub fn early(&self, o: OpId) -> EdgeId {
        self.span(o).early
    }

    /// Late edge of `o`.
    #[must_use]
    pub fn late(&self, o: OpId) -> EdgeId {
        self.span(o).late
    }

    /// Paper Definition V.1 part 2: the latency of DFG edge `(a, b)` is
    /// `latency(early(a), early(b))` in the CFG.
    #[must_use]
    pub fn dfg_edge_latency(&self, info: &CfgInfo, a: OpId, b: OpId) -> Option<u32> {
        info.latency(self.early(a), self.early(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, NodeKind, StateKind};
    use crate::op::{Op, OpKind};

    /// Builds the paper's full Fig. 4 resizer example: CFG + DFG for the
    /// main computation. Returns (design, edge ids, op ids by name).
    pub(crate) fn resizer_design() -> (crate::Design, [EdgeId; 9], ResizerOps) {
        let mut g = Cfg::new("resizer");
        let start = g.add_node(NodeKind::Start);
        let loop_top = g.add_node(NodeKind::Join);
        let if_top = g.add_node(NodeKind::Fork);
        let s0 = g.add_node(NodeKind::State(StateKind::Hard));
        let s1 = g.add_node(NodeKind::State(StateKind::Hard));
        let if_bottom = g.add_node(NodeKind::Join);
        let s2 = g.add_node(NodeKind::State(StateKind::Hard));
        let loop_bottom = g.add_node(NodeKind::Plain);
        let e0 = g.add_edge(start, loop_top);
        let e1 = g.add_edge(loop_top, if_top);
        let e2 = g.add_branch_edge(if_top, s0, true);
        let e3 = g.add_branch_edge(if_top, s1, false);
        let e4 = g.add_edge(s0, if_bottom);
        let e5 = g.add_edge(s1, if_bottom);
        let e6 = g.add_edge(if_bottom, s2);
        let e7 = g.add_edge(s2, loop_bottom);
        let e8 = g.add_back_edge(loop_bottom, loop_top);

        let mut d = Dfg::new();
        let w = 16;
        // x = a.read() + offset;  (born e1)
        let rd_a = d.add_op(Op::new(OpKind::Read, w).named("a"), e1, &[]);
        let offset = d.add_op(Op::new(OpKind::Const(3), w), e1, &[]);
        let add = d.add_op(Op::new(OpKind::Add, w).named("x"), e1, &[rd_a, offset]);
        // cond: x > th (born e1)
        let th = d.add_op(Op::new(OpKind::Const(100), w), e1, &[]);
        let gt = d.add_op(Op::new(OpKind::Gt, 1), e1, &[add, th]);
        g.set_cond(if_top, gt);
        // then-branch, after s0: y0 = x / scale - offset (born e4)
        let scale = d.add_op(Op::new(OpKind::Const(2), w), e4, &[]);
        let div = d.add_op(Op::new(OpKind::Div, w), e4, &[add, scale]);
        let sub = d.add_op(Op::new(OpKind::Sub, w), e4, &[div, offset]);
        // else-branch, after s1: y1 = x * b.read() (born e5)
        let rd_b = d.add_op(Op::new(OpKind::Read, w).named("b"), e5, &[]);
        let mul = d.add_op(Op::new(OpKind::Mul, w), e5, &[add, rd_b]);
        // join: y = mux(cond, y0, y1) (born e6)
        let mux = d.add_op(Op::new(OpKind::Mux, w).named("y"), e6, &[gt, sub, mul]);
        // after s2: out.write(y) (born e7)
        let wr = d.add_op(Op::new(OpKind::Write, w).named("out"), e7, &[mux]);

        let design = crate::Design::new(g, d);
        (
            design,
            [e0, e1, e2, e3, e4, e5, e6, e7, e8],
            ResizerOps {
                rd_a,
                add,
                gt,
                div,
                sub,
                rd_b,
                mul,
                mux,
                wr,
            },
        )
    }

    pub(crate) struct ResizerOps {
        pub rd_a: OpId,
        pub add: OpId,
        // Kept so the helper mirrors the full resizer op set even though no
        // current test asserts on the comparison op.
        #[allow(dead_code)]
        pub gt: OpId,
        pub div: OpId,
        pub sub: OpId,
        pub rd_b: OpId,
        pub mul: OpId,
        pub mux: OpId,
        pub wr: OpId,
    }

    #[test]
    fn paper_fig4_spans_reproduced_exactly() {
        let (design, e, ops) = resizer_design();
        let (_info, spans) = design.analyze().unwrap();
        // Paper §IV/Fig. 5: span(wr) = {e7}, span(div) = {e1,e2,e4},
        // span(rd_a) = {e1}, span(add) = {e1}, span(sub) = {e1,e2,e4},
        // span(rd_b) = {e5}, span(mul) = {e5}, span(mux) = {e6}.
        assert_eq!(spans.span(ops.wr).edges, vec![e[7]]);
        assert_eq!(spans.span(ops.div).edges, vec![e[1], e[2], e[4]]);
        assert_eq!(spans.span(ops.sub).edges, vec![e[1], e[2], e[4]]);
        assert_eq!(spans.span(ops.rd_a).edges, vec![e[1]]);
        assert_eq!(spans.span(ops.add).edges, vec![e[1]]);
        assert_eq!(spans.span(ops.rd_b).edges, vec![e[5]]);
        assert_eq!(spans.span(ops.mul).edges, vec![e[5]]);
        assert_eq!(spans.span(ops.mux).edges, vec![e[6]]);
    }

    #[test]
    fn paper_fig5_dfg_edge_latencies() {
        let (design, _e, ops) = resizer_design();
        let (info, spans) = design.analyze().unwrap();
        // Paper §V: latency(add,div) = 0, latency(add,mul) = 1.
        assert_eq!(spans.dfg_edge_latency(&info, ops.add, ops.div), Some(0));
        assert_eq!(spans.dfg_edge_latency(&info, ops.add, ops.mul), Some(1));
        // From Fig. 5(b): div->sub weight 0, sub->mux weight 1,
        // mul->mux weight 0, mux->wr weight 1, rd_a->add 0, rd_b->mul 0.
        assert_eq!(spans.dfg_edge_latency(&info, ops.div, ops.sub), Some(0));
        assert_eq!(spans.dfg_edge_latency(&info, ops.sub, ops.mux), Some(1));
        assert_eq!(spans.dfg_edge_latency(&info, ops.mul, ops.mux), Some(0));
        assert_eq!(spans.dfg_edge_latency(&info, ops.mux, ops.wr), Some(1));
        assert_eq!(spans.dfg_edge_latency(&info, ops.rd_a, ops.add), Some(0));
        assert_eq!(spans.dfg_edge_latency(&info, ops.rd_b, ops.mul), Some(0));
    }

    #[test]
    fn pinning_collapses_spans_and_constrains_consumers() {
        let (design, e, ops) = resizer_design();
        let (info, _) = design.analyze().unwrap();
        let analysis = SpanAnalysis::new(&design.dfg, &info).unwrap();
        // Pin div to e4 (its latest edge): sub's early must move to e4.
        let spans = analysis
            .compute_pinned(&design.dfg, &info, |o| (o == ops.div).then_some(e[4]))
            .unwrap();
        assert_eq!(spans.span(ops.div).edges, vec![e[4]]);
        assert_eq!(spans.early(ops.sub), e[4]);
    }

    #[test]
    fn soft_states_allow_sinking() {
        // start -> A -e1-> B with 2 soft states inserted on e1: an op born on
        // e1 may sink across the soft states.
        let mut g = Cfg::new("soft");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, a);
        let e1 = g.add_edge(a, b);
        let extra = g.insert_soft_states(e1, 2);
        let mut d = Dfg::new();
        let x = d.add_op(Op::new(OpKind::Input, 8).named("x"), e1, &[]);
        let y = d.add_op(Op::new(OpKind::Input, 8).named("y"), e1, &[]);
        let m = d.add_op(Op::new(OpKind::Mul, 8), e1, &[x, y]);
        let m2 = d.add_op(Op::new(OpKind::Mul, 8), e1, &[m, y]);
        let design = crate::Design::new(g, d);
        let (_info, spans) = design.analyze().unwrap();
        // m may occupy e1 or either soft-state edge.
        assert_eq!(spans.span(m).edges, vec![e1, extra[0], extra[1]]);
        assert_eq!(spans.span(m2).edges, vec![e1, extra[0], extra[1]]);
        assert_eq!(spans.early(m2), e1); // chaining with m on e1 is allowed
    }

    #[test]
    fn repin_matches_a_full_recompute() {
        // Soft states give ops room to move; the resizer adds branches.
        let mut g = Cfg::new("soft");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, a);
        let e1 = g.add_edge(a, b);
        g.insert_soft_states(e1, 3);
        let mut d = Dfg::new();
        let x = d.add_op(Op::new(OpKind::Input, 8), e1, &[]);
        let m1 = d.add_op(Op::new(OpKind::Mul, 8), e1, &[x, x]);
        let m2 = d.add_op(Op::new(OpKind::Mul, 8), e1, &[m1, x]);
        let m3 = d.add_op(Op::new(OpKind::Add, 8), e1, &[m2, m1]);
        d.add_op(Op::new(OpKind::Mul, 8), e1, &[m3, m3]);
        let soft = crate::Design::new(g, d);
        for design in [soft, resizer_design().0] {
            let (dfg, info) = (&design.dfg, design.validate().unwrap());
            let analysis = SpanAnalysis::new(dfg, &info).unwrap();
            let mut pins: Vec<Option<EdgeId>> = vec![None; dfg.len_ids()];
            let mut bounds = analysis.bounds_pinned(dfg, &info, |_| None).unwrap();
            let mut moved = Vec::new();
            // Pin in topological order, two at a time, alternately at the
            // current early edge (as soon as possible, which moves late
            // bounds) and at the current late edge (which moves early ones).
            for (k, batch) in analysis.topo.clone().chunks(2).enumerate() {
                for &o in batch {
                    let at = if k % 2 == 0 {
                        bounds.early(o)
                    } else {
                        bounds.late(o)
                    };
                    pins[o.0 as usize] = Some(at);
                }
                let before = bounds.clone();
                analysis
                    .repin(
                        dfg,
                        &info,
                        &mut bounds,
                        |o| pins[o.0 as usize],
                        batch,
                        &mut moved,
                    )
                    .unwrap();
                let full = analysis
                    .bounds_pinned(dfg, &info, |o| pins[o.0 as usize])
                    .unwrap();
                for o in dfg.op_ids() {
                    let now = (bounds.early(o), bounds.late(o));
                    assert_eq!(now, (full.early(o), full.late(o)), "{o}");
                    let was = (before.early(o), before.late(o));
                    assert_eq!(now != was, moved.contains(&o), "{o} moved");
                }
            }
        }
    }

    #[test]
    fn hard_states_block_sinking() {
        let mut g = Cfg::new("hard");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let s = g.add_node(NodeKind::State(StateKind::Hard));
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, a);
        let e1 = g.add_edge(a, s);
        let e2 = g.add_edge(s, b);
        let mut d = Dfg::new();
        let x = d.add_op(Op::new(OpKind::Input, 8), e1, &[]);
        let m = d.add_op(Op::new(OpKind::Mul, 8), e1, &[x, x]);
        let _w = d.add_op(Op::new(OpKind::Write, 8).named("o"), e2, &[m]);
        let design = crate::Design::new(g, d);
        let (_info, spans) = design.analyze().unwrap();
        assert_eq!(spans.span(m).edges, vec![e1], "must not sink across wait()");
    }
}
