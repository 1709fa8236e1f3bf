//! Timed DFG construction (paper Definition V.2).
//!
//! Given DFG `D = (O, C)` with `early`/`late` mappings, the timed DFG is
//! obtained by:
//!
//! 1. dropping backward (loop-carried) edges,
//! 2. removing constant inputs (constants do not affect timing),
//! 3. adding a sink node `s(o)` per operation with `early(s(o)) = late(o)`,
//! 4. weighting every edge with its CFG latency.
//!
//! Sinks are stored implicitly as a per-operation sink weight; sources are
//! the operations with no remaining (non-constant, forward) predecessors.

use adhls_ir::cfg::CfgInfo;
use adhls_ir::span::OpSpans;
use adhls_ir::{Dfg, Error, OpId, Result};

/// The timed DFG: weighted forward adjacency over live, non-constant
/// operations, plus per-operation sink weights.
///
/// Adjacency is stored flat: op `o`'s predecessor edges are
/// `preds[pred_start[o]..pred_start[o + 1]]` (successors likewise), so the
/// graph is a handful of allocations whatever its size.
#[derive(Debug)]
pub struct TimedDfg {
    /// Id-space size of the underlying DFG (dense indexing by `OpId`).
    n_ids: usize,
    /// Whether the op participates in timing (live, non-constant).
    timed: Vec<bool>,
    /// Weighted predecessor edges `(pred, latency)`, grouped by op.
    preds: Vec<(OpId, u32)>,
    pred_start: Vec<u32>,
    /// Weighted successor edges `(succ, latency)`, grouped by op.
    succs: Vec<(OpId, u32)>,
    succ_start: Vec<u32>,
    /// Sink-edge weight per op: `latency(early(o), late(o))`.
    sink_w: Vec<u32>,
    /// Timed ops in forward topological order.
    topo: Vec<OpId>,
    /// Position of each timed op in `topo` (`u32::MAX` for untimed ids).
    pos: Vec<u32>,
}

impl Clone for TimedDfg {
    fn clone(&self) -> Self {
        TimedDfg {
            n_ids: self.n_ids,
            timed: self.timed.clone(),
            preds: self.preds.clone(),
            pred_start: self.pred_start.clone(),
            succs: self.succs.clone(),
            succ_start: self.succ_start.clone(),
            sink_w: self.sink_w.clone(),
            topo: self.topo.clone(),
            pos: self.pos.clone(),
        }
    }

    /// Field-wise, so resetting a reweighted copy to its source reuses
    /// every allocation.
    fn clone_from(&mut self, src: &Self) {
        self.n_ids = src.n_ids;
        self.timed.clone_from(&src.timed);
        self.preds.clone_from(&src.preds);
        self.pred_start.clone_from(&src.pred_start);
        self.succs.clone_from(&src.succs);
        self.succ_start.clone_from(&src.succ_start);
        self.sink_w.clone_from(&src.sink_w);
        self.topo.clone_from(&src.topo);
        self.pos.clone_from(&src.pos);
    }
}

impl TimedDfg {
    /// Builds the timed DFG from a DFG and its span analysis.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedDfg`] when a dependency connects spans with
    /// undefined latency (cannot happen for spans produced by
    /// [`adhls_ir::span::SpanAnalysis`] on a validated design).
    pub fn build(dfg: &Dfg, info: &CfgInfo, spans: &OpSpans) -> Result<TimedDfg> {
        Self::build_with(dfg, info, |o| spans.early(o), |o| spans.late(o))
    }

    /// Like [`TimedDfg::build`] but over raw early/late mappings (e.g. the
    /// scheduler's allocation-free [`adhls_ir::span::SpanBounds`]).
    ///
    /// # Errors
    ///
    /// See [`TimedDfg::build`].
    pub fn build_with(
        dfg: &Dfg,
        info: &CfgInfo,
        early: impl Fn(OpId) -> adhls_ir::EdgeId,
        late: impl Fn(OpId) -> adhls_ir::EdgeId,
    ) -> Result<TimedDfg> {
        let n_ids = dfg.len_ids();
        let mut timed = vec![false; n_ids];
        for o in dfg.op_ids() {
            timed[o.0 as usize] = !dfg.op(o).kind().is_const();
        }
        // Timed edges `p -> o`, in op order and each op's operand order.
        let timed_ops = || dfg.op_ids().filter(|o| timed[o.0 as usize]);
        let timed_operands = |o: OpId| dfg.forward_operands(o).filter(|p| timed[p.0 as usize]);
        let mut pred_start = vec![0u32; n_ids + 1];
        let mut succ_start = vec![0u32; n_ids + 1];
        for o in timed_ops() {
            for p in timed_operands(o) {
                pred_start[o.0 as usize + 1] += 1;
                succ_start[p.0 as usize + 1] += 1;
            }
        }
        for i in 0..n_ids {
            pred_start[i + 1] += pred_start[i];
            succ_start[i + 1] += succ_start[i];
        }
        let n_edges = pred_start[n_ids] as usize;
        // Ops come in id order, so predecessor edges arrive grouped.
        let mut preds = Vec::with_capacity(n_edges);
        let mut succs = vec![(OpId(0), 0u32); n_edges];
        let mut succ_next = succ_start.clone();
        let mut sink_w = vec![0u32; n_ids];
        for o in timed_ops() {
            for p in timed_operands(o) {
                let w = edge_latency(info, &early, p, o)?;
                preds.push((p, w));
                let j = &mut succ_next[p.0 as usize];
                succs[*j as usize] = (o, w);
                *j += 1;
            }
            sink_w[o.0 as usize] = sink_latency(info, &early, &late, o)?;
        }
        let topo: Vec<OpId> = dfg
            .topo_order()?
            .into_iter()
            .filter(|&o| timed[o.0 as usize])
            .collect();
        let mut pos = vec![u32::MAX; n_ids];
        for (k, &o) in topo.iter().enumerate() {
            pos[o.0 as usize] = k as u32;
        }
        Ok(TimedDfg {
            n_ids,
            timed,
            preds,
            pred_start,
            succs,
            succ_start,
            sink_w,
            topo,
            pos,
        })
    }

    /// Recomputes, in place, the weights that depend on the ops in `moved`
    /// — the ops whose early or late bound changed — leaving the structure
    /// (timed set, adjacency, topological order) untouched.
    ///
    /// A timed DFG's *structure* depends only on the underlying DFG; the
    /// bounds contribute nothing but weights, and only the weights of
    /// edges incident to a moved op and the moved ops' sink weights read a
    /// changed bound. So when the scheduler's bounds move, the graph
    /// [`TimedDfg::build_with`] would build over the new bounds equals this
    /// one reweighted here, without the DFG traversal, the topological
    /// sort, or any allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedDfg`] when a reweighted edge has undefined
    /// latency, under the same conditions as [`TimedDfg::build`].
    pub fn reweight_ops(
        &mut self,
        info: &CfgInfo,
        moved: &[OpId],
        early: impl Fn(OpId) -> adhls_ir::EdgeId,
        late: impl Fn(OpId) -> adhls_ir::EdgeId,
    ) -> Result<()> {
        for &o in moved {
            let oi = o.0 as usize;
            if !self.timed[oi] {
                continue;
            }
            for k in range(&self.pred_start, oi) {
                let p = self.preds[k].0;
                let w = edge_latency(info, &early, p, o)?;
                self.preds[k].1 = w;
                let succs = range(&self.succ_start, p.0 as usize);
                set_weight(&mut self.succs[succs], o, w);
            }
            for k in range(&self.succ_start, oi) {
                let s = self.succs[k].0;
                let w = edge_latency(info, &early, o, s)?;
                self.succs[k].1 = w;
                let preds = range(&self.pred_start, s.0 as usize);
                set_weight(&mut self.preds[preds], o, w);
            }
            self.sink_w[oi] = sink_latency(info, &early, &late, o)?;
        }
        Ok(())
    }

    /// Dense id-space size (index [`OpId`]s up to this).
    #[must_use]
    pub fn len_ids(&self) -> usize {
        self.n_ids
    }

    /// Whether `o` participates in timing.
    #[must_use]
    pub fn is_timed(&self, o: OpId) -> bool {
        self.timed[o.0 as usize]
    }

    /// Weighted predecessors of `o`.
    #[must_use]
    pub fn preds(&self, o: OpId) -> &[(OpId, u32)] {
        &self.preds[range(&self.pred_start, o.0 as usize)]
    }

    /// Weighted successors of `o`.
    #[must_use]
    pub fn succs(&self, o: OpId) -> &[(OpId, u32)] {
        &self.succs[range(&self.succ_start, o.0 as usize)]
    }

    /// Sink-edge weight of `o` (paper: `latency(early(o), late(o))`).
    #[must_use]
    pub fn sink_weight(&self, o: OpId) -> u32 {
        self.sink_w[o.0 as usize]
    }

    /// Timed operations in forward topological order.
    #[must_use]
    pub fn topo(&self) -> &[OpId] {
        &self.topo
    }

    /// Position of timed op `o` in [`TimedDfg::topo`] (`u32::MAX` for
    /// untimed ids).
    #[must_use]
    pub fn topo_pos(&self, o: OpId) -> u32 {
        self.pos[o.0 as usize]
    }

    /// Number of timed edges (the `|C|` in the paper's linear-complexity
    /// claim).
    #[must_use]
    pub fn len_edges(&self) -> usize {
        self.preds.len()
    }

    /// Heap bytes the graph holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use adhls_ir::vec_heap_bytes as b;
        b(&self.timed)
            + b(&self.preds)
            + b(&self.pred_start)
            + b(&self.succs)
            + b(&self.succ_start)
            + b(&self.sink_w)
            + b(&self.topo)
            + b(&self.pos)
    }
}

/// Op `i`'s slice of a flat adjacency list with offsets `start`.
fn range(start: &[u32], i: usize) -> std::ops::Range<usize> {
    start[i] as usize..start[i + 1] as usize
}

/// Weight of timed edge `p -> o`: `latency(early(p), early(o))`.
fn edge_latency(
    info: &CfgInfo,
    early: &impl Fn(OpId) -> adhls_ir::EdgeId,
    p: OpId,
    o: OpId,
) -> Result<u32> {
    info.latency(early(p), early(o)).ok_or_else(|| {
        Error::MalformedDfg(format!(
            "dependency {p} -> {o} has undefined latency ({} to {})",
            early(p),
            early(o)
        ))
    })
}

/// Sink weight of `o`: `latency(early(o), late(o))`.
fn sink_latency(
    info: &CfgInfo,
    early: &impl Fn(OpId) -> adhls_ir::EdgeId,
    late: &impl Fn(OpId) -> adhls_ir::EdgeId,
    o: OpId,
) -> Result<u32> {
    info.latency(early(o), late(o))
        .ok_or_else(|| Error::MalformedDfg(format!("span of {o} has undefined internal latency")))
}

/// Sets the weight of every entry for `o` in one adjacency list (an
/// operand used twice appears twice).
fn set_weight(adj: &mut [(OpId, u32)], o: OpId, w: u32) {
    for entry in adj.iter_mut().filter(|(x, _)| *x == o) {
        entry.1 = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;

    #[test]
    fn constants_are_stripped() {
        let mut b = DesignBuilder::new("c");
        let x = b.input("x", 8);
        let c = b.constant(3, 8);
        let s = b.binop(OpKind::Add, x, c, 8);
        b.write("y", s);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let t = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        assert!(!t.is_timed(c));
        assert_eq!(t.preds(s).len(), 1, "const operand must be removed");
        assert_eq!(t.preds(s)[0].0, x);
    }

    #[test]
    fn loop_carried_edges_are_dropped() {
        let mut b = DesignBuilder::new("lc");
        let zero = b.constant(0, 8);
        let lp = b.enter_loop();
        let phi = b.loop_phi(zero, 8);
        let x = b.read("in", 8);
        let s = b.binop(OpKind::Add, phi, x, 8);
        b.wait();
        b.connect_phi(phi, s);
        b.write("out", s);
        b.wait();
        b.close_loop(lp);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let t = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        // phi has no timed preds (its init is a const; carried edge dropped).
        assert!(t.preds(phi).is_empty());
        // s's successors: the write and the (dropped) phi -> only write.
        assert_eq!(t.succs(s).len(), 1);
    }

    #[test]
    fn weights_match_span_latency() {
        let mut b = DesignBuilder::new("w");
        let x = b.read("in", 8); // fixed on entry edge
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.wait();
        let w = b.write("out", m); // fixed after the wait
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let t = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        let _ = w;
        // m can't sink (hard state): early(m) on entry edge; write is one
        // state later.
        let (_, w_to_write) = t.succs(m)[0];
        assert_eq!(w_to_write, 1);
        // m's sink weight: early == late (no movement possible) -> 0.
        assert_eq!(t.sink_weight(m), 0);
    }

    #[test]
    fn reweight_matches_fresh_build_after_bounds_move() {
        // Soft states give the muls room to move; pinning one late changes
        // edge and sink weights of it and its users but never the
        // structure.
        let mut b = DesignBuilder::new("rw");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        let n = b.binop(OpKind::Mul, m, x, 8);
        b.soft_waits(2);
        let a = b.binop(OpKind::Add, n, m, 16);
        b.write("y", a);
        let d = b.finish().unwrap();
        let info = d.validate().unwrap();
        let analysis = adhls_ir::span::SpanAnalysis::new(&d.dfg, &info).unwrap();
        let mut bounds = analysis.bounds_pinned(&d.dfg, &info, |_| None).unwrap();
        let mut t =
            TimedDfg::build_with(&d.dfg, &info, |o| bounds.early(o), |o| bounds.late(o)).unwrap();
        let pin = (m, bounds.late(m));
        let mut moved = Vec::new();
        analysis
            .repin(
                &d.dfg,
                &info,
                &mut bounds,
                |o| (o == pin.0).then_some(pin.1),
                &[m],
                &mut moved,
            )
            .unwrap();
        assert!(moved.len() > 1, "pinning m late moves its users too");
        t.reweight_ops(&info, &moved, |o| bounds.early(o), |o| bounds.late(o))
            .unwrap();
        let fresh =
            TimedDfg::build_with(&d.dfg, &info, |o| bounds.early(o), |o| bounds.late(o)).unwrap();
        assert_eq!(format!("{t:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn topo_covers_all_timed_ops() {
        let mut b = DesignBuilder::new("topo");
        let x = b.input("x", 8);
        let c = b.constant(1, 8);
        let a = b.binop(OpKind::Add, x, c, 8);
        let m = b.binop(OpKind::Mul, a, x, 8);
        b.write("y", m);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let t = TimedDfg::build(&d.dfg, &info, &spans).unwrap();
        assert_eq!(t.topo().len(), 4); // x, add, mul, write (const excluded)
        assert_eq!(t.len_edges(), 4); // x->add, x->mul, add->mul, mul->write
    }
}
