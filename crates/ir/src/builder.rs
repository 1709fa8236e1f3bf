//! Programmatic design builder.
//!
//! [`DesignBuilder`] constructs straight-line and single-loop designs — the
//! shape of every dataflow workload in this reproduction (interpolation,
//! IDCT, FIR, matrix multiply). Designs with conditionals are written in the
//! [`crate::frontend`] DSL or assembled from the raw [`crate::Cfg`] /
//! [`crate::Dfg`] APIs.
//!
//! The builder keeps a *current edge*; operations are born on it, and
//! control constructs ([`DesignBuilder::wait`], [`DesignBuilder::soft_wait`],
//! loops) extend the CFG by re-kinding the provisional tail node.
//!
//! # Example
//!
//! ```
//! use adhls_ir::builder::DesignBuilder;
//! use adhls_ir::op::OpKind;
//!
//! let mut b = DesignBuilder::new("pipe");
//! let lp = b.enter_loop();
//! let x = b.read("in", 8);
//! let sq = b.binop(OpKind::Mul, x, x, 16);
//! b.wait();
//! b.write("out", sq);
//! b.wait();
//! b.close_loop(lp);
//! let design = b.finish().expect("valid");
//! assert_eq!(design.outputs().len(), 1);
//! ```

use crate::cfg::{Cfg, EdgeId, NodeId, NodeKind, StateKind};
use crate::design::Design;
use crate::dfg::{Dfg, OpId};
use crate::error::Result;
use crate::op::{Op, OpKind};

/// Token returned by [`DesignBuilder::enter_loop`]; pass it back to
/// [`DesignBuilder::close_loop`].
#[derive(Debug)]
#[must_use = "a loop must be closed with close_loop"]
pub struct LoopToken {
    header: NodeId,
}

/// Incremental builder for [`Design`]s. See the [module docs](self).
#[derive(Debug)]
pub struct DesignBuilder {
    cfg: Cfg,
    dfg: Dfg,
    /// Edge new operations are born on.
    cur_edge: EdgeId,
    /// Provisional tail node (target of `cur_edge`), re-kinded by control
    /// constructs.
    tail: NodeId,
}

impl DesignBuilder {
    /// Starts a design with a start node and an open entry edge.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let mut cfg = Cfg::new(name);
        let start = cfg.add_node(NodeKind::Start);
        let tail = cfg.add_node(NodeKind::Plain);
        let cur_edge = cfg.add_edge(start, tail);
        DesignBuilder {
            cfg,
            dfg: Dfg::new(),
            cur_edge,
            tail,
        }
    }

    /// Adds a raw operation on the current edge.
    pub fn op(&mut self, op: Op, operands: &[OpId]) -> OpId {
        self.dfg.add_op(op, self.cur_edge, operands)
    }

    /// Adds a named design input (registered primary input).
    pub fn input(&mut self, name: impl Into<String>, width: u16) -> OpId {
        self.op(Op::new(OpKind::Input, width).named(name), &[])
    }

    /// Adds a constant.
    pub fn constant(&mut self, value: i64, width: u16) -> OpId {
        self.op(Op::new(OpKind::Const(value), width), &[])
    }

    /// Adds a blocking port read (fixed to the current edge).
    pub fn read(&mut self, port: impl Into<String>, width: u16) -> OpId {
        self.op(Op::new(OpKind::Read, width).named(port), &[])
    }

    /// Adds a blocking port write (fixed to the current edge).
    pub fn write(&mut self, port: impl Into<String>, value: OpId) -> OpId {
        let width = self.dfg.op(value).width();
        self.op(Op::new(OpKind::Write, width).named(port), &[value])
    }

    /// Adds a binary operation with the given result width.
    pub fn binop(&mut self, kind: OpKind, a: OpId, b: OpId, width: u16) -> OpId {
        self.op(Op::new(kind, width), &[a, b])
    }

    /// Adds a 2:1 mux `mux(cond, if_true, if_false)`.
    pub fn mux(&mut self, cond: OpId, t: OpId, f: OpId, width: u16) -> OpId {
        self.op(Op::new(OpKind::Mux, width), &[cond, t, f])
    }

    /// Inserts a **hard** state (a source-level `wait()`).
    pub fn wait(&mut self) {
        self.advance(NodeKind::State(StateKind::Hard));
    }

    /// Inserts a **soft** state — scheduling room from a latency budget;
    /// operations may sink across it.
    pub fn soft_wait(&mut self) {
        self.advance(NodeKind::State(StateKind::Soft));
    }

    /// Inserts `n` soft states in a row (a latency budget of `n + 1` cycles
    /// for the region).
    pub fn soft_waits(&mut self, n: u32) {
        for _ in 0..n {
            self.soft_wait();
        }
    }

    fn advance(&mut self, kind: NodeKind) -> NodeId {
        let old_tail = self.tail;
        self.cfg.set_node_kind(old_tail, kind);
        let new_tail = self.cfg.add_node(NodeKind::Plain);
        self.cur_edge = self.cfg.add_edge(old_tail, new_tail);
        self.tail = new_tail;
        old_tail
    }

    /// Opens an infinite loop: the current tail becomes the loop header.
    /// Close it with [`DesignBuilder::close_loop`]. The loop body must
    /// contain at least one state ([`DesignBuilder::wait`] or
    /// [`DesignBuilder::soft_wait`]).
    pub fn enter_loop(&mut self) -> LoopToken {
        let header = self.advance(NodeKind::Join);
        LoopToken { header }
    }

    /// Adds a loop-carried φ: `phi(init, <carried>)`. Patch the carried
    /// value later with [`DesignBuilder::connect_phi`]. Born on the current
    /// edge (call right after [`DesignBuilder::enter_loop`]).
    pub fn loop_phi(&mut self, init: OpId, width: u16) -> OpId {
        // The carried operand starts as `init` and is patched later.
        self.op(Op::new(OpKind::LoopPhi, width), &[init, init])
    }

    /// Sets the carried value of a φ created by [`DesignBuilder::loop_phi`].
    pub fn connect_phi(&mut self, phi: OpId, carried: OpId) {
        self.dfg.connect_phi(phi, carried);
    }

    /// Closes an infinite loop with a back edge to its header.
    pub fn close_loop(&mut self, token: LoopToken) {
        let old_tail = self.tail;
        self.cfg.set_node_kind(old_tail, NodeKind::Plain);
        self.cfg.add_back_edge(old_tail, token.header);
        // Execution never proceeds past an infinite loop; no new tail edge.
    }

    /// Finishes the design, validating both graphs.
    ///
    /// # Errors
    ///
    /// Propagates validation failures ([`crate::Error::MalformedCfg`],
    /// [`crate::Error::MalformedDfg`], [`crate::Error::BadBirth`]).
    pub fn finish(self) -> Result<Design> {
        let design = Design::new(self.cfg, self.dfg);
        design.validate()?;
        Ok(design)
    }

    /// Access to the DFG under construction (e.g. for width queries).
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_design() {
        let mut b = DesignBuilder::new("sl");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let p = b.binop(OpKind::Mul, x, y, 16);
        b.wait();
        let q = b.binop(OpKind::Add, p, p, 16);
        b.write("z", q);
        let d = b.finish().unwrap();
        assert_eq!(d.dfg.len_ops(), 5);
        let (info, spans) = d.analyze().unwrap();
        // Births are separated by the wait...
        assert_eq!(info.latency(d.dfg.birth(p), d.dfg.birth(q)), Some(1));
        // ...but q may hoist above it and chain with p, so the timed-DFG
        // edge weight (which uses early edges) is 0.
        assert_eq!(spans.dfg_edge_latency(&info, p, q), Some(0));
        assert_eq!(spans.early(q), d.dfg.birth(p));
    }

    #[test]
    fn loop_with_phi() {
        let mut b = DesignBuilder::new("acc");
        let zero = b.constant(0, 16);
        let lp = b.enter_loop();
        let acc = b.loop_phi(zero, 16);
        let x = b.read("in", 16);
        let sum = b.binop(OpKind::Add, acc, x, 16);
        b.wait();
        b.write("out", sum);
        b.wait();
        b.connect_phi(acc, sum);
        b.close_loop(lp);
        let d = b.finish().unwrap();
        assert!(d.validate().is_ok());
        assert!(d.dfg.is_loop_carried(acc, 1));
    }

    #[test]
    fn soft_waits_create_budget() {
        let mut b = DesignBuilder::new("budget");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        b.soft_waits(2);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (_info, spans) = d.analyze().unwrap();
        // m1 may sink across both soft states; m2 is born after them but may
        // hoist up to m1's edge.
        assert_eq!(spans.span(m1).len(), 3);
        assert_eq!(spans.span(m2).len(), 3);
    }

    #[test]
    fn loop_without_state_is_rejected() {
        let mut b = DesignBuilder::new("bad");
        let x = b.input("x", 8);
        let lp = b.enter_loop();
        let _y = b.binop(OpKind::Add, x, x, 8);
        b.close_loop(lp);
        assert!(b.finish().is_err());
    }
}
