//! Data flow graph (paper §IV, Definition 2).
//!
//! A [`Dfg`] is a directed graph `D = (O, C)`: vertices are operations,
//! edges are data dependencies. Each operation records its **birth edge**
//! (the CFG edge defined by its position in the source, paper Definition 3).
//!
//! Loop-carried dependencies (values flowing to the next loop iteration,
//! always terminating at a [`OpKind::LoopPhi`]) are represented as operand
//! edges flagged *loop-carried*; they are the "backward edges" excluded when
//! the timed DFG is built (paper Definition V.2 step 1).

use crate::cfg::EdgeId;
use crate::error::{Error, Result};
use crate::op::{Op, OpKind};
use std::fmt;

/// Identifier of a DFG operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct OpData {
    op: Op,
    birth: EdgeId,
    operands: Vec<OpId>,
    loop_carried: Vec<bool>,
    users: Vec<(OpId, usize)>,
    dead: bool,
}

/// Mutable data flow graph. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    ops: Vec<OpData>,
}

impl Dfg {
    /// Creates an empty DFG.
    #[must_use]
    pub fn new() -> Self {
        Dfg::default()
    }

    /// Adds an operation with its birth edge and data operands (in operand
    /// order) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match [`OpKind::arity`] or an
    /// operand id is out of range.
    pub fn add_op(&mut self, op: Op, birth: EdgeId, operands: &[OpId]) -> OpId {
        assert_eq!(
            operands.len(),
            op.kind().arity(),
            "{} expects {} operands, got {}",
            op.kind(),
            op.kind().arity(),
            operands.len()
        );
        let id = OpId(self.ops.len() as u32);
        for (i, &p) in operands.iter().enumerate() {
            assert!(
                (p.0 as usize) < self.ops.len(),
                "operand {p} of {id} does not exist"
            );
            self.ops[p.0 as usize].users.push((id, i));
        }
        self.ops.push(OpData {
            op,
            birth,
            operands: operands.to_vec(),
            loop_carried: vec![false; operands.len()],
            users: Vec::new(),
            dead: false,
        });
        id
    }

    /// Connects the carried operand of a loop φ after the body is built.
    ///
    /// During elaboration the φ is created before the body defines the
    /// carried value; this method patches the second operand and marks it
    /// loop-carried.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a [`OpKind::LoopPhi`].
    pub fn connect_phi(&mut self, phi: OpId, carried: OpId) {
        assert_eq!(
            self.ops[phi.0 as usize].op.kind(),
            OpKind::LoopPhi,
            "connect_phi on non-phi {phi}"
        );
        let old = self.ops[phi.0 as usize].operands[1];
        // remove old user record
        self.ops[old.0 as usize]
            .users
            .retain(|&(u, i)| !(u == phi && i == 1));
        self.ops[phi.0 as usize].operands[1] = carried;
        self.ops[phi.0 as usize].loop_carried[1] = true;
        self.ops[carried.0 as usize].users.push((phi, 1));
    }

    /// Replaces operand `idx` of `user` with `new_val`, maintaining user
    /// lists.
    pub fn replace_operand(&mut self, user: OpId, idx: usize, new_val: OpId) {
        let old = self.ops[user.0 as usize].operands[idx];
        self.ops[old.0 as usize]
            .users
            .retain(|&(u, i)| !(u == user && i == idx));
        self.ops[user.0 as usize].operands[idx] = new_val;
        self.ops[new_val.0 as usize].users.push((user, idx));
    }

    /// Rewrites every use of `old` to use `new_val` instead.
    pub fn replace_all_uses(&mut self, old: OpId, new_val: OpId) {
        let users = self.ops[old.0 as usize].users.clone();
        for (u, i) in users {
            self.replace_operand(u, i, new_val);
        }
    }

    /// Tombstones an operation (it keeps its id but is skipped by
    /// iteration). The operation must have no remaining users.
    ///
    /// # Panics
    ///
    /// Panics if the op still has users.
    pub fn kill(&mut self, o: OpId) {
        assert!(
            self.ops[o.0 as usize].users.is_empty(),
            "cannot kill {o}: it still has users"
        );
        let operands = self.ops[o.0 as usize].operands.clone();
        for (i, p) in operands.into_iter().enumerate() {
            self.ops[p.0 as usize]
                .users
                .retain(|&(u, j)| !(u == o && j == i));
        }
        self.ops[o.0 as usize].operands.clear();
        self.ops[o.0 as usize].loop_carried.clear();
        self.ops[o.0 as usize].dead = true;
    }

    /// Whether `o` has been killed.
    #[must_use]
    pub fn is_dead(&self, o: OpId) -> bool {
        self.ops[o.0 as usize].dead
    }

    /// Number of live operations.
    #[must_use]
    pub fn len_ops(&self) -> usize {
        self.ops.iter().filter(|o| !o.dead).count()
    }

    /// Total id space (live + dead); valid ids are `0..len_ids()`.
    #[must_use]
    pub fn len_ids(&self) -> usize {
        self.ops.len()
    }

    /// The operation payload of `o`.
    #[must_use]
    pub fn op(&self, o: OpId) -> &Op {
        &self.ops[o.0 as usize].op
    }

    /// Birth edge of `o` (paper Definition 3, `birth: O -> E`).
    #[must_use]
    pub fn birth(&self, o: OpId) -> EdgeId {
        self.ops[o.0 as usize].birth
    }

    /// Data operands of `o` in operand order (including loop-carried ones).
    #[must_use]
    pub fn operands(&self, o: OpId) -> &[OpId] {
        &self.ops[o.0 as usize].operands
    }

    /// Whether operand `idx` of `o` is loop-carried.
    #[must_use]
    pub fn is_loop_carried(&self, o: OpId, idx: usize) -> bool {
        self.ops[o.0 as usize].loop_carried[idx]
    }

    /// Forward (non-loop-carried) operands of `o`.
    pub fn forward_operands(&self, o: OpId) -> impl Iterator<Item = OpId> + '_ {
        let d = &self.ops[o.0 as usize];
        d.operands
            .iter()
            .zip(d.loop_carried.iter())
            .filter(|&(_, &lc)| !lc)
            .map(|(&p, _)| p)
    }

    /// Users of `o` as `(consumer, operand index)` pairs.
    #[must_use]
    pub fn users(&self, o: OpId) -> &[(OpId, usize)] {
        &self.ops[o.0 as usize].users
    }

    /// Forward users of `o` (uses that are not loop-carried).
    pub fn forward_users(&self, o: OpId) -> impl Iterator<Item = (OpId, usize)> + '_ {
        self.ops[o.0 as usize]
            .users
            .iter()
            .copied()
            .filter(move |&(u, i)| !self.ops[u.0 as usize].loop_carried[i])
    }

    /// Iterator over live operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.dead)
            .map(|(i, _)| OpId(i as u32))
    }

    /// Number of forward data-dependence edges (the `|C|` of the paper's
    /// complexity claims).
    #[must_use]
    pub fn len_forward_edges(&self) -> usize {
        self.op_ids()
            .map(|o| self.forward_operands(o).count())
            .sum()
    }

    /// Topological order of live operations over forward edges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedDfg`] when the forward subgraph has a cycle
    /// (a loop-carried dependence not marked as such).
    pub fn topo_order(&self) -> Result<Vec<OpId>> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        for o in self.op_ids() {
            for p in self.forward_operands(o) {
                let _ = p;
                indeg[o.0 as usize] += 1;
            }
        }
        let mut ready: Vec<OpId> = self.op_ids().filter(|o| indeg[o.0 as usize] == 0).collect();
        ready.sort();
        ready.reverse();
        let mut order = Vec::with_capacity(self.len_ops());
        while let Some(o) = ready.pop() {
            order.push(o);
            let mut newly: Vec<OpId> = Vec::new();
            for (u, i) in self.users(o).iter().copied() {
                if self.ops[u.0 as usize].dead || self.ops[u.0 as usize].loop_carried[i] {
                    continue;
                }
                indeg[u.0 as usize] -= 1;
                if indeg[u.0 as usize] == 0 {
                    newly.push(u);
                }
            }
            newly.sort();
            newly.reverse();
            ready.extend(newly);
        }
        if order.len() != self.len_ops() {
            return Err(Error::MalformedDfg(
                "forward data-dependence cycle (unmarked loop-carried edge?)".into(),
            ));
        }
        Ok(order)
    }

    /// Structural validation: arities, user-list symmetry, loop-carried
    /// edges only into φs, forward acyclicity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedDfg`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        for o in self.op_ids() {
            let d = &self.ops[o.0 as usize];
            if d.operands.len() != d.op.kind().arity() {
                return Err(Error::MalformedDfg(format!(
                    "{o} ({}) has {} operands, expected {}",
                    d.op,
                    d.operands.len(),
                    d.op.kind().arity()
                )));
            }
            for (i, &p) in d.operands.iter().enumerate() {
                if self.ops[p.0 as usize].dead {
                    return Err(Error::MalformedDfg(format!("{o} uses dead op {p}")));
                }
                if !self.ops[p.0 as usize].users.contains(&(o, i)) {
                    return Err(Error::MalformedDfg(format!(
                        "user list of {p} missing ({o}, {i})"
                    )));
                }
                if d.loop_carried[i] && d.op.kind() != OpKind::LoopPhi {
                    return Err(Error::MalformedDfg(format!(
                        "loop-carried operand {i} on non-phi {o}"
                    )));
                }
            }
        }
        self.topo_order().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::EdgeId;

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn build_and_query() {
        let mut d = Dfg::new();
        let a = d.add_op(Op::new(OpKind::Input, 8).named("a"), e(0), &[]);
        let b = d.add_op(Op::new(OpKind::Input, 8).named("b"), e(0), &[]);
        let s = d.add_op(Op::new(OpKind::Add, 8), e(0), &[a, b]);
        assert_eq!(d.len_ops(), 3);
        assert_eq!(d.operands(s), &[a, b]);
        assert_eq!(d.users(a), &[(s, 0)]);
        d.validate().unwrap();
        let topo = d.topo_order().unwrap();
        let pos = |o: OpId| topo.iter().position(|&x| x == o).unwrap();
        assert!(pos(a) < pos(s));
        assert!(pos(b) < pos(s));
    }

    #[test]
    fn loop_phi_cycle_is_allowed_when_marked() {
        let mut d = Dfg::new();
        let init = d.add_op(Op::new(OpKind::Const(0), 8), e(0), &[]);
        let phi = d.add_op(Op::new(OpKind::LoopPhi, 8), e(1), &[init, init]);
        let one = d.add_op(Op::new(OpKind::Const(1), 8), e(1), &[]);
        let inc = d.add_op(Op::new(OpKind::Add, 8), e(1), &[phi, one]);
        d.connect_phi(phi, inc);
        d.validate().unwrap();
        assert!(d.is_loop_carried(phi, 1));
        assert_eq!(d.operands(phi), &[init, inc]);
        // Forward topo order exists despite the cycle phi -> inc -> phi.
        let topo = d.topo_order().unwrap();
        assert_eq!(topo.len(), 4);
    }

    #[test]
    fn unmarked_cycle_is_rejected() {
        let mut d = Dfg::new();
        let c = d.add_op(Op::new(OpKind::Const(0), 8), e(0), &[]);
        let x = d.add_op(Op::new(OpKind::Add, 8), e(0), &[c, c]);
        let y = d.add_op(Op::new(OpKind::Add, 8), e(0), &[x, c]);
        d.replace_operand(x, 1, y); // creates x -> y -> x cycle
        assert!(d.topo_order().is_err());
    }

    #[test]
    fn kill_and_replace_uses() {
        let mut d = Dfg::new();
        let a = d.add_op(Op::new(OpKind::Input, 8).named("a"), e(0), &[]);
        let b = d.add_op(Op::new(OpKind::Input, 8).named("b"), e(0), &[]);
        let s1 = d.add_op(Op::new(OpKind::Add, 8), e(0), &[a, b]);
        let s2 = d.add_op(Op::new(OpKind::Add, 8), e(0), &[a, b]);
        let w = d.add_op(Op::new(OpKind::Write, 8).named("y"), e(0), &[s1]);
        // CSE: replace s1 with s2 everywhere, then kill s1.
        d.replace_all_uses(s1, s2);
        assert_eq!(d.operands(w), &[s2]);
        d.kill(s1);
        assert!(d.is_dead(s1));
        assert_eq!(d.len_ops(), 4);
        d.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_arity_panics() {
        let mut d = Dfg::new();
        let a = d.add_op(Op::new(OpKind::Input, 8), e(0), &[]);
        let _ = d.add_op(Op::new(OpKind::Add, 8), e(0), &[a]);
    }

    #[test]
    fn forward_edge_count() {
        let mut d = Dfg::new();
        let a = d.add_op(Op::new(OpKind::Input, 8), e(0), &[]);
        let b = d.add_op(Op::new(OpKind::Input, 8), e(0), &[]);
        let s = d.add_op(Op::new(OpKind::Add, 8), e(0), &[a, b]);
        let _t = d.add_op(Op::new(OpKind::Mul, 8), e(0), &[s, s]);
        assert_eq!(d.len_forward_edges(), 4);
    }
}
