//! Elaboration: AST → [`Design`] (CFG + DFG with birth edges).
//!
//! The elaborator walks statements maintaining a *current edge* (where new
//! operations are born) and a variable environment mapping names to DFG
//! operations. Control constructs grow the CFG:
//!
//! * `if` becomes a fork/join diamond; variables assigned differently on the
//!   two paths are merged with `mux` operations (paper Fig. 4's `mux`).
//! * `while`/`loop` become a join header with loop-carried φs for every
//!   variable assigned in the body, a fork (for `while`), and a back edge.
//! * `wait` inserts a hard state node, `budget n` inserts `n` soft states.
//! * `for .. unroll` is expanded syntactically before elaboration.

use super::ast::{assigned_vars, substitute_stmts, BinOp, Dir, Expr, Proc, Stmt, UnOp};
use crate::cfg::{Cfg, EdgeId, NodeId, NodeKind, StateKind};
use crate::design::Design;
use crate::dfg::{Dfg, OpId};
use crate::error::{Error, Result};
use crate::op::{Op, OpKind};
use std::collections::BTreeMap;

/// Most CFG nodes plus DFG ops one elaboration may create, each unrolled
/// loop iteration counting as one more. `for … unroll` and `budget n` turn
/// a few bytes of source into that many graph elements, so the cap bounds
/// the memory and time untrusted source can claim. The CFG analysis that
/// validation runs is quadratic in edges: on a 2-vCPU x86 VM, `adhls
/// schedule` of a 2,000-state chain peaks at 80 MB and takes 0.3 s, of a
/// 4,000-state chain 310 MB and 1 s.
pub const MAX_GRAPH_SIZE: usize = 2_048;

/// Elaborates a parsed process into a validated [`Design`].
///
/// # Errors
///
/// Returns [`Error::Elab`] for semantic problems, [`Error::Capacity`] past
/// [`MAX_GRAPH_SIZE`], and propagates validation errors from the produced
/// graphs.
pub fn elaborate(proc: &Proc) -> Result<Design> {
    let mut e = Elab::new(proc)?;
    e.stmts(&proc.body)?;
    let design = Design::new(e.cfg, e.dfg);
    design.validate()?;
    Ok(design)
}

#[derive(Debug, Clone, Copy)]
struct Value {
    op: OpId,
    width: u16,
    signed: bool,
}

struct Elab {
    cfg: Cfg,
    dfg: Dfg,
    cur_edge: EdgeId,
    tail: NodeId,
    vars: BTreeMap<String, Value>,
    ports: BTreeMap<String, (Dir, u16, bool)>,
    /// Set once an infinite `loop` has been elaborated: nothing may follow.
    terminated: bool,
    /// Nodes, ops and unrolled iterations so far (see [`MAX_GRAPH_SIZE`]).
    size: usize,
}

impl Elab {
    fn new(proc: &Proc) -> Result<Self> {
        let mut cfg = Cfg::new(proc.name.clone());
        let start = cfg.add_node(NodeKind::Start);
        let tail = cfg.add_node(NodeKind::Plain);
        let cur_edge = cfg.add_edge(start, tail);
        let mut ports = BTreeMap::new();
        for p in &proc.ports {
            if ports
                .insert(p.name.clone(), (p.dir, p.width, p.signed))
                .is_some()
            {
                return Err(Error::Elab(format!("duplicate port '{}'", p.name)));
            }
        }
        Ok(Elab {
            cfg,
            dfg: Dfg::new(),
            cur_edge,
            tail,
            vars: BTreeMap::new(),
            ports,
            terminated: false,
            size: 0,
        })
    }

    /// Counts one more node, op or unrolled iteration.
    fn grow(&mut self) -> Result<()> {
        self.size += 1;
        if self.size > MAX_GRAPH_SIZE {
            return Err(Error::Capacity(format!(
                "the design elaborates to more than {MAX_GRAPH_SIZE} CFG nodes and DFG ops"
            )));
        }
        Ok(())
    }

    fn add_node(&mut self, kind: NodeKind) -> Result<NodeId> {
        self.grow()?;
        Ok(self.cfg.add_node(kind))
    }

    /// Adds `op` on the current edge.
    fn add_op(&mut self, op: Op, operands: &[OpId]) -> Result<OpId> {
        self.grow()?;
        Ok(self.dfg.add_op(op, self.cur_edge, operands))
    }

    fn advance(&mut self, kind: NodeKind) -> Result<()> {
        let old_tail = self.tail;
        self.cfg.set_node_kind(old_tail, kind);
        let new_tail = self.add_node(NodeKind::Plain)?;
        self.cur_edge = self.cfg.add_edge(old_tail, new_tail);
        self.tail = new_tail;
        Ok(())
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<()> {
        for s in body {
            if self.terminated {
                return Err(Error::Elab(
                    "unreachable statement after infinite 'loop'".into(),
                ));
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Let { name, ty, expr } => {
                let hint = ty.map(|(w, sgn)| (w, sgn));
                let v = self.expr(expr, hint)?;
                self.vars.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Assign { name, expr } => {
                let hint = self.vars.get(name).map(|v| (v.width, v.signed));
                let v = self.expr(expr, hint)?;
                self.vars.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Wait => self.advance(NodeKind::State(StateKind::Hard)),
            Stmt::Budget(n) => {
                for _ in 0..*n {
                    self.advance(NodeKind::State(StateKind::Soft))?;
                }
                Ok(())
            }
            Stmt::Write { port, expr } => {
                let (dir, w, sgn) = *self
                    .ports
                    .get(port)
                    .ok_or_else(|| Error::Elab(format!("unknown port '{port}'")))?;
                if dir != Dir::Out {
                    return Err(Error::Elab(format!("write to input port '{port}'")));
                }
                let v = self.expr(expr, Some((w, sgn)))?;
                let mut op = Op::new(OpKind::Write, w).named(port.clone());
                if sgn {
                    op = op.signed();
                }
                self.add_op(op, &[v.op])?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => self.elab_if(cond, then_body, else_body),
            Stmt::While { cond, body } => self.elab_while(cond, body),
            Stmt::Loop { body } => self.elab_loop(body),
            Stmt::For {
                var,
                start,
                end,
                unroll,
                body,
            } => {
                if *unroll {
                    if end < start {
                        return Err(Error::Elab(format!(
                            "for {var} in {start}..{end}: empty or negative range"
                        )));
                    }
                    for k in *start..*end {
                        self.grow()?;
                        let expanded = substitute_stmts(body, var, k);
                        self.stmts(&expanded)?;
                    }
                    Ok(())
                } else {
                    // Desugar: let var = start; while var < end { body; var = var + 1; }
                    let width = 32u16;
                    let init = self.const_op(*start, width, true)?;
                    self.vars.insert(
                        var.clone(),
                        Value {
                            op: init,
                            width,
                            signed: true,
                        },
                    );
                    let mut wbody = body.to_vec();
                    wbody.push(Stmt::Assign {
                        name: var.clone(),
                        expr: Expr::Binary(
                            BinOp::Add,
                            Box::new(Expr::Ident(var.clone())),
                            Box::new(Expr::Int(1)),
                        ),
                    });
                    let cond = Expr::Binary(
                        BinOp::Lt,
                        Box::new(Expr::Ident(var.clone())),
                        Box::new(Expr::Int(*end)),
                    );
                    self.elab_while(&cond, &wbody)
                }
            }
        }
    }

    fn elab_if(&mut self, cond: &Expr, then_body: &[Stmt], else_body: &[Stmt]) -> Result<()> {
        let c = self.expr(cond, None)?;
        let cbit = self.as_bit(c)?;
        // Current tail becomes the fork.
        let fork = self.tail;
        self.cfg.set_node_kind(fork, NodeKind::Fork);
        self.cfg.set_cond(fork, cbit.op);
        let saved_vars = self.vars.clone();

        // Then branch.
        let t_tail = self.add_node(NodeKind::Plain)?;
        let t_edge = self.cfg.add_branch_edge(fork, t_tail, true);
        self.cur_edge = t_edge;
        self.tail = t_tail;
        self.stmts(then_body)?;
        if self.terminated {
            return Err(Error::Elab("infinite 'loop' inside if branch".into()));
        }
        let then_exit = self.tail;
        let then_vars = std::mem::replace(&mut self.vars, saved_vars.clone());

        // Else branch.
        let e_tail = self.add_node(NodeKind::Plain)?;
        let e_edge = self.cfg.add_branch_edge(fork, e_tail, false);
        self.cur_edge = e_edge;
        self.tail = e_tail;
        self.stmts(else_body)?;
        if self.terminated {
            return Err(Error::Elab("infinite 'loop' inside else branch".into()));
        }
        let else_exit = self.tail;
        let else_vars = std::mem::replace(&mut self.vars, saved_vars);

        // Join.
        let join = self.add_node(NodeKind::Join)?;
        self.cfg.add_edge(then_exit, join);
        self.cfg.add_edge(else_exit, join);
        let new_tail = self.add_node(NodeKind::Plain)?;
        self.cur_edge = self.cfg.add_edge(join, new_tail);
        self.tail = new_tail;

        // Merge variable maps: differing definitions get a mux on the join
        // edge. Variables defined on only one path are bound unguarded
        // (documented toy-language semantics).
        let mut names: Vec<&String> = then_vars.keys().chain(else_vars.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            match (then_vars.get(name), else_vars.get(name)) {
                (Some(t), Some(e)) if t.op == e.op => {
                    self.vars.insert(name.clone(), *t);
                }
                (Some(t), Some(e)) => {
                    let width = t.width.max(e.width);
                    let signed = t.signed || e.signed;
                    let mut op = Op::new(OpKind::Mux, width).named(name.clone());
                    if signed {
                        op = op.signed();
                    }
                    let m = self.add_op(op, &[cbit.op, t.op, e.op])?;
                    self.vars.insert(
                        name.clone(),
                        Value {
                            op: m,
                            width,
                            signed,
                        },
                    );
                }
                (Some(t), None) => {
                    self.vars.insert(name.clone(), *t);
                }
                (None, Some(e)) => {
                    self.vars.insert(name.clone(), *e);
                }
                (None, None) => unreachable!(),
            }
        }
        Ok(())
    }

    fn elab_while(&mut self, cond: &Expr, body: &[Stmt]) -> Result<()> {
        // Header join; φs for every variable assigned in the body that
        // already exists.
        self.advance(NodeKind::Join)?;
        let header = {
            // advance() re-kinded the old tail into the header Join and moved
            // cur_edge to header -> new tail.
            self.cfg.edge_from(self.cur_edge)
        };
        let assigned = assigned_vars(body);
        let mut phis: Vec<(String, OpId)> = Vec::new();
        for name in &assigned {
            if let Some(v) = self.vars.get(name).copied() {
                let mut op = Op::new(OpKind::LoopPhi, v.width).named(name.clone());
                if v.signed {
                    op = op.signed();
                }
                let phi = self.add_op(op, &[v.op, v.op])?;
                self.vars.insert(name.clone(), Value { op: phi, ..v });
                phis.push((name.clone(), phi));
            }
        }
        // Condition on the header edge.
        let c = self.expr(cond, None)?;
        let cbit = self.as_bit(c)?;
        let fork = self.tail;
        self.cfg.set_node_kind(fork, NodeKind::Fork);
        self.cfg.set_cond(fork, cbit.op);

        // Body.
        let b_tail = self.add_node(NodeKind::Plain)?;
        let b_edge = self.cfg.add_branch_edge(fork, b_tail, true);
        self.cur_edge = b_edge;
        self.tail = b_tail;
        let vars_at_header = self.vars.clone();
        self.stmts(body)?;
        if self.terminated {
            return Err(Error::Elab("infinite 'loop' inside while body".into()));
        }
        // Connect φs with the end-of-body definitions.
        for (name, phi) in &phis {
            let end = self.vars.get(name).copied().expect("assigned var vanished");
            if end.op != *phi {
                self.dfg.connect_phi(*phi, end.op);
            } else {
                // Body may conditionally not assign: carried value is the φ
                // itself, a self-loop; keep init value by carrying init.
                let init = self.dfg.operands(*phi)[0];
                self.dfg.connect_phi(*phi, init);
            }
        }
        self.cfg.add_back_edge(self.tail, header);

        // Exit path: values seen after the loop are the φs.
        self.vars = vars_at_header;
        let x_tail = self.add_node(NodeKind::Plain)?;
        let x_edge = self.cfg.add_branch_edge(fork, x_tail, false);
        self.cur_edge = x_edge;
        self.tail = x_tail;
        Ok(())
    }

    fn elab_loop(&mut self, body: &[Stmt]) -> Result<()> {
        self.advance(NodeKind::Join)?;
        let header = self.cfg.edge_from(self.cur_edge);
        let assigned = assigned_vars(body);
        let mut phis: Vec<(String, OpId)> = Vec::new();
        for name in &assigned {
            if let Some(v) = self.vars.get(name).copied() {
                let mut op = Op::new(OpKind::LoopPhi, v.width).named(name.clone());
                if v.signed {
                    op = op.signed();
                }
                let phi = self.add_op(op, &[v.op, v.op])?;
                self.vars.insert(name.clone(), Value { op: phi, ..v });
                phis.push((name.clone(), phi));
            }
        }
        self.stmts(body)?;
        for (name, phi) in &phis {
            let end = self.vars.get(name).copied().expect("assigned var vanished");
            if end.op != *phi {
                self.dfg.connect_phi(*phi, end.op);
            } else {
                let init = self.dfg.operands(*phi)[0];
                self.dfg.connect_phi(*phi, init);
            }
        }
        self.cfg.add_back_edge(self.tail, header);
        self.terminated = true;
        Ok(())
    }

    fn const_op(&mut self, v: i64, width: u16, signed: bool) -> Result<OpId> {
        let mut op = Op::new(OpKind::Const(v), width);
        if signed {
            op = op.signed();
        }
        self.add_op(op, &[])
    }

    fn as_bit(&mut self, v: Value) -> Result<Value> {
        if v.width == 1 {
            return Ok(v);
        }
        // v != 0
        let zero = self.const_op(0, v.width, v.signed)?;
        let ne = self.add_op(Op::new(OpKind::Ne, 1), &[v.op, zero])?;
        Ok(Value {
            op: ne,
            width: 1,
            signed: false,
        })
    }

    fn expr(&mut self, e: &Expr, hint: Option<(u16, bool)>) -> Result<Value> {
        match e {
            Expr::Int(v) => {
                let (w, sgn) = hint.unwrap_or_else(|| (literal_width(*v), *v < 0));
                Ok(Value {
                    op: self.const_op(*v, w, sgn)?,
                    width: w,
                    signed: sgn,
                })
            }
            Expr::Ident(name) => self
                .vars
                .get(name)
                .copied()
                .ok_or_else(|| Error::Elab(format!("unknown variable '{name}'"))),
            Expr::Read(port) => {
                let (dir, w, sgn) = *self
                    .ports
                    .get(port)
                    .ok_or_else(|| Error::Elab(format!("unknown port '{port}'")))?;
                if dir != Dir::In {
                    return Err(Error::Elab(format!("read from output port '{port}'")));
                }
                let mut op = Op::new(OpKind::Read, w).named(port.clone());
                if sgn {
                    op = op.signed();
                }
                let o = self.add_op(op, &[])?;
                Ok(Value {
                    op: o,
                    width: w,
                    signed: sgn,
                })
            }
            Expr::Unary(op, inner) => {
                let v = self.expr(inner, hint)?;
                let kind = match op {
                    UnOp::Neg => OpKind::Neg,
                    UnOp::Not => OpKind::Not,
                };
                let mut o = Op::new(kind, v.width);
                let signed = v.signed || *op == UnOp::Neg;
                if signed {
                    o = o.signed();
                }
                let id = self.add_op(o, &[v.op])?;
                Ok(Value {
                    op: id,
                    width: v.width,
                    signed,
                })
            }
            Expr::Binary(op, a, b) => {
                // Elaborate the non-literal side first so the literal can
                // adopt its width.
                let (va, vb) = match (a.as_ref(), b.as_ref()) {
                    (Expr::Int(_), rhs) if !matches!(rhs, Expr::Int(_)) => {
                        let vb = self.expr(b, hint)?;
                        let va = self.expr(a, Some((vb.width, vb.signed)))?;
                        (va, vb)
                    }
                    (_, Expr::Int(_)) => {
                        let va = self.expr(a, hint)?;
                        let vb = self.expr(b, Some((va.width, va.signed)))?;
                        (va, vb)
                    }
                    _ => (self.expr(a, hint)?, self.expr(b, hint)?),
                };
                let signed = va.signed || vb.signed;
                let (kind, width) = match op {
                    BinOp::Add => (OpKind::Add, va.width.max(vb.width)),
                    BinOp::Sub => (OpKind::Sub, va.width.max(vb.width)),
                    BinOp::Mul => (OpKind::Mul, va.width.max(vb.width)),
                    BinOp::Div => (OpKind::Div, va.width),
                    BinOp::Rem => (OpKind::Rem, vb.width),
                    BinOp::And => (OpKind::And, va.width.max(vb.width)),
                    BinOp::Or => (OpKind::Or, va.width.max(vb.width)),
                    BinOp::Xor => (OpKind::Xor, va.width.max(vb.width)),
                    BinOp::Shl => (OpKind::Shl, va.width),
                    BinOp::Shr => (OpKind::Shr, va.width),
                    BinOp::Lt => (OpKind::Lt, 1),
                    BinOp::Le => (OpKind::Le, 1),
                    BinOp::Gt => (OpKind::Gt, 1),
                    BinOp::Ge => (OpKind::Ge, 1),
                    BinOp::Eq => (OpKind::Eq, 1),
                    BinOp::Ne => (OpKind::Ne, 1),
                };
                let mut o = Op::new(kind, width);
                if signed {
                    o = o.signed();
                }
                let id = self.add_op(o, &[va.op, vb.op])?;
                Ok(Value {
                    op: id,
                    width,
                    signed,
                })
            }
        }
    }
}

fn literal_width(v: i64) -> u16 {
    let bits = if v >= 0 {
        64 - (v as u64).leading_zeros().min(63)
    } else {
        64 - (!(v as u64)).leading_zeros().min(62) + 1
    };
    (bits.max(1) as u16).min(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;
    use crate::interp::{run, Stimulus};
    use crate::op::OpKind;

    /// The paper's Fig. 3 resizer filter, simplified per Fig. 4 (the loop
    /// index bookkeeping is implicit in our `loop`).
    pub(crate) const RESIZER_SRC: &str = "
        proc resizer(in a: u16, in b: u16, out o: u16) {
            loop {
                let x: u16 = read(a) + 3;
                if x > 100 {
                    wait;
                    y = x / 2 - 3;
                } else {
                    wait;
                    y = x * read(b);
                }
                wait;
                write(o, y);
            }
        }";

    #[test]
    fn resizer_compiles_and_runs() {
        let d = compile(RESIZER_SRC).unwrap();
        let stim = Stimulus::new()
            .stream("a", vec![200, 10, 150])
            .stream("b", vec![5, 7]);
        let t = run(&d, &stim, 1000).unwrap();
        // x=203 > 100 -> y = 203/2-3 = 98
        // x=13  <=100 -> y = 13*5 = 65
        // x=153 > 100 -> y = 153/2-3 = 73
        assert_eq!(t.outputs["o"], vec![98, 65, 73]);
    }

    #[test]
    fn resizer_has_paper_op_mix() {
        let d = compile(RESIZER_SRC).unwrap();
        let count = |k: OpKind| d.dfg.op_ids().filter(|&o| d.dfg.op(o).kind() == k).count();
        assert_eq!(count(OpKind::Read), 2);
        assert_eq!(count(OpKind::Write), 1);
        assert_eq!(count(OpKind::Div), 1);
        assert_eq!(count(OpKind::Mul), 1);
        assert_eq!(count(OpKind::Sub), 1);
        assert_eq!(count(OpKind::Add), 1);
        assert_eq!(count(OpKind::Mux), 1);
        assert_eq!(count(OpKind::Gt), 1);
    }

    #[test]
    fn resizer_div_span_is_hoistable_like_paper() {
        let d = compile(RESIZER_SRC).unwrap();
        let (_info, spans) = d.analyze().unwrap();
        let div = d
            .dfg
            .op_ids()
            .find(|&o| d.dfg.op(o).kind() == OpKind::Div)
            .unwrap();
        let mux = d
            .dfg
            .op_ids()
            .find(|&o| d.dfg.op(o).kind() == OpKind::Mux)
            .unwrap();
        // div can be hoisted above its branch (span > 1 edge); mux cannot.
        assert!(
            spans.span(div).len() > 1,
            "div should be hoistable as in the paper"
        );
        assert_eq!(spans.span(mux).len(), 1, "mux is pinned to the join edge");
    }

    #[test]
    fn while_loop_accumulates() {
        let src = "
        proc count(out y: u16) {
            let acc: u16 = 0;
            let i: u16 = 0;
            while i < 5 {
                acc = acc + i;
                i = i + 1;
                wait;
            }
            write(y, acc);
        }";
        let d = compile(src).unwrap();
        let t = run(&d, &Stimulus::new(), 1000).unwrap();
        assert_eq!(t.outputs["y"], vec![1 + 2 + 3 + 4]);
    }

    #[test]
    fn for_unroll_expands() {
        let src = "
        proc quad(in a: u16, out y: u16) {
            let x: u16 = read(a);
            for i in 0..3 unroll {
                x = x * 2;
            }
            write(y, x);
        }";
        let d = compile(src).unwrap();
        // Unrolled: three muls, no loop in the CFG.
        let muls = d
            .dfg
            .op_ids()
            .filter(|&o| d.dfg.op(o).kind() == OpKind::Mul)
            .count();
        assert_eq!(muls, 3);
        assert!(d.cfg.edge_ids().all(|e| !d.cfg.edge_is_back(e)));
        let t = run(&d, &Stimulus::new().stream("a", vec![3]), 100).unwrap();
        assert_eq!(t.outputs["y"], vec![24]);
    }

    #[test]
    fn bounded_for_loop_runs() {
        let src = "
        proc sum4(in a: u16, out y: u16) {
            let acc: u16 = 0;
            for i in 0..4 {
                acc = acc + read(a);
                wait;
            }
            write(y, acc);
        }";
        let d = compile(src).unwrap();
        let t = run(&d, &Stimulus::new().stream("a", vec![1, 2, 3, 4]), 1000).unwrap();
        assert_eq!(t.outputs["y"], vec![10]);
    }

    /// `soft` soft states and two ops (a read and a write).
    fn budgeted(soft: usize) -> String {
        format!("proc p(in a: u16, out o: u16) {{ budget {soft}; write(o, read(a)); }}")
    }

    #[test]
    fn graph_size_cap_admits_the_largest_design_and_rejects_one_more() {
        let d = compile(&budgeted(MAX_GRAPH_SIZE - 2)).unwrap();
        assert_eq!(d.dfg.len_ops(), 2);
        let err = compile(&budgeted(MAX_GRAPH_SIZE - 1)).unwrap_err();
        assert!(
            matches!(&err, Error::Capacity(m) if m.contains("more than 2048")),
            "{err}"
        );
        // `budget` past the cap stops at the cap, not after building it all.
        assert!(matches!(
            compile(&budgeted(100_000_000)),
            Err(Error::Capacity(_))
        ));
    }

    #[test]
    fn unrolling_past_the_cap_is_a_capacity_error() {
        for src in [
            "proc p(in a: u16, out o: u16) { let y: u16 = read(a); \
             for i in 0..100000000 unroll { y = y + 1; } write(o, y); }",
            // An empty body creates nothing, but every iteration counts.
            "proc p(out o: u16) { for i in 0..100000000 unroll { \
             for j in 0..100000000 unroll { } } write(o, 1); }",
        ] {
            assert!(matches!(compile(src), Err(Error::Capacity(_))), "{src}");
        }
    }

    #[test]
    fn deepest_admitted_source_compiles_on_a_two_mib_stack() {
        use crate::frontend::parser::{MAX_EXPR_DEPTH, MAX_NESTING};
        let chain = format!("read(a){}", " + 1".repeat(MAX_EXPR_DEPTH - 1));
        // Every block level the caps admit (the body, the `if`s and one
        // parenthesis), the deepest expression innermost.
        let ifs = MAX_NESTING - 2;
        let blocks = format!(
            "proc p(in a: u16, out o: u16) {{ {}write(o, ({chain}));{} }}",
            "if read(a) > 1 { ".repeat(ifs),
            " }".repeat(ifs)
        );
        let parens = format!(
            "proc p(in a: u16, out o: u16) {{ write(o, {}{chain}{}); }}",
            "(".repeat(MAX_NESTING - 1),
            ")".repeat(MAX_NESTING - 1)
        );
        let negs = format!(
            "proc p(in a: u16, out o: u16) {{ write(o, {}read(a)); }}",
            "- ".repeat(MAX_NESTING - 1)
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for src in [blocks, parens, negs] {
                    compile(&src).unwrap();
                }
            })
            .unwrap()
            .join()
            .expect("compiles within 2 MiB of stack");
    }

    #[test]
    fn budget_creates_soft_states() {
        let src = "
        proc soft(in a: u8, out y: u8) {
            let x: u8 = read(a) * 3;
            budget 2;
            write(y, x * 5);
        }";
        let d = compile(src).unwrap();
        use crate::cfg::{NodeKind, StateKind};
        let softs = d
            .cfg
            .node_ids()
            .filter(|&n| d.cfg.node_kind(n) == NodeKind::State(StateKind::Soft))
            .count();
        assert_eq!(softs, 2);
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = compile("proc p(out y: u8) { write(y, nope); }").unwrap_err();
        assert!(matches!(err, Error::Elab(_)));
    }

    #[test]
    fn write_to_input_port_rejected() {
        let err = compile("proc p(in a: u8) { write(a, 1); }").unwrap_err();
        assert!(matches!(err, Error::Elab(_)));
    }

    #[test]
    fn statements_after_infinite_loop_rejected() {
        let err =
            compile("proc p(in a: u8, out y: u8) { loop { write(y, read(a)); wait; } let z = 1; }")
                .unwrap_err();
        assert!(matches!(err, Error::Elab(_)));
    }

    #[test]
    fn literal_width_inference() {
        assert_eq!(super::literal_width(0), 1);
        assert_eq!(super::literal_width(1), 1);
        assert_eq!(super::literal_width(2), 2);
        assert_eq!(super::literal_width(255), 8);
        assert_eq!(super::literal_width(256), 9);
    }

    #[test]
    fn if_without_else_merges() {
        let src = "
        proc p(in a: u8, out y: u8) {
            let x: u8 = read(a);
            if x > 10 { x = x - 10; }
            write(y, x);
        }";
        let d = compile(src).unwrap();
        let t = run(&d, &Stimulus::new().stream("a", vec![25]), 100).unwrap();
        assert_eq!(t.outputs["y"], vec![15]);
        let t2 = run(&d, &Stimulus::new().stream("a", vec![5]), 100).unwrap();
        assert_eq!(t2.outputs["y"], vec![5]);
    }
}
