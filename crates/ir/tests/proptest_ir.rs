//! Property-based tests for the IR: span invariants, incremental bounds,
//! placement equivalence under code motion, and CFG analysis against the
//! path definitions of its relations on random structured CFGs.

use adhls_ir::builder::DesignBuilder;
use adhls_ir::interp::{run, run_placed, Stimulus};
use adhls_ir::span::SpanAnalysis;
use adhls_ir::{Cfg, Design, EdgeId, NodeId, NodeKind, OpId, OpKind, StateKind};
use proptest::prelude::*;

/// A recipe for a random straight-line design with soft-state budget.
#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    /// (kind selector, operand a, operand b) per op.
    ops: Vec<(u8, usize, usize)>,
    soft_states: u32,
    hard_mid: bool,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        1usize..4,
        prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..40),
        0u32..4,
        any::<bool>(),
    )
        .prop_map(|(n_inputs, ops, soft_states, hard_mid)| Recipe {
            n_inputs,
            ops,
            soft_states,
            hard_mid,
        })
}

fn build(r: &Recipe) -> (Design, Vec<OpId>) {
    let mut b = DesignBuilder::new("prop");
    let mut pool: Vec<OpId> = (0..r.n_inputs)
        .map(|i| b.input(format!("in{i}"), 16))
        .collect();
    let half = r.ops.len() / 2;
    for (i, &(k, ia, ib)) in r.ops.iter().enumerate() {
        if r.hard_mid && i == half {
            b.wait();
        }
        let a = pool[ia % pool.len()];
        let c = pool[ib % pool.len()];
        let kind = match k {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Mul,
            3 => OpKind::And,
            4 => OpKind::Xor,
            _ => OpKind::Or,
        };
        pool.push(b.binop(kind, a, c, 16));
    }
    b.soft_waits(r.soft_states);
    let last = *pool.last().expect("at least one value");
    b.write("out", last);
    let d = b.finish().expect("generated design is valid");
    (d, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every span contains the op's birth edge or a dominator of it, is
    /// non-empty, and is ordered early-to-late.
    #[test]
    fn spans_are_well_formed(r in recipe()) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        for o in d.dfg.op_ids() {
            let sp = spans.span(o);
            prop_assert!(!sp.edges.is_empty(), "{o} has an empty span");
            prop_assert!(sp.contains(sp.early));
            prop_assert!(sp.contains(sp.late));
            prop_assert!(info.reaches(sp.early, sp.late));
            // Every span edge lies between early and late.
            for &e in &sp.edges {
                prop_assert!(info.reaches(sp.early, e) && info.reaches(e, sp.late));
            }
            // The span permits the birth edge or an edge dominating it.
            let birth = d.dfg.birth(o);
            prop_assert!(
                sp.edges.iter().any(|&e| info.edge_dominates(e, birth)
                    || info.edge_dominates(birth, e)),
                "{o} span unrelated to birth"
            );
        }
    }

    /// Operand availability: early(pred) always reaches early(op), so the
    /// timed DFG is constructible (all latencies defined).
    #[test]
    fn pred_early_reaches_op_early(r in recipe()) {
        let (d, _) = build(&r);
        let (info, spans) = d.analyze().unwrap();
        for o in d.dfg.op_ids() {
            for p in d.dfg.forward_operands(o) {
                if d.dfg.op(p).kind().is_const() {
                    continue;
                }
                prop_assert!(info.reaches(spans.early(p), spans.early(o)));
                prop_assert!(
                    info.latency(spans.early(p), spans.early(o)).is_some()
                );
            }
        }
    }

    /// Executing every op at its EARLY edge and at its LATE edge gives the
    /// same output stream as birth placement (code motion is
    /// semantics-preserving).
    #[test]
    fn placement_extremes_preserve_semantics(r in recipe(), vals in prop::collection::vec(0u64..1000, 4)) {
        let (d, _) = build(&r);
        let (_info, spans) = d.analyze().unwrap();
        let mut stim = Stimulus::new();
        for i in 0..r.n_inputs {
            stim = stim.input(format!("in{i}"), vals[i % vals.len()]);
        }
        let base = run(&d, &stim, 10_000).unwrap();
        let early = run_placed(&d, &stim, 10_000, |o| spans.early(o)).unwrap();
        let late = run_placed(&d, &stim, 10_000, |o| spans.late(o)).unwrap();
        prop_assert_eq!(&base.outputs, &early.outputs);
        prop_assert_eq!(&base.outputs, &late.outputs);
    }

    /// Pinning ops in topological order, a few at a time, each on a legal
    /// edge inside its current bounds (as the scheduler does), the
    /// incremental `repin` agrees with a full `bounds_pinned` after every
    /// batch — both fail or both produce the same bounds — and reports
    /// exactly the ops whose bounds moved.
    #[test]
    fn repin_equals_full_recompute(
        r in recipe(),
        picks in prop::collection::vec((0usize..8, 1usize..4), 1..64),
    ) {
        let (d, _) = build(&r);
        let info = d.validate().unwrap();
        let analysis = SpanAnalysis::new(&d.dfg, &info).unwrap();
        let mut bounds = analysis.bounds_pinned(&d.dfg, &info, |_| None).unwrap();
        let mut pins: Vec<Option<EdgeId>> = vec![None; d.dfg.len_ids()];
        let order = d.dfg.topo_order().unwrap();
        let mut moved = Vec::new();
        let (mut next, mut step) = (0, 0);
        while next < order.len() {
            let (choice, size) = picks[step % picks.len()];
            step += 1;
            let batch: Vec<OpId> = order[next..(next + size).min(order.len())].to_vec();
            next += batch.len();
            for &o in &batch {
                let fits: Vec<EdgeId> = analysis
                    .legal(o)
                    .iter()
                    .copied()
                    .filter(|&e| bounds.contains(&analysis, &info, o, e))
                    .collect();
                pins[o.0 as usize] = Some(if fits.is_empty() {
                    bounds.early(o)
                } else {
                    fits[choice % fits.len()]
                });
            }
            let before = bounds.clone();
            let inc = analysis.repin(&d.dfg, &info, &mut bounds, |o| pins[o.0 as usize], &batch, &mut moved);
            let full = analysis.bounds_pinned(&d.dfg, &info, |o| pins[o.0 as usize]);
            prop_assert_eq!(inc.is_ok(), full.is_ok(), "only one side failed");
            let Ok(full) = full else { break };
            for o in d.dfg.op_ids() {
                let now = (bounds.early(o), bounds.late(o));
                prop_assert_eq!(now, (full.early(o), full.late(o)), "{} bounds", o);
                let was = (before.early(o), before.late(o));
                prop_assert_eq!(now != was, moved.contains(&o), "{} moved", o);
            }
        }
    }

    /// CFG latency is triangle-consistent: lat(a,c) <= lat(a,b) + lat(b,c)
    /// whenever both legs exist, and reachability is transitive.
    #[test]
    fn latency_triangle_inequality(r in recipe()) {
        let (d, _) = build(&r);
        let info = d.validate().unwrap();
        let edges: Vec<_> = info.edge_topo().to_vec();
        for &a in &edges {
            for &b in &edges {
                if !info.reaches(a, b) {
                    continue;
                }
                for &c in &edges {
                    if !info.reaches(b, c) {
                        continue;
                    }
                    prop_assert!(info.reaches(a, c), "reach not transitive");
                    let (ab, bc, ac) = (
                        info.latency(a, b).unwrap(),
                        info.latency(b, c).unwrap(),
                        info.latency(a, c).unwrap(),
                    );
                    prop_assert!(
                        ac <= ab + bc,
                        "latency triangle violated: {ac} > {ab} + {bc}"
                    );
                }
            }
        }
    }
}

/// A random structured control-flow program, one step per (selector,
/// variant) pair: a hard or soft state, a plain node, an `if`, an `else`
/// for the innermost open `if`, a loop, or the end of the innermost open
/// `if` or loop. A loop's variant says whether a state ends its body
/// (three in four do; the rest wait only where their body happens to,
/// often on one branch, so many of them must be rejected) and whether its
/// back edge is added pre-marked or left for classification to find.
/// 400 programs average ~36 edges, ~3 back edges and ~1 parallel
/// fork→join pair, and about a quarter of them hold a state-free cycle.
fn cfg_program() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..8), 1..64)
}

/// An open `if` or loop while a program is laid out.
enum Frame {
    /// The fork, and where the `then` branch ended once `else` was seen.
    If {
        fork: NodeId,
        then_end: Option<NodeId>,
    },
    /// The loop header, whether a state ends the body, and whether the
    /// closing edge is pre-marked.
    Loop {
        header: NodeId,
        guarded: bool,
        marked: bool,
    },
}

/// Lays out a program as a raw [`Cfg`]: each node hangs off the current
/// tail, an `if` joins both branches (an empty branch is a direct
/// fork→join edge, so an empty `if` makes a parallel pair), and a loop
/// ends in a fork whose edge back to the header closes it. Returns the
/// graph and each edge's intended back-edge flag.
fn lay_out(steps: &[(u8, u8)]) -> (Cfg, Vec<bool>) {
    let mut g = Cfg::new("oracle");
    let mut back = Vec::new();
    let mut cur = g.add_node(NodeKind::Start);
    let mut open: Vec<Frame> = Vec::new();
    let append = |g: &mut Cfg, back: &mut Vec<bool>, cur: &mut NodeId, kind| {
        let n = g.add_node(kind);
        g.add_edge(*cur, n);
        back.push(false);
        *cur = n;
    };
    let close = |g: &mut Cfg, back: &mut Vec<bool>, cur: &mut NodeId, frame| match frame {
        Frame::If { fork, then_end } => {
            let join = g.add_node(NodeKind::Join);
            g.add_edge(then_end.unwrap_or(fork), join);
            g.add_edge(*cur, join);
            back.extend([false, false]);
            *cur = join;
        }
        Frame::Loop {
            header,
            guarded,
            marked,
        } => {
            if guarded {
                append(g, back, cur, NodeKind::State(StateKind::Hard));
            }
            append(g, back, cur, NodeKind::Fork);
            if marked {
                g.add_back_edge(*cur, header);
            } else {
                g.add_edge(*cur, header);
            }
            back.push(true);
        }
    };
    for &(sel, variant) in steps {
        match sel {
            0..=6 => append(
                &mut g,
                &mut back,
                &mut cur,
                NodeKind::State(StateKind::Hard),
            ),
            7 => append(
                &mut g,
                &mut back,
                &mut cur,
                NodeKind::State(StateKind::Soft),
            ),
            8 => append(&mut g, &mut back, &mut cur, NodeKind::Plain),
            9 | 10 => {
                append(&mut g, &mut back, &mut cur, NodeKind::Fork);
                open.push(Frame::If {
                    fork: cur,
                    then_end: None,
                });
            }
            11 => {
                if let Some(Frame::If {
                    fork,
                    then_end: then_end @ None,
                }) = open.last_mut()
                {
                    *then_end = Some(cur);
                    cur = *fork;
                }
            }
            12 | 13 => {
                append(&mut g, &mut back, &mut cur, NodeKind::Join);
                open.push(Frame::Loop {
                    header: cur,
                    guarded: variant >= 2,
                    marked: variant % 2 == 0,
                });
            }
            _ => {
                if let Some(frame) = open.pop() {
                    close(&mut g, &mut back, &mut cur, frame);
                }
            }
        }
    }
    while let Some(frame) = open.pop() {
        close(&mut g, &mut back, &mut cur, frame);
    }
    (g, back)
}

/// Nodes reachable from `from` over the edges `keep` admits.
fn reachable(g: &Cfg, from: NodeId, keep: impl Fn(EdgeId) -> bool) -> Vec<bool> {
    let mut seen = vec![false; g.len_nodes()];
    seen[from.0 as usize] = true;
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for e in g.out_edges(n).filter(|&e| keep(e)) {
            let t = g.edge_to(e);
            if !seen[t.0 as usize] {
                seen[t.0 as usize] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// Whether a walk from `from` to `to` passes no state node, the two ends
/// included: every edge of such a walk runs in one clock cycle.
fn state_free_walk(g: &Cfg, from: NodeId, to: NodeId) -> bool {
    let state = |n: NodeId| g.node_kind(n).is_state();
    !state(from) && !state(to) && reachable(g, from, |e| !state(g.edge_to(e)))[to.0 as usize]
}

/// Whether the graph holds a cycle of non-state nodes (a loop that never
/// waits for a clock edge).
fn has_state_free_cycle(g: &Cfg) -> bool {
    g.edge_ids()
        .any(|e| state_free_walk(g, g.edge_to(e), g.edge_from(e)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Analysis of a random structured CFG (branches with empty arms,
    /// nested loops, back edges pre-marked or found by classification)
    /// fails exactly when a state-free cycle exists, and otherwise finds
    /// exactly the loop-closing edges as back edges.
    #[test]
    fn cfg_analysis_fails_exactly_on_state_free_cycles(steps in cfg_program()) {
        let (g, back) = lay_out(&steps);
        match g.analyze() {
            Ok(info) => {
                prop_assert!(!has_state_free_cycle(&g), "state-free cycle accepted");
                for e in g.edge_ids() {
                    prop_assert_eq!(info.is_back_edge(e), back[e.0 as usize], "{} back", e);
                }
            }
            Err(err) => {
                prop_assert!(has_state_free_cycle(&g), "rejected without a state-free cycle: {}", err);
            }
        }
    }

    /// On every edge pair of a random structured CFG, edge dominance,
    /// post-dominance and same-cycle co-execution equal their path
    /// definitions: `a` dominates `b` when cutting `a` leaves `b`
    /// unreachable from the start; `a` post-dominates `b` when, with `a`
    /// cut, no forward walk from `b` reaches a node without forward
    /// successors; and two edges share a cycle when a walk from one to
    /// the other passes no state node. Relations involving a back edge
    /// are reflexive only.
    #[test]
    fn cfg_relations_equal_path_definitions(steps in cfg_program()) {
        let (g, back) = lay_out(&steps);
        let Ok(info) = g.analyze() else { return Ok(()) };
        let fwd = |e: EdgeId| !back[e.0 as usize];
        let sink: Vec<bool> = g
            .node_ids()
            .map(|n| g.out_edges(n).all(|e| !fwd(e)))
            .collect();
        for a in g.edge_ids() {
            let without_a = reachable(&g, g.start(), |e| fwd(e) && e != a);
            for b in g.edge_ids() {
                let both = a == b || (fwd(a) && fwd(b));
                let dom = a == b || (both && !without_a[g.edge_from(b).0 as usize]);
                prop_assert_eq!(info.edge_dominates(a, b), dom, "{} dominates {}", a, b);
                let escapes = reachable(&g, g.edge_to(b), |e| fwd(e) && e != a)
                    .iter()
                    .zip(&sink)
                    .any(|(&r, &s)| r && s);
                let pdom = a == b || (both && !escapes);
                prop_assert_eq!(info.edge_postdominates(a, b), pdom, "{} post-dominates {}", a, b);
                let same = a == b
                    || state_free_walk(&g, g.edge_to(a), g.edge_from(b))
                    || state_free_walk(&g, g.edge_to(b), g.edge_from(a));
                prop_assert_eq!(info.same_cycle(a, b), same, "{} same cycle as {}", a, b);
            }
        }
    }
}
