//! Property-based tests for the IR: span invariants, incremental bounds,
//! placement equivalence under code motion.

use adhls_ir::builder::DesignBuilder;
use adhls_ir::interp::{run, run_placed, Stimulus};
use adhls_ir::span::SpanAnalysis;
use adhls_ir::{Design, EdgeId, OpId, OpKind};
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
