//! The cache key soundness contract, as properties.
//!
//! The pool's prefix cache shares one `PreparedDesign` across every
//! clock/flow/II cell of a design. Preparation reads no options, so its
//! key is the design alone — indexed by the design fingerprint and
//! verified by `same_structure` — and both must be **sensitive** to every
//! structural design knob, the latency budget included (soft wait states
//! change the ASAP/ALAP bounds baked into the prefix, so latency cells are
//! distinct designs with distinct prefixes).
//! The row cache's key must be sensitive to every options knob.

use adhls_core::sched::{Flow, HlsOptions};
use adhls_explore::fingerprint::{design_fingerprint, options_fingerprint, same_structure};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_timing::budget::SlackEngine;
use adhls_timing::{BudgetOptions, SlackMode};
use proptest::prelude::*;

const FLOWS: [Flow; 3] = [Flow::Conventional, Flow::SlowestUpgrade, Flow::SlackBased];

fn arb_flow() -> impl Strategy<Value = Flow> {
    (0usize..FLOWS.len()).prop_map(|i| FLOWS[i])
}

/// `Option<u32>` in `1..8` (an II request, or none).
fn arb_ii() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), 1u32..8).prop_map(|(some, ii)| some.then_some(ii))
}

/// Random options over every knob, prefix-surviving and not.
fn arb_opts() -> impl Strategy<Value = HlsOptions> {
    (
        (500u64..3000, arb_flow(), arb_ii()),
        (any::<bool>(), any::<bool>()),
        0u64..50,
    )
        .prop_map(
            |((clock_ps, flow, pipeline_ii), (zero_overhead, area_recovery), overhead_ps)| {
                HlsOptions {
                    clock_ps,
                    flow,
                    pipeline_ii,
                    zero_overhead,
                    area_recovery,
                    budget: BudgetOptions {
                        overhead_ps,
                        ..Default::default()
                    },
                }
            },
        )
}

/// A multiply-add chain whose latency budget is baked in as soft wait
/// states — the repo's grid-cell shape.
fn chain(width: u16, waits: u32, ops: usize) -> Design {
    let mut b = DesignBuilder::new("fp");
    let x = b.input("x", width);
    let y = b.input("y", width);
    let mut v = b.binop(OpKind::Mul, x, y, width);
    for _ in 1..ops.max(1) {
        v = b.binop(OpKind::Add, v, x, width);
    }
    b.soft_waits(waits);
    b.write("z", v);
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sensitive direction, options side: every knob besides the clock,
    /// the flow and the II moves the full options fingerprint.
    #[test]
    fn prefix_fingerprint_tracks_every_other_knob(opts in arb_opts()) {
        let flips: Vec<HlsOptions> = vec![
            HlsOptions { zero_overhead: !opts.zero_overhead, ..opts.clone() },
            HlsOptions { area_recovery: !opts.area_recovery, ..opts.clone() },
            HlsOptions {
                budget: BudgetOptions { overhead_ps: opts.budget.overhead_ps + 1, ..opts.budget },
                ..opts.clone()
            },
            HlsOptions {
                budget: BudgetOptions { margin_frac: 0.25, ..opts.budget },
                ..opts.clone()
            },
            HlsOptions {
                budget: BudgetOptions { mode: SlackMode::Plain, ..opts.budget },
                ..opts.clone()
            },
            HlsOptions {
                budget: BudgetOptions { engine: SlackEngine::BellmanFord, ..opts.budget },
                ..opts.clone()
            },
        ];
        for flipped in flips {
            prop_assert_ne!(
                options_fingerprint(&opts),
                options_fingerprint(&flipped),
                "the full options fingerprint missed a knob: {:?}",
                flipped
            );
        }
    }

    /// The full options fingerprint stays sensitive to the prefix knobs —
    /// the *result* cache must still split per clock/flow/II even though
    /// the prefix cache does not.
    #[test]
    fn full_fingerprint_still_splits_result_cells(opts in arb_opts()) {
        let clock = HlsOptions { clock_ps: opts.clock_ps + 1, ..opts.clone() };
        prop_assert_ne!(options_fingerprint(&opts), options_fingerprint(&clock));
        let ii = HlsOptions {
            pipeline_ii: Some(opts.pipeline_ii.map_or(1, |ii| ii + 1)),
            ..opts.clone()
        };
        prop_assert_ne!(options_fingerprint(&opts), options_fingerprint(&ii));
    }

    /// Sensitive direction, design side: the latency budget lives in the
    /// design (soft wait states), feeds the prefix's bounds, and must
    /// therefore split the design fingerprint — the prefix cache key.
    /// Structure and width must split it too; rebuilding identically must
    /// not.
    #[test]
    fn design_fingerprint_tracks_the_latency_budget(
        width in (0usize..4).prop_map(|i| [4u16, 8, 16, 32][i]),
        waits in 0u32..6,
        ops in 1usize..5,
    ) {
        let base = chain(width, waits, ops);
        let rebuilt = chain(width, waits, ops);
        prop_assert_eq!(
            design_fingerprint(&base),
            design_fingerprint(&rebuilt),
            "identical rebuilds must share a prefix"
        );
        prop_assert!(same_structure(&base, &rebuilt));
        let changed = [
            (chain(width, waits + 1, ops), "a latency-budget bump"),
            (chain(width.wrapping_mul(2).max(4), waits, ops), "a width change"),
            (chain(width, waits, ops + 1), "a structure change"),
        ];
        for (other, what) in changed {
            prop_assert_ne!(
                design_fingerprint(&base),
                design_fingerprint(&other),
                "{} must get a fresh prefix",
                what
            );
            prop_assert!(!same_structure(&base, &other), "{} matched", what);
        }
    }
}
