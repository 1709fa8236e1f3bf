//! The cache key soundness contract, as properties.
//!
//! The pool's prefix cache (`pool::PrefixCache`) shares one `PreparedDesign`
//! across every clock/flow/II cell of a design. Preparation reads no
//! options, so its key is the design fingerprint alone, which must be
//! **sensitive** to every structural design knob, the latency budget
//! included (soft wait states change the ASAP/ALAP bounds baked into the
//! prefix, so latency cells are distinct designs with distinct prefixes).
//! The row cache's key must be sensitive to every options knob.

use adhls_core::dse::DsePoint;
use adhls_core::sched::{Flow, HlsOptions};
use adhls_core::PointMode;
use adhls_explore::fingerprint::{design_fingerprint, options_fingerprint};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use adhls_telemetry::Registry;
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
        (any::<bool>(), any::<bool>(), 1u32..300),
        0u64..50,
    )
        .prop_map(
            |(
                (clock_ps, flow, pipeline_ii),
                (zero_overhead, area_recovery, max_relax_rounds),
                overhead_ps,
            )| HlsOptions {
                clock_ps,
                flow,
                pipeline_ii,
                zero_overhead,
                area_recovery,
                max_relax_rounds,
                budget: BudgetOptions {
                    overhead_ps,
                    ..Default::default()
                },
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
            HlsOptions { max_relax_rounds: opts.max_relax_rounds + 1, ..opts.clone() },
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
        prop_assert_eq!(
            design_fingerprint(&base),
            design_fingerprint(&chain(width, waits, ops)),
            "identical rebuilds must share a prefix"
        );
        prop_assert_ne!(
            design_fingerprint(&base),
            design_fingerprint(&chain(width, waits + 1, ops)),
            "a latency-budget bump must get a fresh prefix"
        );
        prop_assert_ne!(
            design_fingerprint(&base),
            design_fingerprint(&chain(width.wrapping_mul(2).max(4), waits, ops)),
            "a width change must get a fresh prefix"
        );
        prop_assert_ne!(
            design_fingerprint(&base),
            design_fingerprint(&chain(width, waits, ops + 1)),
            "a structure change must get a fresh prefix"
        );
    }

    /// The evaluation mode sits exactly once in the cache hierarchy: in
    /// the per-point *row* key (modes never alias — a recover row cached
    /// first is never served to a full request, and vice versa) and NOT
    /// in the prefix key (all modes of one design share one prepared
    /// prefix, so the meter counts one miss per design, not per
    /// design × mode).
    #[test]
    fn modes_share_prefixes_but_never_alias_rows(
        wait_seeds in prop::collection::vec(0u32..5, 2..4),
        clock_seeds in prop::collection::vec(0u16..6, 2..4),
    ) {
        let mut waits: Vec<u32> = wait_seeds.clone();
        waits.sort_unstable();
        waits.dedup();
        let mut clocks: Vec<u64> = clock_seeds.iter().map(|&s| 1100 + 170 * u64::from(s)).collect();
        clocks.sort_unstable();
        clocks.dedup();
        let points: Vec<DsePoint> = waits
            .iter()
            .flat_map(|&w| {
                clocks.iter().map(move |&c| (w, c))
            })
            .map(|(w, c)| DsePoint {
                name: format!("fp-w{w}-c{c}"),
                design: chain(8, w, 3).into(),
                clock_ps: c,
                pipeline_ii: None,
                cycles_per_item: w + 1,
            })
            .collect();

        let registry = Registry::new();
        registry.set_enabled(true);
        // Serial worker for exact prefix-consult arithmetic (racing
        // workers both count a benign miss on the same absent prefix).
        let shared = EvaluatorPool::with_telemetry(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions { threads: 1, skip_infeasible: true, ..Default::default() },
            registry,
        );
        let rec1 = shared.evaluate_mode(&points, PointMode::Recover).expect("recover runs");
        let full1 = shared.evaluate_mode(&points, PointMode::Full).expect("full runs");
        let rec2 = shared.evaluate_mode(&points, PointMode::Recover).expect("recover re-runs");
        prop_assert_eq!(&rec1.rows, &rec2.rows, "re-served recover rows changed");

        // The shared cache never leaked a recover row into full's answer:
        // a fresh full-only pool agrees bit for bit.
        let fresh = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions { threads: 1, skip_infeasible: true, ..Default::default() },
        );
        let full2 = fresh.evaluate_mode(&points, PointMode::Full).expect("full re-runs");
        prop_assert_eq!(&full1.rows, &full2.rows, "mode aliasing corrupted a full row");

        // Prefix sharing across modes: one miss per distinct design, no
        // matter how many modes evaluated it.
        let snap = shared.metrics_snapshot();
        prop_assert_eq!(
            snap.counter("pipeline.prefix.miss"),
            Some(waits.len() as u64),
            "prefix cache split by mode"
        );
    }
}
