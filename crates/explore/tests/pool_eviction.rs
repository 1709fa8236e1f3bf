//! Pool cache eviction: a byte budget changes *what is recomputed*, never
//! *what is returned* — rows and replayed failures alike — and the budget
//! holds even under concurrent submitters.

use adhls_core::dse::DsePoint;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::eviction::row_cost;
use adhls_ir::builder::DesignBuilder;
use adhls_ir::OpKind;
use adhls_reslib::tsmc90;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn point(name: &str, soft: u32, clock: u64) -> DsePoint {
    let mut b = DesignBuilder::new(name);
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.binop(OpKind::Mul, x, y, 8);
    let m2 = b.binop(OpKind::Mul, m1, x, 8);
    let a = b.binop(OpKind::Add, m1, m2, 16);
    b.soft_waits(soft);
    b.write("z", a);
    DsePoint {
        name: name.into(),
        design: b.finish().unwrap().into(),
        clock_ps: clock,
        pipeline_ii: None,
        cycles_per_item: soft + 1,
    }
}

fn fleet() -> Vec<DsePoint> {
    (1..=6)
        .flat_map(|soft| {
            [1100u64, 1400].map(|clock| point(&format!("p{soft}c{clock}"), soft, clock))
        })
        .collect()
}

/// The fleet plus six overconstrained points: on a 1-ps clock no operation
/// fits, so the scheduler gives up and the point fails.
fn mixed_fleet() -> Vec<DsePoint> {
    let mut pts = fleet();
    pts.extend((1..=6).map(|soft| point(&format!("p{soft}c1"), soft, 1)));
    pts
}

/// The approximate cost of one cached fleet row, measured on a real row so
/// budgets scale with the entry size instead of hard-coding it.
fn one_row_cost() -> usize {
    let rows = pool(None, 1, false)
        .evaluate_serial(&fleet()[..1])
        .unwrap()
        .rows;
    row_cost(&rows[0])
}

fn pool(cache_bytes: Option<usize>, threads: usize, skip_infeasible: bool) -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads,
            skip_infeasible,
            cache_bytes,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any sequence of batches and any (even absurdly small) budget,
    /// the budgeted pool returns exactly the rows the unbudgeted pool
    /// returns — eviction only moves work from the cache to recomputation.
    /// Afterwards the cache sits within its budget.
    #[test]
    fn eviction_never_changes_returned_rows(
        batch_picks in prop::collection::vec(
            prop::collection::vec(0usize..12, 1..9),
            1..5,
        ),
        budget_rows in 1usize..40,
    ) {
        let all = fleet();
        let budget = budget_rows * one_row_cost();
        let unbudgeted = pool(None, 2, false);
        let budgeted = pool(Some(budget), 2, false);
        for picks in &batch_picks {
            let batch: Vec<DsePoint> = picks.iter().map(|&i| all[i].clone()).collect();
            let reference = unbudgeted.evaluate(&batch).expect("unbudgeted runs");
            let evicting = budgeted.evaluate(&batch).expect("budgeted runs");
            prop_assert_eq!(
                &reference.rows,
                &evicting.rows,
                "budget {} changed returned rows",
                budget
            );
            prop_assert!(evicting.skipped.is_empty());
        }
        let m = budgeted.cache_stats();
        prop_assert_eq!(m.capacity_bytes, Some(budget));
        prop_assert!(
            m.bytes <= budget,
            "cache holds {} bytes over the {} budget", m.bytes, budget
        );
        // A budgeted pool can only hit as often as the unbudgeted one —
        // eviction converts hits into recomputation, never the reverse.
        let free = unbudgeted.cache_stats();
        prop_assert!(m.hits + m.coalesced <= free.hits + free.coalesced);
    }

    /// Deterministic failures are cached entries like rows: under any
    /// budget the skipped messages equal the unbudgeted pool's, and the
    /// unbudgeted pool evaluates every key — failing ones included — once.
    #[test]
    fn failures_replay_identically_under_any_budget(
        batch_picks in prop::collection::vec(
            prop::collection::vec(0usize..18, 1..9),
            1..5,
        ),
        budget_rows in 1usize..40,
    ) {
        let all = mixed_fleet();
        let budget = budget_rows * one_row_cost();
        let unbudgeted = pool(None, 2, true);
        unbudgeted.telemetry().set_enabled(true);
        let budgeted = pool(Some(budget), 2, true);
        let mut distinct = HashSet::new();
        for picks in &batch_picks {
            let batch: Vec<DsePoint> = picks.iter().map(|&i| all[i].clone()).collect();
            distinct.extend(picks.iter().copied());
            let reference = unbudgeted.evaluate(&batch).expect("unbudgeted runs");
            let evicting = budgeted.evaluate(&batch).expect("budgeted runs");
            prop_assert_eq!(&reference.rows, &evicting.rows, "budget {}", budget);
            prop_assert_eq!(&reference.skipped, &evicting.skipped, "budget {}", budget);
            let failing = picks.iter().filter(|&&i| i >= 12).count();
            prop_assert_eq!(reference.skipped.len(), failing);
        }
        let evaluated = unbudgeted
            .metrics_snapshot()
            .histogram("pipeline.evaluate")
            .map_or(0, |h| h.count);
        prop_assert_eq!(evaluated, distinct.len() as u64);
        prop_assert_eq!(unbudgeted.cache_stats().misses, evaluated);
        prop_assert_eq!(unbudgeted.cache_len(), distinct.len());
        let m = budgeted.cache_stats();
        prop_assert!(
            m.bytes <= budget,
            "cache holds {} bytes over the {} budget", m.bytes, budget
        );
    }
}

/// Regression: a byte budget is respected *while* concurrent submitters
/// hammer the pool, not just at quiescence — each shard enforces its slice
/// under its own lock, so there is no window where the cache overshoots
/// and trims later.
#[test]
fn cache_budget_holds_under_concurrent_submitters() {
    let cost = one_row_cost();
    // Room for exactly one entry per shard. The fleet below has 24 points
    // (every name the same length, so every entry the same cost); 24 keys
    // over 16 shards guarantee by pigeonhole that some shard sees a second
    // insert and must evict — no reliance on hash luck.
    let budget = cost * 16;
    let shared = Arc::new(pool(Some(budget), 4, false));
    let pts: Vec<DsePoint> = (1..=8)
        .flat_map(|soft| {
            [1100u64, 1250, 1400].map(|clock| point(&format!("p{soft}c{clock}"), soft, clock))
        })
        .collect();
    assert_eq!(pts.len(), 24);
    let reference = pool(None, 1, false).evaluate_serial(&pts).unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&shared);
                // Different rotations so the LRU order differs per thread.
                let mut batch = pts.clone();
                batch.rotate_left(i * 3);
                scope.spawn(move || {
                    for _ in 0..3 {
                        let r = pool.evaluate(&batch).unwrap();
                        let m = pool.cache_stats();
                        assert!(
                            m.bytes <= budget,
                            "cache at {} bytes exceeds the {} budget mid-run",
                            m.bytes,
                            budget
                        );
                        assert_eq!(r.rows.len(), batch.len());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let m = shared.cache_stats();
    assert!(m.evictions > 0, "budget was sized to force evictions");
    assert!(m.bytes <= budget);
    assert!(m.entries > 0, "budget was sized to cache something");
    // And the rows the whole time were the serial engine's rows.
    let again = shared.evaluate(&pts).unwrap();
    assert_eq!(again.rows, reference.rows);
}

/// An unbudgeted pool never evicts — the one-shot CLI behavior.
#[test]
fn unbounded_pool_never_evicts() {
    let p = pool(None, 2, false);
    let pts = fleet();
    p.evaluate(&pts).unwrap();
    p.evaluate(&pts).unwrap();
    let m = p.cache_stats();
    assert_eq!(m.evictions, 0);
    assert_eq!(m.capacity_bytes, None);
    assert_eq!(m.entries, pts.len());
}
