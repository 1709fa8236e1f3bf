//! The persistent pool's headline contract: sweeps and adaptive
//! refinements submitted concurrently through one shared pool are
//! bit-identical to their serial references — worker count, request
//! interleaving, and cache state must not leak into any result.

use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, RefineOptions};
use adhls_explore::sweep::SweepCell;
use adhls_explore::{Engine, EngineOptions, SweepGrid};
use adhls_ir::Design;
use adhls_reslib::tsmc90;
use adhls_workloads::{interpolation, sweep};
use std::sync::Arc;

fn interp_cell(cell: &SweepCell) -> Design {
    let cfg = interpolation::InterpolationConfig {
        cycles: cell.cycles,
        ..Default::default()
    };
    interpolation::build(&cfg).0
}

fn serial_engine(lib: &adhls_reslib::Library) -> Engine<'_> {
    Engine::with_options(
        lib,
        HlsOptions::default(),
        EngineOptions {
            threads: 1,
            ..Default::default()
        },
    )
}

fn interp_grid() -> SweepGrid {
    SweepGrid::new()
        .clocks_ps([1100, 1400, 1800, 2400])
        .cycles([3, 4, 6])
}

#[test]
fn pool_sweep_matches_serial_engine_on_a_real_workload() {
    let lib = tsmc90::library();
    let points = sweep::interpolation_default();
    let serial = serial_engine(&lib)
        .evaluate_serial(&points)
        .expect("serial sweep schedules");
    let pool = EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 4,
            ..Default::default()
        },
    );
    let r = pool.evaluate(&points).expect("pool sweep schedules");
    assert_eq!(r.rows, serial.rows, "pool rows must be bit-identical");
}

#[test]
fn concurrent_sweeps_through_one_pool_stay_bit_identical_to_serial() {
    let lib = tsmc90::library();
    let points = sweep::interpolation_default();
    let reference = serial_engine(&lib)
        .evaluate_serial(&points)
        .expect("serial sweep schedules")
        .rows;
    let pool = Arc::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 4,
            ..Default::default()
        },
    ));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let points = points.clone();
                scope.spawn(move || pool.evaluate(&points).expect("pool sweep schedules"))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panics").rows, reference);
        }
    });
}

#[test]
fn concurrent_adaptive_refinements_share_one_pool_bit_identically() {
    // The ISSUE's acceptance bar: adaptive sweeps racing on one shared
    // pool must produce the same rows, front, and trace as a serial run.
    let lib = tsmc90::library();
    let opts = RefineOptions {
        gap_tol: 0.05,
        ..Default::default()
    };
    let serial_engine = Engine::with_options(
        &lib,
        HlsOptions::default(),
        EngineOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    );
    let reference = refine(&serial_engine, &interp_grid(), "interp", interp_cell, &opts)
        .expect("serial refinement runs");
    assert!(!reference.front.is_empty());

    let pool = Arc::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 4,
            skip_infeasible: true,
            ..Default::default()
        },
    ));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let opts = opts.clone();
                scope.spawn(move || {
                    refine(&pool, &interp_grid(), "interp", interp_cell, &opts)
                        .expect("pooled refinement runs")
                })
            })
            .collect();
        for h in handles {
            let r = h.join().expect("no panics");
            assert_eq!(r.rows, reference.rows, "rows diverged");
            assert_eq!(r.front, reference.front, "front diverged");
            assert_eq!(r.trace, reference.trace, "trace diverged");
            assert_eq!(r.pruned, reference.pruned);
        }
    });
}

#[test]
fn pool_cache_survives_across_refinements() {
    // A second refinement of the same grid through the same pool must be
    // answered from the cache — the cross-request reuse the pool exists
    // for.
    let pool = EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 2,
            skip_infeasible: true,
            ..Default::default()
        },
    );
    let opts = RefineOptions::default();
    let first = refine(&pool, &interp_grid(), "interp", interp_cell, &opts).unwrap();
    let s0 = pool.cache_stats();
    let second = refine(&pool, &interp_grid(), "interp", interp_cell, &opts).unwrap();
    let s1 = pool.cache_stats();
    assert_eq!(first, second, "refinement must be reproducible");
    assert_eq!(s1.misses, s0.misses, "no new HLS runs on the second pass");
    assert_eq!(
        (s1.hits + s1.coalesced) - (s0.hits + s0.coalesced),
        first.evaluated as u64,
        "every resubmitted cell is a cache hit"
    );
}
