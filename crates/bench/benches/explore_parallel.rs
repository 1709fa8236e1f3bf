//! One-shot evaluator throughput: serial vs parallel sweep evaluation on
//! the IDCT fleet, plus the memo-cache fast path.
//!
//! Tracks the speedup the pool's workers buy over the serial reference
//! (one point per `b.iter` would hide load imbalance, so each iteration
//! evaluates the whole fleet on a fresh pool, spawn and join included),
//! and how cheap a fully-cached re-sweep is.

use adhls_core::sched::HlsOptions;
use adhls_explore::{Engine, EngineOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::sweep;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn engine(lib: &adhls_reslib::Library, threads: usize) -> Engine<'_> {
    Engine::with_options(
        lib,
        HlsOptions::default(),
        EngineOptions {
            threads,
            ..Default::default()
        },
    )
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_parallel");
    let lib = tsmc90::library();
    // A mid-size IDCT grid: big enough for load imbalance to matter,
    // small enough to iterate (the full Table 4 fleet is a long bench).
    let points = sweep::idct_sweep(&[2200, 3000], &[16, 24, 32], &[None]);
    println!(
        "IDCT fleet: {} points, {} ops each",
        points.len(),
        points[0].design.dfg.len_ops()
    );

    c.bench_function("explore/idct_serial", |b| {
        b.iter(|| {
            black_box(
                engine(&lib, 1)
                    .evaluate_serial(&points)
                    .expect("fleet schedules")
                    .rows
                    .len(),
            )
        })
    });

    for threads in [2usize, 4] {
        c.bench_function(&format!("explore/idct_parallel_t{threads}"), |b| {
            b.iter(|| {
                black_box(
                    engine(&lib, threads)
                        .evaluate(&points)
                        .expect("fleet schedules")
                        .rows
                        .len(),
                )
            })
        });
    }

    // The telemetry-overhead check: the same 4-thread fleet sweep with
    // every meter live (the pool records into the global registry, current
    // at construction). Compare against explore/idct_parallel_t4 — the
    // observability layer's acceptance bar is <2% between the two.
    // Restores the registry's prior state so later benches (and a
    // recording run's enablement) are unaffected.
    c.bench_function("explore/idct_parallel_t4_telemetry", |b| {
        let was = adhls_telemetry::global().is_enabled();
        adhls_telemetry::global().set_enabled(true);
        b.iter(|| {
            black_box(
                engine(&lib, 4)
                    .evaluate(&points)
                    .expect("fleet schedules")
                    .rows
                    .len(),
            )
        });
        adhls_telemetry::global().set_enabled(was);
    });

    // The memoized path: everything already evaluated once.
    let warm = engine(&lib, 1);
    warm.evaluate_serial(&points).expect("fleet schedules");
    c.bench_function("explore/idct_cached_resweep", |b| {
        b.iter(|| black_box(warm.evaluate_serial(&points).expect("cached").rows.len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
