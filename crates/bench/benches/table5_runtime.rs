//! Paper §VII Table 5 — relative scheduling execution times.
//!
//! Columns: conventional scheduling (no in-loop timing analysis),
//! slack-based with the paper's linear sequential-slack engine, and
//! slack-based with the Bellman-Ford engine of prior work \[10\].
//! The paper reports 1 / 1.18 / 10.2 on its D1 design; this bench prints
//! its own ratios before criterion's timings. Ours include relaxation
//! restarts, re-analysis and each run's prefix preparation in the flow
//! times, while the pure per-call analysis ratio is measured by the
//! `table3` bench.

use adhls_core::sched::{run_hls, Flow, HlsOptions};
use adhls_reslib::tsmc90;
use adhls_timing::budget::{BudgetOptions, SlackEngine};
use adhls_workloads::idct;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn opts(flow: Flow, engine: SlackEngine) -> HlsOptions {
    HlsOptions {
        clock_ps: 2200,
        flow,
        budget: BudgetOptions {
            engine,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn bench(c: &mut Criterion) {
    // D1-class design: the largest-latency IDCT point.
    let design = idct::build_2d(&idct::IdctConfig {
        cycles: 32,
        pipelined: None,
    });
    let lib = tsmc90::library();

    // One-shot ratio print (criterion's own numbers follow).
    let time = |flow: Flow, engine: SlackEngine| -> f64 {
        let o = opts(flow, engine);
        let t0 = Instant::now();
        for _ in 0..3 {
            run_hls(&design, &lib, &o).unwrap();
        }
        t0.elapsed().as_secs_f64() / 3.0
    };
    let conv = time(Flow::Conventional, SlackEngine::Topological);
    let slack = time(Flow::SlackBased, SlackEngine::Topological);
    let bf = time(Flow::SlackBased, SlackEngine::BellmanFord);
    println!("=== Paper Table 5 (relative scheduling times; paper: 1 / 1.18 / 10.2) ===");
    println!(
        "conventional 1.00 | sequential-slack-based {:.2} | Bellman-Ford-based {:.2}",
        slack / conv,
        bf / conv
    );
    println!(
        "absolute: {:.1} ms / {:.1} ms / {:.1} ms\n",
        conv * 1e3,
        slack * 1e3,
        bf * 1e3
    );

    c.bench_function("table5/conventional", |b| {
        b.iter(|| {
            black_box(
                run_hls(
                    &design,
                    &lib,
                    &opts(Flow::Conventional, SlackEngine::Topological),
                )
                .unwrap()
                .area
                .total,
            )
        })
    });
    c.bench_function("table5/slack_based_topological", |b| {
        b.iter(|| {
            black_box(
                run_hls(
                    &design,
                    &lib,
                    &opts(Flow::SlackBased, SlackEngine::Topological),
                )
                .unwrap()
                .area
                .total,
            )
        })
    });
    c.bench_function("table5/slack_based_bellman_ford", |b| {
        b.iter(|| {
            black_box(
                run_hls(
                    &design,
                    &lib,
                    &opts(Flow::SlackBased, SlackEngine::BellmanFord),
                )
                .unwrap()
                .area
                .total,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
