//! Paper §VII Table 4 — the IDCT design-space exploration.
//!
//! Prints the full reproduced 15-point table with `A_conv` / `A_slack` /
//! `Save %` and the sweep summary (power/throughput/area ranges), then
//! benchmarks one representative point per regime.

use adhls_core::dse::{explore, summarize, table4, DsePoint, DseSummary};
use adhls_core::sched::{run_hls, Flow, HlsOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::idct;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn points() -> Vec<DsePoint> {
    idct::table4_points()
        .into_iter()
        .map(|(name, cfg, clock)| DsePoint {
            name,
            design: idct::build_2d(&cfg).into(),
            clock_ps: clock,
            pipeline_ii: cfg.pipelined,
            cycles_per_item: cfg.pipelined.unwrap_or(cfg.cycles),
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let lib = tsmc90::library();
    let pts = points();
    let rows = explore(&pts, &lib, &HlsOptions::default()).expect("all points schedule");
    println!("=== Paper Table 4 (reproduced; paper avg 8.9%, 3 regressions) ===");
    println!("{}", table4(&rows));
    let s = summarize(&rows).expect("non-empty sweep");
    println!(
        "summary: avg {:.1}% save, {} regressions; ranges {} power / {} throughput / {} area",
        s.avg_save_pct,
        s.regressions,
        DseSummary::fmt_range(s.power_range, 1),
        DseSummary::fmt_range(s.throughput_range, 1),
        DseSummary::fmt_range(s.area_range, 2)
    );
    println!("(paper §VII text: 20x power / 7x throughput / 1.5x area)\n");

    // Benchmark a loose, a mid, and a tight point under both flows.
    for idx in [0usize, 5, 9] {
        let p = &pts[idx];
        for (tag, flow) in [("conv", Flow::Conventional), ("slack", Flow::SlackBased)] {
            let opts = HlsOptions {
                clock_ps: p.clock_ps,
                flow,
                pipeline_ii: p.pipeline_ii,
                ..Default::default()
            };
            c.bench_function(&format!("table4/{}_{}", p.name, tag), |b| {
                b.iter(|| black_box(run_hls(&p.design, &lib, &opts).unwrap().area.total))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
