//! Reproduces paper §VII Table 4: the IDCT design-space exploration.
//!
//! 15 design points over an 8×8 fixed-point IDCT — latencies 32 → 8
//! cycles, three clock corners, pipelined and not — each synthesized with
//! the conventional flow (`A_conv`) and the slack-based flow (`A_slack`).
//!
//! Run: `cargo run --release --example idct_dse`

use adhls::core::dse::{explore, summarize, table4, DsePoint, DseSummary};
use adhls::prelude::*;
use adhls::workloads::idct;

fn main() {
    let lib = tsmc90::library();
    let points: Vec<DsePoint> = idct::table4_points()
        .into_iter()
        .map(|(name, cfg, clock)| DsePoint {
            name,
            design: idct::build_2d(&cfg).into(),
            clock_ps: clock,
            pipeline_ii: cfg.pipelined,
            cycles_per_item: cfg.pipelined.unwrap_or(cfg.cycles),
        })
        .collect();

    println!(
        "8x8 IDCT: {} ops per block; 15 design points\n",
        points[0].design.dfg.len_ops()
    );
    let t0 = std::time::Instant::now();
    let rows = explore(&points, &lib, &HlsOptions::default()).expect("all points schedulable");
    println!("{}", table4(&rows));
    let s = summarize(&rows).expect("non-empty sweep");
    println!("paper Table 4: average saving 8.9%, 3 regressions (D5-D7)");
    println!(
        "measured     : average saving {:.1}%, {} regressions",
        s.avg_save_pct, s.regressions
    );
    println!(
        "\nsweep ranges (paper §VII: 20x power, 7x throughput, 1.5x area):\n\
         measured     : {} power, {} throughput, {} area",
        DseSummary::fmt_range(s.power_range, 1),
        DseSummary::fmt_range(s.throughput_range, 1),
        DseSummary::fmt_range(s.area_range, 2)
    );
    println!(
        "\ntotal exploration time: {:.2?} (30 HLS runs)",
        t0.elapsed()
    );
}
