//! `adhls report` — reproduce the paper's headline tables, or re-render an
//! exported telemetry snapshot (`--metrics <file>`).

use crate::opts::Opts;
use adhls_core::dse::{summarize, table4, DseSummary};
use adhls_core::sched::{run_hls, Flow, HlsOptions};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_workloads::{interpolation, sweep};

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["--metrics"], &[])?;
    if let Some(path) = o.get("--metrics") {
        if !o.positional.is_empty() {
            return Err("report --metrics takes no table name".into());
        }
        return report_metrics(path);
    }
    let which = o.positional.first().map_or("table4", String::as_str);
    match which {
        "table4" | "idct" => report_table4(),
        "table2" | "interpolation" => report_table2(),
        other => Err(format!("unknown report `{other}` (table4 | table2)")),
    }
}

/// `adhls report --metrics <file|->` — render a metrics snapshot captured
/// earlier (`explore --metrics-out`, a saved `metrics` response, or a
/// piped scrape) as the same per-span table `--profile` prints live.
fn report_metrics(path: &str) -> Result<(), String> {
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| format!("reading stdin: {e}"))?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    let snap = crate::profile::parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", crate::profile::render_profile(&snap));
    Ok(())
}

/// Paper §VII Table 4: the 15-point IDCT sweep, evaluated in parallel.
fn report_table4() -> Result<(), String> {
    let lib = adhls_reslib::tsmc90::library();
    let points = sweep::idct_table4();
    let t0 = std::time::Instant::now();
    let result = EvaluatorPool::with_options(&lib, HlsOptions::default(), PoolOptions::default())
        .evaluate(&points)
        .map_err(|e| format!("table4 sweep failed: {e}"))?;
    println!("=== Paper Table 4 (reproduced; paper avg 8.9%, 3 regressions) ===");
    print!("{}", table4(&result.rows));
    if let Some(s) = summarize(&result.rows) {
        println!(
            "summary: avg {:.1}% save, {} regressions; ranges {} power / \
             {} throughput / {} area",
            s.avg_save_pct,
            s.regressions,
            DseSummary::fmt_range(s.power_range, 1),
            DseSummary::fmt_range(s.throughput_range, 1),
            DseSummary::fmt_range(s.area_range, 2),
        );
    }
    println!("(paper §VII text: 20x power / 7x throughput / 1.5x area)");
    eprintln!(
        "30 HLS runs on {} workers in {:.2?}",
        result.workers,
        t0.elapsed()
    );
    Ok(())
}

/// Paper §II Table 2: the interpolation kernel under all three flows.
fn report_table2() -> Result<(), String> {
    let (design, _) = interpolation::paper_example();
    let mut lib = adhls_reslib::tsmc90::library();
    lib.set_io_delay_ps(0);
    println!("=== Paper Table 2 (interpolation, 1100 ps, zero-overhead mode) ===");
    let mut t = adhls_core::report::Table::new(["flow", "area"]);
    for (name, flow) in [
        ("conventional (Case 1)", Flow::Conventional),
        ("slowest-upgrade (Case 2)", Flow::SlowestUpgrade),
        ("slack-based (paper)", Flow::SlackBased),
    ] {
        let opts = HlsOptions {
            clock_ps: 1100,
            flow,
            zero_overhead: true,
            ..Default::default()
        };
        let res = run_hls(&design, &lib, &opts).map_err(|e| format!("{name} failed: {e}"))?;
        t.row([name.to_string(), format!("{:.0}", res.area.total)]);
    }
    print!("{t}");
    println!("(paper optimum: 2180)");
    Ok(())
}
