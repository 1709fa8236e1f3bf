//! Cross-crate integration tests asserting the *shape* of every paper
//! experiment (the `table*` criterion benches in `crates/bench` print the
//! measured values; these tests pin the qualitative claims so
//! regressions are caught).

use adhls::core::dse::{explore, summarize, DsePoint};
use adhls::prelude::*;
use adhls::workloads::{idct, interpolation, resizer};

/// Paper Table 2: on the interpolation example, both baselines waste ≥ 30%
/// area relative to the slack-based flow, which lands within 5% of the
/// paper's optimum (2180).
#[test]
fn table2_interpolation_shape() {
    let (design, _) = interpolation::paper_example();
    let mut lib = tsmc90::library();
    lib.set_io_delay_ps(0);
    let area = |flow: Flow| -> f64 {
        let opts = HlsOptions {
            clock_ps: 1100,
            flow,
            zero_overhead: true,
            ..Default::default()
        };
        run_hls(&design, &lib, &opts)
            .expect("schedulable")
            .area
            .total
    };
    let conv = area(Flow::Conventional);
    let slow = area(Flow::SlowestUpgrade);
    let slack = area(Flow::SlackBased);
    assert!(
        (slack - 2180.0).abs() / 2180.0 < 0.05,
        "slack-based should land near the paper optimum 2180, got {slack}"
    );
    assert!(
        slack <= conv * 0.70,
        "paper: ~36% saving over Case 1; got conv {conv} vs slack {slack}"
    );
    assert!(
        slack <= slow,
        "slack-based must not lose to Case 2 ({slow})"
    );
    // Case 1 uses the fastest mults, paying close to 3x878 for them.
    assert!(
        conv > 3.0 * 800.0,
        "Case 1 should pay for fast multipliers, got {conv}"
    );
}

/// Paper Table 2 structure: 3 multipliers + 2 adders in every flow.
#[test]
fn table2_resource_structure() {
    let (design, _) = interpolation::paper_example();
    let mut lib = tsmc90::library();
    lib.set_io_delay_ps(0);
    for flow in [Flow::Conventional, Flow::SlowestUpgrade, Flow::SlackBased] {
        let opts = HlsOptions {
            clock_ps: 1100,
            flow,
            zero_overhead: true,
            ..Default::default()
        };
        let r = run_hls(&design, &lib, &opts).unwrap();
        assert_eq!(
            r.schedule.allocation.count(ResClass::Multiplier),
            3,
            "{flow:?}: paper needs exactly 3 multipliers"
        );
        let adders = r.schedule.allocation.len() - 3;
        assert_eq!(adders, 2, "{flow:?}: paper needs exactly 2 adders");
    }
}

/// A 5-point slice of the Table 4 sweep: positive average saving, loose
/// points save double digits, and every point schedules.
#[test]
fn table4_mini_sweep_shape() {
    let lib = tsmc90::library();
    let pick = [0usize, 3, 7, 9, 12]; // loose, mid, tight, critical, pipelined
    let all = idct::table4_points();
    let points: Vec<DsePoint> = pick
        .iter()
        .map(|&i| {
            let (name, cfg, clock) = all[i].clone();
            DsePoint {
                name,
                design: idct::build_2d(&cfg).into(),
                clock_ps: clock,
                pipeline_ii: cfg.pipelined,
                cycles_per_item: cfg.pipelined.unwrap_or(cfg.cycles),
            }
        })
        .collect();
    let rows = explore(&points, &lib, &HlsOptions::default()).expect("all points schedule");
    let s = summarize(&rows).expect("non-empty sweep");
    assert!(
        s.avg_save_pct > 5.0,
        "average saving too low: {:.1}%",
        s.avg_save_pct
    );
    assert!(
        rows[0].save_pct > 10.0,
        "loosest point should save double digits: {:.1}%",
        rows[0].save_pct
    );
    assert!(s.throughput_range.expect("positive throughputs") > 2.0);
}

/// The resizer (control flow with a fork/join and a division) synthesizes
/// with every flow, and the slack flow wins on area.
#[test]
fn resizer_full_flow() {
    let design = resizer::build();
    let lib = tsmc90::library();
    let conv = run_hls(
        &design,
        &lib,
        &HlsOptions {
            clock_ps: 2000,
            flow: Flow::Conventional,
            ..Default::default()
        },
    )
    .unwrap();
    let slack = run_hls(
        &design,
        &lib,
        &HlsOptions {
            clock_ps: 2000,
            flow: Flow::SlackBased,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(slack.area.total < conv.area.total);
    // Semantics preserved at the scheduled placement.
    let stim = Stimulus::new()
        .stream("a", vec![200, 10])
        .stream("b", vec![7]);
    let reference = run(&design, &stim, 10_000).unwrap();
    for r in [&conv, &slack] {
        let placed = run_placed(&design, &stim, 10_000, |o| r.schedule.edge(o)).unwrap();
        assert_eq!(placed.outputs, reference.outputs);
    }
}

/// The scheduled IDCT still computes correct transforms: run the schedule
/// placement in the interpreter against the golden model.
#[test]
fn idct_schedule_is_functionally_correct() {
    let cfg = idct::IdctConfig {
        cycles: 16,
        pipelined: None,
    };
    let design = idct::build_2d(&cfg);
    let lib = tsmc90::library();
    let r = run_hls(
        &design,
        &lib,
        &HlsOptions {
            clock_ps: 2200,
            flow: Flow::SlackBased,
            ..Default::default()
        },
    )
    .unwrap();
    let mut input = [0i64; 64];
    for (i, v) in input.iter_mut().enumerate() {
        *v = ((i as i64 * 53) % 401) - 200;
    }
    let mut stim = Stimulus::new();
    for (i, v) in input.iter().enumerate() {
        stim = stim.input(format!("in{i}"), *v as u64 & 0xFF_FFFF);
    }
    let placed = run_placed(&design, &stim, 10_000, |o| r.schedule.edge(o)).unwrap();
    let golden = idct::golden_2d(&input);
    for (i, exp) in golden.iter().enumerate() {
        assert_eq!(
            placed.outputs[&format!("out{i}")],
            vec![*exp as u64 & 0xFF_FFFF],
            "out{i} mismatch"
        );
    }
}

/// Proposition 1 in practice: if the pre-scheduling aligned-slack check is
/// infeasible at the fastest grades, run_hls fails; if comfortably
/// feasible, it succeeds.
#[test]
fn feasibility_precheck_matches_outcomes() {
    let (design, _) = interpolation::paper_example();
    let lib = tsmc90::library();
    // 500 ps cannot fit even one fastest multiply + sharing overhead chain.
    let err = run_hls(
        &design,
        &lib,
        &HlsOptions {
            clock_ps: 400,
            flow: Flow::SlackBased,
            ..Default::default()
        },
    );
    assert!(err.is_err(), "overconstrained clock must fail");
    let ok = run_hls(
        &design,
        &lib,
        &HlsOptions {
            clock_ps: 2000,
            flow: Flow::SlackBased,
            ..Default::default()
        },
    );
    assert!(ok.is_ok());
}
