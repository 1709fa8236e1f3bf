//! The "customer designs" experiment (paper §VII: ">100 customer designs
//! ... average final area improvement of about 5%"), on the synthetic
//! fleet documented in DESIGN.md §5.

use adhls::prelude::*;
use adhls::workloads::{idct, random};

/// Every fleet design synthesizes under both flows; the slack flow wins on
/// average and never catastrophically regresses.
#[test]
fn fleet_average_saving_is_positive() {
    let lib = tsmc90::library();
    let fleet = random::fleet(24, 7);
    let mut savings = Vec::new();
    for (name, design, clock) in &fleet {
        let conv = run_hls(
            design,
            &lib,
            &HlsOptions {
                clock_ps: *clock,
                flow: Flow::Conventional,
                ..Default::default()
            },
        );
        let slack = run_hls(
            design,
            &lib,
            &HlsOptions {
                clock_ps: *clock,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        );
        let (Ok(conv), Ok(slack)) = (conv, slack) else {
            continue; // a random (design, clock) pair may be overconstrained
        };
        let save = (conv.area.total - slack.area.total) / conv.area.total * 100.0;
        assert!(
            save > -20.0,
            "{name}: catastrophic regression {save:.1}% (conv {}, slack {})",
            conv.area.total,
            slack.area.total
        );
        savings.push(save);
    }
    assert!(
        savings.len() >= 16,
        "too many overconstrained fleet members"
    );
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        avg > 2.0,
        "paper reports ~5% average on customer designs; measured {avg:.1}%"
    );
}

/// Fleet schedules preserve semantics: each design produces identical
/// outputs under birth placement and scheduled placement.
#[test]
fn fleet_schedules_preserve_semantics() {
    let lib = tsmc90::library();
    for (name, design, clock) in random::fleet(10, 99) {
        let Ok(r) = run_hls(
            &design,
            &lib,
            &HlsOptions {
                clock_ps: clock,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        ) else {
            continue;
        };
        let mut stim = Stimulus::new();
        for o in design.inputs() {
            if let Some(n) = design.dfg.op(o).name() {
                stim = stim.input(n, (o.0 as u64).wrapping_mul(37) % 251);
            }
        }
        let reference = run(&design, &stim, 10_000).unwrap();
        let placed = run_placed(&design, &stim, 10_000, |o| r.schedule.edge(o)).unwrap();
        assert_eq!(placed.outputs, reference.outputs, "{name} outputs changed");
    }
}

/// The slack flow's per-edge rebudget bookkeeping on fixed designs, at
/// counts recorded from a known-good scheduler: budgeting moves,
/// relaxation rounds, how many per-edge rebudgets ran and how many were
/// elided, and budgeting's slack evaluations and reverted moves. A
/// rebudget elided when its inputs changed, or rerun when they did not,
/// can leave every row as it was and still move these counts: on fleet
/// designs C633 and C1401 such regressions moved nothing else. The last
/// two pin the work inside each budgeting call: a slack update that
/// visits an op more or less often, or a move pick that takes another
/// op, moves them.
#[test]
fn rebudget_counts_of_fixed_designs_are_pinned() {
    let lib = tsmc90::library();
    let mut designs = random::fleet(1, 633);
    designs.extend(random::fleet(1, 1401));
    designs.push(("idct1d".into(), idct::build_1d(12), 1800));
    // (design, flow, (budget moves, relax rounds, rebudgets run, elided,
    // slack evaluations, reverted moves))
    let expect = [
        ("C633", Flow::Conventional, (0, 3, 0, 0, 0, 0)),
        ("C633", Flow::SlackBased, (340, 4, 29, 6, 11_224, 0)),
        ("C1401", Flow::Conventional, (0, 9, 0, 0, 0, 0)),
        ("C1401", Flow::SlackBased, (59, 18, 79, 16, 24_362, 16)),
        ("idct1d", Flow::Conventional, (0, 0, 0, 0, 0, 0)),
        ("idct1d", Flow::SlackBased, (0, 4, 58, 2, 8_880, 0)),
    ];
    for (name, flow, want) in expect {
        let (_, design, clock) = designs.iter().find(|(n, ..)| n == name).unwrap();
        let reg = adhls_telemetry::Registry::new();
        reg.set_enabled(true);
        let r = {
            let _g = adhls_telemetry::install(&reg);
            let opts = HlsOptions {
                clock_ps: *clock,
                flow,
                ..Default::default()
            };
            run_hls(design, &lib, &opts).unwrap()
        };
        let snap = reg.snapshot();
        let count = |c| snap.counter(c).unwrap_or(0);
        let got = (
            r.budget_moves,
            r.relax_rounds,
            count("pipeline.rebudget.run"),
            count("pipeline.rebudget.elided"),
            count("pipeline.budget.slack_evals"),
            count("pipeline.budget.reverted"),
        );
        assert_eq!(got, want, "{name} {flow:?}");
    }
}
