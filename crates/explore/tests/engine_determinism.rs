//! The evaluator's headline contract on real workloads: a parallel sweep
//! over ≥ 12 design points returns bit-identical rows to the serial
//! reference while using more than one worker thread.

use adhls_core::sched::HlsOptions;
use adhls_explore::{pareto_front, Engine, EngineOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::sweep;

fn engines(lib: &adhls_reslib::Library, threads: usize) -> (Engine<'_>, Engine<'_>) {
    let engine = |threads| {
        Engine::with_options(
            lib,
            HlsOptions::default(),
            EngineOptions {
                threads,
                ..Default::default()
            },
        )
    };
    (engine(1), engine(threads))
}

#[test]
fn interpolation_fleet_parallel_equals_serial() {
    let lib = tsmc90::library();
    let points = sweep::interpolation_default();
    assert!(
        points.len() >= 12,
        "need a dozen points, got {}",
        points.len()
    );
    let (serial, parallel) = engines(&lib, 4);
    let s = serial
        .evaluate_serial(&points)
        .expect("serial sweep schedules");
    let p = parallel
        .evaluate(&points)
        .expect("parallel sweep schedules");
    assert!(p.workers > 1, "expected >1 worker, got {}", p.workers);
    assert_eq!(
        p.rows, s.rows,
        "parallel rows must be bit-identical to serial"
    );
    // The front is non-empty and identical through either path.
    let front = pareto_front(&p.rows);
    assert!(!front.is_empty());
    assert_eq!(front, pareto_front(&s.rows));
}

#[test]
fn random_fleet_parallel_equals_serial_with_skips() {
    // Random customer designs include overconstrained corners; the
    // skip-infeasible policy must make the same deterministic decisions in
    // both evaluators.
    let lib = tsmc90::library();
    let points = sweep::random_fleet(12, 42);
    let mk = |threads| {
        Engine::with_options(
            &lib,
            HlsOptions::default(),
            EngineOptions {
                threads,
                skip_infeasible: true,
                ..Default::default()
            },
        )
    };
    let s = mk(1)
        .evaluate_serial(&points)
        .expect("skip policy cannot fail");
    let p = mk(4).evaluate(&points).expect("skip policy cannot fail");
    assert_eq!(p.rows, s.rows);
    assert_eq!(p.skipped, s.skipped);
    assert!(
        !p.rows.is_empty(),
        "expected most random designs to schedule"
    );
}

#[test]
fn repeat_parallel_runs_are_stable_and_cached() {
    let lib = tsmc90::library();
    let points = sweep::interpolation_default();
    let engine = Engine::with_options(
        &lib,
        HlsOptions::default(),
        EngineOptions {
            threads: 3,
            ..Default::default()
        },
    );
    let first = engine.evaluate(&points).expect("sweep schedules");
    let second = engine.evaluate(&points).expect("sweep schedules");
    assert_eq!(first.rows, second.rows);
    assert_eq!(
        second.cache_hits,
        points.len() as u64,
        "second pass is all cache hits"
    );
}
