//! End-to-end smoke tests driving the built `adhls` binary — including the
//! acceptance path: `adhls explore` on the interpolation workload produces
//! a non-empty Pareto front as JSON from a parallel (>1 worker) sweep.

use std::process::Command;

fn adhls(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_adhls"))
        .args(args)
        .output()
        .expect("adhls binary runs")
}

#[test]
fn help_prints_usage() {
    let out = adhls(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("explore"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = adhls(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn schedule_compiles_the_resizer_dsl() {
    let dsl = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dsl/resizer.adhls"
    );
    let out = adhls(&["schedule", dsl, "--clock", "2000", "--json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"design\":\"resizer\""));
    assert!(text.contains("\"total\":"));
}

#[test]
fn schedule_netlist_dumps_the_datapath_fsm_sketch() {
    let dsl = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dsl/resizer.adhls"
    );
    let out = adhls(&["schedule", dsl, "--clock", "2000", "--netlist", "-"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module resizer"), "{text}");
    assert!(text.contains("endmodule"), "{text}");
    assert!(text.contains("input  wire clk"), "{text}");
    assert!(text.contains("// FSM:"), "{text}");
    assert!(text.contains("functional units"), "{text}");
    // Netlist-to-stdout is machine-consumable: no report table mixed in.
    assert!(!text.contains("| metric"), "{text}");

    // --json and --netlist - both claim stdout: refused, not silently
    // resolved in favor of one of them.
    let out = adhls(&["schedule", dsl, "--json", "--netlist", "-"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stdout"));

    // Writing to a file keeps the human report on stdout.
    let path = std::env::temp_dir().join("adhls_netlist_test.v");
    let out = adhls(&[
        "schedule",
        dsl,
        "--netlist",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("| metric"), "{text}");
    let written = std::fs::read_to_string(&path).expect("netlist file written");
    assert!(written.contains("module resizer"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explore_interpolation_emits_nonempty_front_json() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--threads",
        "4",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    let front = json.split("\"front\":").nth(1).expect("front key present");
    assert!(
        front.contains("\"name\":\"interp-"),
        "Pareto front is empty: {front}"
    );
    // The sweep covers ≥ 12 points and really ran multi-worker.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("12 points"), "stderr: {stderr}");
    assert!(stderr.contains("4 workers"), "stderr: {stderr}");
}

#[test]
fn explore_rejects_contradictory_inputs() {
    let out = adhls(&["explore"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn explore_adaptive_emits_refinement_json() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--gap-tol",
        "0.1",
        "--skip-infeasible",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"refine\":"), "refine block missing: {json}");
    assert!(json.contains("\"rounds\":"), "trace missing: {json}");
    let front = json.split("\"front\":").nth(1).expect("front key present");
    assert!(
        front.contains("\"name\":\"interp-"),
        "Pareto front is empty: {front}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("adaptive:"), "stderr: {stderr}");
}

#[test]
fn explore_objectives_select_the_front_space_and_are_recorded() {
    // Default: the full four-axis space, recorded in the export.
    let out = adhls(&["explore", "--workload", "interpolation", "--json", "-"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"objectives\": [\"area\",\"latency\",\"power\",\"throughput\"]"),
        "{json}"
    );

    // A selected space is recorded instead, and the front shrinks to the
    // plane's non-dominated set.
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--objectives",
        "area,power",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"objectives\": [\"area\",\"power\"]"),
        "{json}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(area,power) front"), "stderr: {stderr}");

    // Unknown axes fail loudly, pointing at the flag.
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--objectives",
        "area,warp",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--objectives"), "stderr: {stderr}");
    assert!(stderr.contains("warp"), "stderr: {stderr}");
}

#[test]
fn explore_constraints_filter_fronts_and_are_recorded() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--constraint",
        "power<=1400",
        "--constraint",
        "area<=3000",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"constraints\": [\"power<=1400\",\"area<=3000\"]"),
        "{json}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[power<=1400, area<=3000]"),
        "stderr: {stderr}"
    );
    // The exported front only holds feasible rows (sweep rows unfiltered).
    let front = json.split("\"front\":").nth(1).expect("front present");
    for chunk in front.split("\"total\":").skip(1) {
        let total: f64 = chunk
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("power total parses");
        assert!(total <= 1400.0, "infeasible row on the front: {front}");
    }
}

#[test]
fn explore_constraint_errors_mirror_the_protocol_cases() {
    // The same malformed constraints the serve protocol rejects must fail
    // the CLI with a nonzero exit code and a message naming the flag.
    for (bad, needle) in [
        ("warp<=1", "warp"),
        ("area=1", "<="),
        ("area<=NaN", "finite"),
        ("area<=fast", "fast"),
    ] {
        let out = adhls(&[
            "explore",
            "--workload",
            "interpolation",
            "--constraint",
            bad,
        ]);
        assert!(!out.status.success(), "`{bad}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--constraint"), "`{bad}`: {stderr}");
        assert!(stderr.contains(needle), "`{bad}`: {stderr}");
    }
    // An axis outside the selected space is rejected too — on the sweep
    // and the adaptive surface alike.
    for extra in [&[][..], &["--adaptive", "--skip-infeasible"][..]] {
        let mut args = vec![
            "explore",
            "--workload",
            "interpolation",
            "--objectives",
            "area,latency",
            "--constraint",
            "power<=10",
        ];
        args.extend_from_slice(extra);
        let out = adhls(&args);
        assert!(!out.status.success(), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--constraint"), "{extra:?}: {stderr}");
        assert!(stderr.contains("power"), "{extra:?}: {stderr}");
    }
}

#[test]
fn explore_adaptive_constrained_exports_the_feasible_refinement() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--objectives",
        "area,power",
        "--constraint",
        "power<=1400",
        "--gap-tol",
        "0.2",
        "--skip-infeasible",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"constraints\": [\"power<=1400\"]"),
        "{json}"
    );
    assert!(json.contains("\"refine\":"), "{json}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("under [power<=1400]"), "stderr: {stderr}");
}

#[test]
fn explore_adaptive_multi_plane_runs_one_pass() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--objectives",
        "area,latency;area,power",
        "--gap-tol",
        "0.2",
        "--skip-infeasible",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"planes\":"), "{json}");
    assert!(json.contains("\"plane_gaps\":"), "{json}");
    assert!(
        json.contains("\"objectives\": [\"area\",\"latency\"]"),
        "top level mirrors the first plane: {json}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("in (area,latency)+(area,power)"),
        "stderr: {stderr}"
    );
}

#[test]
fn explore_adaptive_steers_through_the_requested_plane() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--objectives",
        "area,power",
        "--gap-tol",
        "0.2",
        "--skip-infeasible",
        "--json",
        "-",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"objectives\": [\"area\",\"power\"]"),
        "{json}"
    );
    assert!(json.contains("\"refine\":"), "{json}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("in (area,power)"), "stderr: {stderr}");
}

#[test]
fn explore_adaptive_warm_starts_from_an_exported_front() {
    let path = std::env::temp_dir().join("adhls_warm_front_test.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let base = [
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--gap-tol",
        "0.1",
        "--skip-infeasible",
    ];
    let mut export = base.to_vec();
    export.extend(["--json", path_str]);
    let out = adhls(&export);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut warm = base.to_vec();
    warm.extend(["--warm-start", path_str]);
    let out = adhls(&warm);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warm start:"),
        "warm-start cells not reported: {stderr}"
    );
    let _ = std::fs::remove_file(&path);

    // Without --adaptive the flag is rejected, like --budget/--gap-tol.
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--warm-start",
        "x.json",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--adaptive"));
}

#[test]
fn explore_rejects_the_removed_mode_flag() {
    for extra in [&[][..], &["--adaptive"][..]] {
        let mut args = vec!["explore", "--workload", "fir", "--mode", "recover"];
        args.extend_from_slice(extra);
        let out = adhls(&args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option --mode"), "{stderr}");
    }
}

#[test]
fn explore_adaptive_validates_its_flags() {
    // --budget/--gap-tol without --adaptive.
    let out = adhls(&["explore", "--workload", "idct", "--budget", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--adaptive"));
    // Zero budget.
    let out = adhls(&[
        "explore",
        "--workload",
        "idct",
        "--adaptive",
        "--budget",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(">= 1"));
    // Non-finite tolerance.
    let out = adhls(&[
        "explore",
        "--workload",
        "idct",
        "--adaptive",
        "--gap-tol",
        "inf",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("finite"));
    // Workload without a grid builder.
    let out = adhls(&["explore", "--workload", "random", "--adaptive"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no adaptive grid"));
}

/// The observability CLI surface: `--profile` prints the per-phase
/// breakdown on stderr (stdout output is byte-identical with and without
/// it), `--metrics-out` exports the snapshot, and `report --metrics`
/// re-renders that export as the same table.
#[test]
fn explore_profile_prints_phases_and_roundtrips_through_report() {
    let base = [
        "explore",
        "--workload",
        "interpolation",
        "--clocks",
        "1100,1500",
        "--json",
        "-",
    ];
    let quiet = adhls(&base);
    assert!(quiet.status.success());

    let dir = std::env::temp_dir().join(format!("adhls-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("metrics.json");
    let metrics_file = metrics_path.to_str().expect("utf-8 temp path");
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--profile", "--metrics-out", metrics_file]);
    let loud = adhls(&args);
    assert!(
        loud.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&loud.stderr)
    );

    // Telemetry observes, never steers: the exported JSON is identical.
    assert_eq!(quiet.stdout, loud.stdout, "--profile changed the results");
    let err = String::from_utf8_lossy(&loud.stderr);
    assert!(err.contains("profile: wall time by span"), "{err}");
    for phase in [
        "pipeline.elab",
        "pipeline.schedule",
        "pipeline.bind",
        "pipeline.area",
        "pipeline.evaluate",
        "pipeline.power",
    ] {
        assert!(err.contains(phase), "missing {phase} in profile:\n{err}");
    }

    // The exported snapshot re-renders to the same phase table.
    let report = adhls(&["report", "--metrics", metrics_file]);
    assert!(
        report.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let table = String::from_utf8_lossy(&report.stdout);
    assert!(table.contains("pipeline.schedule"), "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--profile` on the adaptive path meters the evaluator pool too: the
/// refine counters and pool histograms appear next to the phase spans.
#[test]
fn explore_adaptive_profile_includes_pool_and_refine_metrics() {
    let out = adhls(&[
        "explore",
        "--workload",
        "interpolation",
        "--adaptive",
        "--clocks",
        "1100,1400,1800",
        "--cycles",
        "3,4,6",
        "--profile",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("refine.round.area_latency"), "{err}");
    assert!(err.contains("refine.cells_evaluated"), "{err}");
    assert!(err.contains("pool.batch.submit_to_done_us"), "{err}");
    assert!(err.contains("cache.misses"), "{err}");
}

/// `schedule --profile` meters a single run.
#[test]
fn schedule_profile_prints_the_phase_table() {
    let dsl = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dsl/resizer.adhls"
    );
    let out = adhls(&["schedule", dsl, "--clock", "2000", "--profile"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("profile: wall time by span"), "{err}");
    assert!(err.contains("pipeline.schedule"), "{err}");
    // One schedule = one run of each phase.
    let quiet = adhls(&["schedule", dsl, "--clock", "2000"]);
    assert_eq!(quiet.stdout, out.stdout, "--profile changed the schedule");
}
