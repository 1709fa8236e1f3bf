//! Golden corpus: re-evaluates the committed point sets and replays the
//! committed `refine` requests, and diffs the rendering byte for byte
//! against `tests/golden/<set>.txt`.
//!
//! The equivalence suites compare shared-prefix rows with point-by-point
//! rows; this one compares both against rows recorded earlier, so a
//! change that moves the scheduler itself cannot go unseen. The corpus is
//! written only by `examples/golden_corpus.rs`; this test never rewrites
//! it. See `tests/golden/corpus.rs` for the format.

#[path = "golden/corpus.rs"]
mod corpus;

fn check(set: &str, committed: &str) {
    let now = corpus::render(set);
    if now == committed {
        return;
    }
    let diff: Vec<String> = committed
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .take(8)
        .map(|(a, b)| format!("  corpus: {a}\n  now:    {b}"))
        .collect();
    panic!(
        "golden corpus `{set}` changed ({} committed lines, {} now); first differences:\n{}",
        committed.lines().count(),
        now.lines().count(),
        diff.join("\n")
    );
}

/// The committed rendering of `set`.
fn committed(set: &str) -> &'static str {
    match set {
        "table4" => include_str!("golden/table4.txt"),
        "idct1d" => include_str!("golden/idct1d.txt"),
        "fir" => include_str!("golden/fir.txt"),
        "fleet" => include_str!("golden/fleet.txt"),
        "refine" => include_str!("golden/refine.txt"),
        other => panic!("no committed corpus for `{other}`"),
    }
}

#[test]
fn every_corpus_set_has_committed_rows() {
    for set in corpus::SETS {
        assert!(committed(set).lines().count() >= 3, "{set} is empty");
    }
}

#[test]
fn table4_rows_match_the_corpus() {
    check("table4", committed("table4"));
}

#[test]
fn idct1d_grid_rows_match_the_corpus() {
    check("idct1d", committed("idct1d"));
}

#[test]
fn fir_grid_rows_match_the_corpus() {
    check("fir", committed("fir"));
}

#[test]
fn random_fleet_rows_match_the_corpus() {
    check("fleet", committed("fleet"));
}

#[test]
fn refine_streams_match_the_corpus() {
    check("refine", committed("refine"));
}
