//! What one HLS run allocates, counted by the allocator itself: a counting
//! global allocator checks that a reused budgeting engine budgets the same
//! timed DFG again without a heap allocation, and that a slack-flow run
//! with many relaxation rounds and per-edge rebudgets reuses one scheduler
//! workspace instead of rebuilding its buffers every round and every edge.

use adhls::core::sched::{run_hls_prepared, Flow, HlsOptions};
use adhls::core::PreparedDesign;
use adhls::reslib::tsmc90;
use adhls::timing::budget::{op_choices, BudgetEngine, BudgetOptions};
use adhls::timing::TimedDfg;
use adhls::workloads::random;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Counts the heap allocations the process makes (reallocations count as
/// allocations too: each may move the block).
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests read one process-wide counter, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// Heap allocations `f` makes on this thread's turn.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_reused_budgeting_engine_allocates_nothing_on_the_same_graph() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let lib = tsmc90::library();
    let (_, design, clock) = random::fleet(1, 633).remove(0);
    let (info, spans) = design.analyze().unwrap();
    let tdfg = TimedDfg::build(&design.dfg, &info, &spans).unwrap();
    let choices = op_choices(&design.dfg, &lib).unwrap();
    let opts = BudgetOptions::default();
    let mut engine = BudgetEngine::default();
    let run = |engine: &mut BudgetEngine| engine.run(&tdfg, &choices, clock, &opts, |_| None, None);
    let (_, first) = allocations(|| run(&mut engine));
    assert!(first > 0, "the first call sizes the engine's tables");
    let moves = engine.moves;
    let (_, again) = allocations(|| run(&mut engine));
    assert_eq!(
        again, 0,
        "a second call on the same graph reuses every table"
    );
    assert_eq!(engine.moves, moves);
    assert!(moves > 0, "the call moved grades");
}

#[test]
fn a_slack_flow_run_reuses_one_workspace() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let lib = tsmc90::library();
    let (_, design, clock) = random::fleet(1, 1401).remove(0);
    let prep = PreparedDesign::new(&design, &lib).unwrap();
    let opts = HlsOptions {
        clock_ps: clock,
        flow: Flow::SlackBased,
        ..HlsOptions::default()
    };
    let (r, n) = allocations(|| run_hls_prepared(&prep, &lib, &opts).unwrap());
    // 18 relaxation rounds and 79 per-edge rebudgets (pinned in
    // `random_fleet`), so a buffer rebuilt per round or per edge shows.
    assert_eq!(r.relax_rounds, 18);
    assert!(n <= 800, "the run made {n} heap allocations");
}
