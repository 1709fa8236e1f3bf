//! Prefix memory measured by the allocator itself: a counting global
//! allocator checks that a prepared prefix's counted bytes are what it
//! really holds and that its heap-block count does not grow with the
//! design, and that a server fed long-chain DSL sweeps keeps every cache
//! within its budget and its live heap under a fixed bound.

use adhls_core::sched::{run_hls_prepared, Flow, HlsOptions};
use adhls_core::PreparedDesign;
use adhls_explore::pool::{EvaluatorPool, PoolOptions, PREFIX_BUDGET};
use adhls_explore::server::memo::{CELL_BUDGET, EXPANSION_BUDGET};
use adhls_explore::server::Server;
use adhls_ir::{frontend, Design};
use adhls_reslib::tsmc90;
use adhls_telemetry::Snapshot;
use adhls_workloads::{idct, random};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Counts the bytes and blocks the process holds live.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: usize, blocks: isize) {
    LIVE_BYTES.fetch_add(bytes as isize * blocks.signum(), Ordering::Relaxed);
    LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests read process-wide counters, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// A DSL process of `states` soft states between a read and a write.
fn chain_source(states: usize) -> String {
    format!("proc chain(in a: u16, out o: u16) {{ budget {states}; write(o, read(a)); }}")
}

/// Builds a prefix of `design` and runs both flows over it at `clock_ps`,
/// so it stores two clock contexts; returns the prefix with the bytes and
/// blocks it left live.
fn measured_prefix(design: Design, clock_ps: u64) -> (Arc<PreparedDesign>, usize, usize) {
    let lib = tsmc90::library();
    let design = Arc::new(design);
    let (bytes0, blocks0) = live();
    let prep = Arc::new(PreparedDesign::from_shared(Arc::clone(&design), &lib).unwrap());
    for flow in [Flow::Conventional, Flow::SlackBased] {
        let opts = HlsOptions {
            clock_ps,
            flow,
            ..HlsOptions::default()
        };
        // Overconstrained cells fail after storing their context too.
        drop(run_hls_prepared(&prep, &lib, &opts));
        assert!(prep.clock_context(&opts).is_some(), "{flow:?} context kept");
    }
    let (bytes1, blocks1) = live();
    let bytes = usize::try_from(bytes1 - bytes0).unwrap();
    let blocks = usize::try_from(blocks1 - blocks0).unwrap();
    (prep, bytes, blocks)
}

#[test]
fn counted_prefix_bytes_match_the_allocator() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, fleet_design, fleet_clock) = random::fleet(1, 11_000).remove(0);
    let designs = [
        ("fleet design", fleet_design, fleet_clock),
        ("IDCT-1D", idct::build_1d(4), 1400),
        (
            "IDCT-2D at 32 cycles",
            idct::build_2d(&idct::IdctConfig {
                cycles: 32,
                ..Default::default()
            }),
            1400,
        ),
        (
            "1,900-state chain",
            frontend::compile(&chain_source(1900)).unwrap(),
            2000,
        ),
    ];
    // Lazily initialized statics (telemetry registries and the like) are
    // set up here, outside every measurement.
    drop(measured_prefix(idct::build_1d(2), 1400));
    for (name, design, clock) in designs {
        let ops = design.dfg.len_ids();
        let edges = design.cfg.len_edges();
        let (prep, live_bytes, blocks) = measured_prefix(design, clock);
        let counted = prep.approx_bytes();
        assert!(
            counted <= 2 * live_bytes && live_bytes <= 2 * counted,
            "{name}: counted {counted} bytes, {live_bytes} live"
        );
        assert!(
            blocks <= 64,
            "{name} ({ops} ops, {edges} edges): {blocks} heap blocks"
        );
    }
}

/// Reads counter or gauge `name` as bytes.
fn bytes(snap: &Snapshot, name: &str) -> usize {
    let v = snap
        .gauge(name)
        .unwrap_or_else(|| panic!("{name} missing from {snap:?}"));
    usize::try_from(v).unwrap()
}

#[test]
fn long_chain_sweeps_keep_every_cache_within_budget() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    const ROW_BUDGET: usize = 1 << 20;
    let server = Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            cache_bytes: Some(ROW_BUDGET),
        },
    ));
    let respond = |line: &str| {
        let mut out = Vec::new();
        server.handle_line(line, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("\"ok\":true"), "{line} -> {out}");
    };
    let sweep = |states: usize| {
        let mut dsl = String::new();
        adhls_core::json::escape_into(&mut dsl, &chain_source(states));
        format!(r#"{{"cmd":"sweep","dsl":{dsl},"clocks":[2000]}}"#)
    };
    respond(&sweep(8));
    let (base, _) = live();
    // Every cache may fill to its budget; a few MiB more covers one
    // request's transient state after it was answered.
    let bound = PREFIX_BUDGET + EXPANSION_BUDGET + CELL_BUDGET + ROW_BUDGET + (8 << 20);
    for k in 0..50 {
        respond(&sweep(1900 + k));
        let snap = server.metrics_snapshot();
        assert!(bytes(&snap, "cache.bytes") <= ROW_BUDGET);
        assert!(bytes(&snap, "pipeline.prefix.bytes") <= PREFIX_BUDGET);
        assert!(bytes(&snap, "memo.expand.bytes") <= EXPANSION_BUDGET);
        assert!(bytes(&snap, "memo.cell.bytes") <= CELL_BUDGET);
        let held = usize::try_from(live().0 - base).unwrap_or(0);
        assert!(held <= bound, "request {k}: {held} live bytes");
    }
    // Each chain's prefix outgrew its shard's slice: served, never kept.
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("pipeline.prefix.evictions"), Some(50));
}
