//! Zero-dependency metrics and span timing for the adhls workspace.
//!
//! The exploration stack (HLS pipeline, evaluator pool, refinement driver,
//! serve tier) is instrumented against this crate: named **counters**,
//! **gauges**, and fixed-bucket **histograms** collected in a lock-sharded
//! [`Registry`], plus a lightweight [`Span`] guard that records wall-time
//! into a histogram when it drops. Everything is always compiled — there is
//! no feature flag — and cheap when disabled: a registry starts out
//! disabled, and every recording call exits after one atomic load. The
//! exception is add-gauges ([`Registry::gauge_add`], [`GaugeGuard`]): they
//! describe live state, so they move whether or not the registry records.
//!
//! # Where the registry comes from
//!
//! Instrumented code does not take a registry parameter. It calls the free
//! functions ([`span`], [`timed`], [`counter_add`], …), which resolve the
//! **current** registry: the innermost one [`install`]ed on this thread, or
//! the process-wide [`global`] registry when none is installed. Components
//! that own worker threads (the evaluator pool, the server) install their
//! registry around the work they run, so instrumentation deep inside the
//! pipeline lands in the right place without plumbing.
//!
//! ```
//! use adhls_telemetry::{Registry, install, timed};
//!
//! let reg = Registry::new();
//! reg.set_enabled(true);
//! {
//!     let _g = install(&reg);
//!     let answer = timed("pipeline.schedule", || 6 * 7);
//!     assert_eq!(answer, 42);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.histogram("pipeline.schedule").unwrap().count, 1);
//! ```
//!
//! # Determinism contract
//!
//! Telemetry observes; it never steers. No exploration result, schedule,
//! trace, or wire response may depend on registry contents — results must
//! be bit-identical with telemetry enabled or disabled (enforced by
//! `telemetry_equivalence` proptests in the explore crate).

#![warn(missing_docs)]

mod registry;
mod snapshot;
mod span;

pub use registry::{GaugeGuard, Registry, COUNT_BUCKETS, TIME_BUCKETS_US};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::Span;

use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    /// Stack of registries installed on this thread, innermost last.
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry: the fallback target for instrumentation on
/// threads with no [`install`]ed registry. Starts disabled; the CLI enables
/// it for `--profile` runs.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Makes `registry` the current registry for this thread until the returned
/// guard drops. Installs nest; the innermost wins.
#[must_use = "the registry is uninstalled when the guard drops"]
pub fn install(registry: &Registry) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(registry.clone()));
    InstallGuard { _priv: () }
}

/// Uninstalls the matching [`install`] when dropped.
#[derive(Debug)]
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The current registry: the innermost one installed on this thread, or the
/// [`global`] registry.
pub fn current() -> Registry {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Whether the current registry is recording. Instrumented code may use
/// this to skip *preparing* expensive labels; the recording calls
/// themselves already no-op when disabled.
pub fn enabled() -> bool {
    CURRENT
        .with(|c| c.borrow().last().map(Registry::is_enabled))
        .unwrap_or_else(|| global().is_enabled())
}

/// Opens a span against the current registry: wall-time from now until the
/// guard drops is recorded into the histogram `name` (in microseconds).
/// When telemetry is disabled this takes no clock reading.
#[must_use = "the span records when it drops"]
pub fn span(name: &str) -> Span {
    current().span(name)
}

/// Runs `f` inside a [`span`] named `name` and returns its result.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Adds `v` to the counter `name` on the current registry.
pub fn counter_add(name: &str, v: u64) {
    current().counter_add(name, v);
}

/// Adds `delta` (may be negative) to the gauge `name` on the current
/// registry.
pub fn gauge_add(name: &str, delta: i64) {
    current().gauge_add(name, delta);
}

/// Sets the gauge `name` on the current registry.
pub fn gauge_set(name: &str, v: i64) {
    current().gauge_set(name, v);
}

/// Records `value` into the histogram `name` on the current registry.
pub fn observe(name: &str, value: f64) {
    current().observe(name, value);
}

/// The dot-joined names of the spans currently open on this thread,
/// outermost first — the parent/child nesting context. Empty when no span
/// is open (or telemetry is disabled). Intended for diagnostics such as
/// slow-request logs, never for control flow.
pub fn span_path() -> String {
    span::path()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_starts_disabled_and_free_fns_no_op() {
        // Cannot assume enabled state (other tests share the process), but
        // a fresh install shadows the global either way.
        let reg = Registry::new();
        assert!(!reg.is_enabled());
        let _g = install(&reg);
        counter_add("t.c", 3);
        observe("t.h", 1.0);
        let snap = reg.snapshot();
        assert!(snap.counter("t.c").is_none());
        assert!(snap.histogram("t.h").is_none());
    }

    #[test]
    fn install_nests_and_pops() {
        let outer = Registry::new();
        outer.set_enabled(true);
        let inner = Registry::new();
        inner.set_enabled(true);
        let _a = install(&outer);
        {
            let _b = install(&inner);
            counter_add("nest", 1);
        }
        counter_add("nest", 10);
        assert_eq!(inner.snapshot().counter("nest"), Some(1));
        assert_eq!(outer.snapshot().counter("nest"), Some(10));
    }

    #[test]
    fn timed_records_one_histogram_sample() {
        let reg = Registry::new();
        reg.set_enabled(true);
        let _g = install(&reg);
        let out = timed("t.span", || 5usize);
        assert_eq!(out, 5);
        let snap = reg.snapshot();
        let h = snap.histogram("t.span").expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn span_path_tracks_nesting() {
        let reg = Registry::new();
        reg.set_enabled(true);
        let _g = install(&reg);
        let _outer = span("a");
        {
            let _inner = span("b");
            assert_eq!(span_path(), "a.b");
        }
        assert_eq!(span_path(), "a");
    }
}
