//! Per-process memos of what a request spec expands to.
//!
//! Served traffic repeats a few specs many times over, and without a memo
//! every request rebuilds and re-validates its designs, and the router
//! builds one more just to pick a worker. Each memo here is an instance of
//! the one budgeted, verified [`EvictingCache`], under a fixed byte budget
//! of its own:
//!
//! * **expansions** (worker) — a `sweep` spec's points and their design
//!   fingerprints ([`PointSet`]), so a repeated sweep neither builds nor
//!   hashes a design,
//! * **cells** (worker) — each `refine` grid cell's design, built once per
//!   spec and cell by wrapping the workload's [`BuildFn`],
//! * **routes** (router) — the spec's [`routing_fingerprint`], so warm
//!   shards stay exactly where they were.
//!
//! All three key on [`SpecKey`]: exactly the fields expansion reads. The
//! objectives, constraints and id of a request stay per request, and two
//! specs differing only there share one entry. Points share their
//! designs through `Arc`, with each other and with the pool's prefix
//! cache, so a memo hit copies pointers, not graphs. Expansion errors are
//! never kept: a failing spec is expanded, and answered with the same
//! message, on every request.
//!
//! [`routing_fingerprint`]: crate::server::session::routing_fingerprint

use crate::pool::PointSet;
use crate::server::eviction::{CacheKey, CacheStats, CacheValue, EvictingCache, ENTRY_OVERHEAD};
use crate::server::protocol::WorkloadSpec;
use crate::server::session::{sweep_points, BuildFn};
use crate::sweep::SweepCell;
use adhls_core::dse::DsePoint;
use adhls_ir::Design;
use adhls_telemetry::Snapshot;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Byte budget of a worker's expansion memo. perfbench's `serve-mix`
/// sweeps (78 specs) are charged 4.6 MB across its two workers, a
/// four-design random window ≈90 KB; a shard's slice (1/16, 1 MiB) holds
/// any of them.
pub const EXPANSION_BUDGET: usize = 16 << 20;

/// Byte budget of a worker's refine cell-design memo.
pub const CELL_BUDGET: usize = 8 << 20;

/// Byte budget of the router's route-key memo. A key holds its inline DSL
/// source, so a spec whose source outgrows a shard's slice is routed
/// afresh every time.
pub const ROUTE_BUDGET: usize = 1 << 20;

/// The fields of a [`WorkloadSpec`] that decide its expansion, its refine
/// grid and its routing key, with a 64-bit index over them. Hits compare
/// every field, never just the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecKey {
    index: u64,
    fields: SpecFields,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SpecFields {
    workload: Option<String>,
    dsl: Option<String>,
    dsl_prefix: Option<String>,
    clocks: Option<Vec<u64>>,
    cycles: Option<Vec<u32>>,
    pipeline: Option<Vec<Option<u32>>>,
    dim: Option<usize>,
    count: Option<usize>,
    seed: Option<u64>,
}

/// The index of `key`, passed through `mix` — the identity in service;
/// tests force collisions with a constant.
fn index_of(key: &impl Hash, mix: fn(u64) -> u64) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    mix(h.finish())
}

impl SpecKey {
    /// The key of `spec`.
    #[must_use]
    pub fn new(spec: &WorkloadSpec) -> Self {
        SpecKey::with_mix(spec, std::convert::identity)
    }

    fn with_mix(spec: &WorkloadSpec, mix: fn(u64) -> u64) -> Self {
        // Naming every field makes a new one a compile error here until
        // it is sorted into the key or declared per request.
        let WorkloadSpec {
            workload,
            dsl,
            dsl_prefix,
            clocks,
            cycles,
            pipeline,
            dim,
            count,
            seed,
            objectives: _,
            constraints: _,
            mode: _,
        } = spec;
        let fields = SpecFields {
            workload: workload.clone(),
            dsl: dsl.clone(),
            dsl_prefix: dsl_prefix.clone(),
            clocks: clocks.clone(),
            cycles: cycles.clone(),
            pipeline: pipeline.clone(),
            dim: *dim,
            count: *count,
            seed: *seed,
        };
        SpecKey {
            index: index_of(&fields, mix),
            fields,
        }
    }
}

impl CacheKey for SpecKey {
    fn index(&self) -> u64 {
        self.index
    }

    fn key_bytes(&self) -> usize {
        let f = &self.fields;
        let strings = [&f.workload, &f.dsl, &f.dsl_prefix]
            .into_iter()
            .flatten()
            .map(String::len)
            .sum::<usize>();
        std::mem::size_of::<SpecKey>()
            + strings
            + f.clocks.as_ref().map_or(0, |v| v.len() * 8)
            + f.cycles.as_ref().map_or(0, |v| v.len() * 4)
            + f.pipeline.as_ref().map_or(0, |v| v.len() * 8)
    }
}

/// One refine grid cell of one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellKey {
    index: u64,
    spec: Arc<SpecKey>,
    cell: SweepCell,
}

impl CellKey {
    fn new(spec: &Arc<SpecKey>, cell: SweepCell, mix: fn(u64) -> u64) -> Self {
        CellKey {
            index: index_of(&(spec.index, cell), mix),
            spec: Arc::clone(spec),
            cell,
        }
    }
}

impl CacheKey for CellKey {
    fn index(&self) -> u64 {
        self.index
    }

    /// The spec key is shared by every cell of a refine, but each entry is
    /// charged for it in full.
    fn key_bytes(&self) -> usize {
        std::mem::size_of::<CellKey>() + self.spec.key_bytes()
    }
}

/// Approximate heap bytes of one design: per-op records with their operand
/// and user lists, CFG nodes and edges, and the name.
fn design_bytes(design: &Design) -> usize {
    let operands: usize = design
        .dfg
        .op_ids()
        .map(|o| design.dfg.operands(o).len())
        .sum();
    design.dfg.len_ids() * 160
        + operands * 24
        + design.cfg.len_nodes() * 48
        + design.cfg.len_edges() * 16
        + design.name().len()
}

/// Bytes an expansion keeps: each point with its fingerprint and name,
/// and each distinct design once.
fn point_set_bytes(set: &PointSet) -> usize {
    let mut designs = HashSet::new();
    set.points()
        .iter()
        .map(|p| {
            let design = if designs.insert(Arc::as_ptr(&p.design)) {
                design_bytes(&p.design)
            } else {
                0
            };
            std::mem::size_of::<DsePoint>() + std::mem::size_of::<u64>() + p.name.len() + design
        })
        .sum()
}

/// An expansion, or the message of a spec that failed to expand (never
/// kept).
impl CacheValue for Result<Arc<PointSet>, String> {
    fn charge(&self) -> usize {
        ENTRY_OVERHEAD + self.as_ref().map_or(0, |set| point_set_bytes(set))
    }

    fn keep(&self) -> bool {
        self.is_ok()
    }
}

/// A refine cell's design.
impl CacheValue for Arc<Design> {
    fn charge(&self) -> usize {
        ENTRY_OVERHEAD + design_bytes(self)
    }
}

/// A routing key.
impl CacheValue for u64 {
    fn charge(&self) -> usize {
        ENTRY_OVERHEAD + 8
    }
}

/// Appends one memo's counters (`<prefix>.hits`, coalesced waits
/// included, `.misses`, `.collisions`, `.evictions`) and gauges
/// (`.entries`, `.bytes`) to `snap`, read now.
#[allow(clippy::cast_possible_wrap)]
pub(crate) fn push_memo_metrics(snap: &mut Snapshot, prefix: &str, s: &CacheStats) {
    snap.push_counter(&format!("{prefix}.hits"), s.hits + s.coalesced);
    snap.push_counter(&format!("{prefix}.misses"), s.misses);
    snap.push_counter(&format!("{prefix}.collisions"), s.collisions);
    snap.push_counter(&format!("{prefix}.evictions"), s.evictions);
    snap.push_gauge(&format!("{prefix}.entries"), s.entries as i64);
    snap.push_gauge(&format!("{prefix}.bytes"), s.bytes as i64);
}

/// A worker's expansion and cell-design memos.
pub(crate) struct SpecMemo {
    expansions: EvictingCache<SpecKey, Result<Arc<PointSet>, String>>,
    cells: EvictingCache<CellKey, Arc<Design>>,
    mix: fn(u64) -> u64,
}

impl SpecMemo {
    /// Memos under [`EXPANSION_BUDGET`] and [`CELL_BUDGET`].
    pub(crate) fn new() -> Self {
        SpecMemo::with_budgets(EXPANSION_BUDGET, CELL_BUDGET, std::convert::identity)
    }

    /// Memos under the given budgets, every key index passed through
    /// `mix`.
    pub(crate) fn with_budgets(
        expansion_bytes: usize,
        cell_bytes: usize,
        mix: fn(u64) -> u64,
    ) -> Self {
        SpecMemo {
            expansions: EvictingCache::with_capacity(Some(expansion_bytes)),
            cells: EvictingCache::with_capacity(Some(cell_bytes)),
            mix,
        }
    }

    /// `spec`'s sweep points ([`sweep_points`]) with their fingerprints,
    /// expanded on the first request for the spec.
    ///
    /// # Errors
    ///
    /// [`sweep_points`]'s message, recomputed on every request.
    pub(crate) fn expand(&self, spec: &WorkloadSpec) -> Result<Arc<PointSet>, String> {
        let key = SpecKey::with_mix(spec, self.mix);
        self.expansions
            .get_or_compute(key, || {
                sweep_points(spec).map(|p| Arc::new(PointSet::new(p)))
            })
            .0
    }

    /// Wraps `spec`'s refine cell builder so each cell's design is built
    /// once and shared by every later refine of the spec.
    pub(crate) fn cell_builder<'a>(
        &'a self,
        spec: &WorkloadSpec,
        mut build: BuildFn,
    ) -> impl FnMut(&SweepCell) -> Arc<Design> + 'a {
        let spec = Arc::new(SpecKey::with_mix(spec, self.mix));
        move |cell| {
            let key = CellKey::new(&spec, *cell, self.mix);
            self.cells.get_or_compute(key, || Arc::new(build(cell))).0
        }
    }

    /// Appends `memo.expand.*` and `memo.cell.*` (see
    /// [`push_memo_metrics`]).
    pub(crate) fn push_metrics(&self, snap: &mut Snapshot) {
        push_memo_metrics(snap, "memo.expand", &self.expansions.stats());
        push_memo_metrics(snap, "memo.cell", &self.cells.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{EvaluatorPool, PoolOptions};
    use crate::server::protocol::{parse_request, Command};
    use crate::server::session::Server;
    use adhls_core::sched::HlsOptions;
    use adhls_reslib::tsmc90;

    fn spec(line: &str) -> WorkloadSpec {
        match parse_request(line).1.unwrap() {
            Command::Sweep(spec) | Command::Refine { spec, .. } => spec,
            other => panic!("not a spec: {other:?}"),
        }
    }

    const BASE: &str = r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4]}"#;

    #[test]
    fn keys_cover_exactly_the_fields_expansion_reads() {
        let base = SpecKey::new(&spec(BASE));
        // The wire has no `dsl_prefix` field (the CLI sets it).
        let mut prefixed = spec(BASE);
        prefixed.dsl_prefix = Some("x".into());
        assert_ne!(SpecKey::new(&prefixed), base);
        assert_ne!(SpecKey::new(&prefixed).index(), base.index());
        let differing = [
            r#"{"cmd":"sweep","workload":"interp","clocks":[1400],"cycles":[4]}"#,
            r#"{"cmd":"sweep","dsl":"proc p() {}","clocks":[1400],"cycles":[4]}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1401],"cycles":[4]}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4,4]}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"pipeline":[null]}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"dim":2}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"count":2}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"seed":2}"#,
        ];
        for line in differing {
            let key = SpecKey::new(&spec(line));
            assert_ne!(key, base, "{line}");
            assert_ne!(key.index(), base.index(), "{line}");
        }
        let same = [
            r#"{"id":9,"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4]}"#,
            r#"{"cmd":"refine","workload":"interpolation","clocks":[1400],"cycles":[4]}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"objectives":"area,power"}"#,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"constraints":["area<=9"]}"#,
        ];
        for line in same {
            assert_eq!(SpecKey::new(&spec(line)), base, "{line}");
        }
        // A pipelined cell never aliases a sequential one.
        let seq = SpecKey::new(&spec(
            r#"{"cmd":"sweep","workload":"idct","pipeline":[null]}"#,
        ));
        let ii0 = SpecKey::new(&spec(r#"{"cmd":"sweep","workload":"idct","pipeline":[0]}"#));
        assert_ne!(seq.index(), ii0.index());
    }

    #[test]
    fn a_prefix_only_difference_misses_and_expands_afresh() {
        let dsl = r#"{"cmd":"sweep","dsl":"proc p(in a: u8, out o: u8) { loop { wait; write(o, read(a) + 1); } }","clocks":[1500,2000]}"#;
        let memo = SpecMemo::new();
        let plain = spec(dsl);
        let mut prefixed = spec(dsl);
        prefixed.dsl_prefix = Some("rz".into());
        let a = memo.expand(&plain).unwrap();
        let b = memo.expand(&prefixed).unwrap();
        assert_eq!(memo.expansions.stats().misses, 2);
        let names = |set: &PointSet| -> Vec<String> {
            set.points().iter().map(|p| p.name.clone()).collect()
        };
        let fresh = PointSet::new(sweep_points(&prefixed).unwrap());
        assert_eq!(names(&b), names(&fresh));
        assert_eq!(b.fingerprints(), fresh.fingerprints());
        assert_ne!(names(&a), names(&b));
        // Both clocks share one compiled design, hashed once.
        assert!(Arc::ptr_eq(&b.points()[0].design, &b.points()[1].design));
        assert!(Arc::ptr_eq(&memo.expand(&prefixed).unwrap(), &b));
        assert_eq!(memo.expansions.stats().hits, 1);
    }

    fn server(memo: SpecMemo) -> Server {
        Server::with_memo(
            EvaluatorPool::new(
                tsmc90::library(),
                HlsOptions::default(),
                PoolOptions {
                    threads: 1,
                    skip_infeasible: true,
                    ..Default::default()
                },
            ),
            memo,
        )
    }

    fn respond(srv: &Server, line: &str) -> String {
        let mut out = Vec::new();
        srv.handle_line(line, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn forced_collisions_never_serve_another_specs_expansion() {
        let colliding = server(SpecMemo::with_budgets(EXPANSION_BUDGET, CELL_BUDGET, |_| 0));
        // Zero budgets keep nothing: every request expands afresh.
        let memoless = server(SpecMemo::with_budgets(0, 0, std::convert::identity));
        let requests = [
            BASE,
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[1800],"cycles":[4]}"#,
            r#"{"cmd":"sweep","workload":"random","count":2,"seed":3}"#,
            r#"{"cmd":"sweep","workload":"random","count":2,"seed":4}"#,
            r#"{"cmd":"refine","workload":"interpolation","clocks":[1400,1800],"cycles":[3,4]}"#,
            r#"{"cmd":"refine","workload":"interpolation","clocks":[1400,2400],"cycles":[4,6]}"#,
        ];
        for round in 0..2 {
            for (i, line) in requests.iter().enumerate() {
                assert_eq!(
                    respond(&colliding, line),
                    respond(&memoless, line),
                    "round {round}, request {i}"
                );
            }
        }
        // Each request repeated back to back hits its own entry.
        assert_eq!(respond(&colliding, BASE), respond(&memoless, BASE));
        assert_eq!(respond(&colliding, BASE), respond(&memoless, BASE));
        let snap = colliding.metrics_snapshot();
        for memo in ["memo.expand", "memo.cell"] {
            assert!(
                snap.counter(&format!("{memo}.collisions")).unwrap() > 0,
                "{memo}: {snap:?}"
            );
        }
        assert!(snap.counter("memo.expand.hits").unwrap() > 0);
        let none = memoless.metrics_snapshot();
        assert_eq!(none.gauge("memo.expand.entries"), Some(0));
        assert_eq!(none.counter("memo.expand.collisions"), Some(0));
    }
}
