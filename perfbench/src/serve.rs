//! The `serve-mix` workload: closed-loop clients over loopback TCP into a
//! [`Router`] over in-process workers, as `adhls serve --workers <nproc>
//! --threads 1 --cache-bytes <budget>` builds it.
//!
//! One client connection per core sends the seeded request stream, each
//! client waiting for its reply before sending its next request (zero think
//! time). The stream mixes `sweep`s of 4-design random windows whose
//! popularity follows a Zipf law, `refine`s of interpolation grids, `fir`
//! sweeps, inline-DSL sweeps of resizer variants (different widths and
//! stage counts, so different designs), and `stats`. Each worker's row
//! cache is smaller than the run's distinct rows, so hits, misses and
//! evictions all happen. An untimed warm-up prefix of the same stream
//! fills the caches and counts as set-up.
//!
//! Untimed afterwards, every response is checked: it must echo its id, be
//! `ok:true`, and — apart from the cache-dependent `cache_hits`/`workers`
//! tail of a sweep — equal byte for byte what the protocol renders for a
//! direct `Engine::evaluate_serial` (sweeps) or `refine` (refines) of the
//! same spec.

use crate::cells::Decomposer;
use crate::metrics::{write_trace_files, EndToEnd, Layers};
use crate::stats::{geomean, median, nproc, peak_rss_mb, quantile, ratio, record_provenance, Rng};
use crate::trace::Tracer;
use crate::{Config, Outcome};
use adhls_core::dse::{DsePoint, DseRow};
use adhls_core::json::{escape_into, Value};
use adhls_core::sched::HlsOptions;
use adhls_explore::fingerprint::Fnv;
use adhls_explore::pareto::{pareto_front_in_constrained, ObjectiveSpace};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, RefineOptions, RefineResult};
use adhls_explore::server::protocol::{parse_request, render_refine_result, render_sweep_result};
use adhls_explore::server::{
    in_process_factory, refine_spaces, routing_fingerprint, sweep_points, sweep_spaces,
    validate_spec_constraints, workload_grid, Command, Router, RouterOptions,
};
use adhls_explore::sweep::SweepCell;
use adhls_explore::Constraint;
use adhls_explore::{Engine, EngineOptions, SweepResult};
use adhls_reslib::tsmc90;
use adhls_telemetry::{Registry, Snapshot};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Row-cache budget of each worker: below the run's distinct-row footprint.
const WORKER_CACHE_BYTES: usize = 24 << 10;
/// Requests of the stream sent before the timed region (part of set-up).
const WARMUP_REQUESTS: u64 = 96;
/// Random windows in the catalog the Zipf popularity ranges over.
const ZIPF_WINDOWS: usize = 48;
/// Zipf exponent of window popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// First design seed of the random-window catalog (window `w` is the four
/// designs from `CATALOG_BASE + 4w`).
const CATALOG_BASE: u64 = 5_000_000;
/// Every block of 20 requests holds exactly this mix, in seeded order.
const BLOCK: [Kind; 20] = {
    use Kind::{Dsl, Fir, Random, Refine, Stats};
    [
        Random, Random, Random, Random, Random, Random, Random, Random, Random, Refine, Refine,
        Refine, Refine, Fir, Fir, Fir, Dsl, Dsl, Dsl, Stats,
    ]
};
/// Set-ups per run; `setup_s` is their median and the first one is timed.
const SETUP_REPEATS: usize = 3;
/// Timed request lines replayed through the protocol/session/router calls.
const REPLAY_LINES: usize = 400;

/// The request families of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `sweep` of a 4-design random window (about 45%).
    Random,
    /// `refine` of an interpolation grid (about 20%).
    Refine,
    /// `fir` sweep (about 15%).
    Fir,
    /// Inline-DSL sweep of a resizer variant (about 15%).
    Dsl,
    /// `stats` (about 5%).
    Stats,
}

/// The seeded request stream: request `i` is a pure function of the seed
/// and `i`, so any client can send any position.
///
/// The seed shapes the traffic, not the catalog: it orders each block of
/// [`BLOCK`], draws the windows from the fixed Zipf popularity, and picks
/// the refine/fir/DSL variants, while the designs on offer and their
/// popularity stay the same. So every seed serves the same kind mix over a
/// comparable working set.
#[derive(Debug, Clone)]
pub struct Mix {
    seed: u64,
    cdf: Vec<f64>,
}

impl Mix {
    /// The stream for benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64, tiny: bool) -> Mix {
        let windows = if tiny { 16 } else { ZIPF_WINDOWS };
        let weights: Vec<f64> = (1..=windows)
            .map(|r| 1.0 / (r as f64).powf(ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix { seed, cdf }
    }

    /// Request `i`: its family and its JSON fields after the `id`.
    #[must_use]
    pub fn request(&self, i: u64) -> (Kind, String) {
        let block = i / BLOCK.len() as u64;
        let mut kinds = BLOCK;
        shuffle(&mut kinds, &mut Rng::new(self.seed, u64::MAX - 1 - block));
        let kind = kinds[(i % BLOCK.len() as u64) as usize];
        let mut rng = Rng::new(self.seed, i);
        if kind == Kind::Random {
            let x = rng.unit();
            let rank = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
            let first = CATALOG_BASE + 4 * rank as u64;
            (
                kind,
                format!("\"cmd\":\"sweep\",\"workload\":\"random\",\"count\":4,\"seed\":{first}"),
            )
        } else if kind == Kind::Refine {
            let v = rng.below(8) as u64;
            let clocks: Vec<String> = [1100u64, 1300, 1500, 1800, 2400]
                .iter()
                .map(|c| (c + 30 * v).to_string())
                .collect();
            (
                Kind::Refine,
                format!(
                    "\"cmd\":\"refine\",\"workload\":\"interpolation\",\"clocks\":[{}],\
                     \"cycles\":[3,4,6],\"gap_tol\":0.1",
                    clocks.join(",")
                ),
            )
        } else if kind == Kind::Fir {
            let clock = [1800, 2200, 2600, 3000][rng.below(4)];
            let cycles = ["[2,3]", "[2,3,4]", "[3,4]"][rng.below(3)];
            (
                Kind::Fir,
                format!(
                    "\"cmd\":\"sweep\",\"workload\":\"fir\",\"clocks\":[{clock}],\"cycles\":{cycles}"
                ),
            )
        } else if kind == Kind::Dsl {
            let width = [8u16, 12, 16, 20, 24, 32][rng.below(6)];
            let stages = rng.below(3);
            let mut fields = String::from("\"cmd\":\"sweep\",\"dsl\":");
            escape_into(&mut fields, &resizer_variant(width, stages));
            (kind, fields)
        } else {
            (kind, "\"cmd\":\"stats\"".into())
        }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A variant of `examples/dsl/resizer.adhls` with `width`-bit ports and
/// `stages` extra pipeline stages before the write.
#[must_use]
pub fn resizer_variant(width: u16, stages: usize) -> String {
    let mut extra = String::new();
    for k in 1..=stages {
        extra.push_str(&format!("        wait;\n        y = y + {k};\n"));
    }
    format!(
        "proc resizer_w{width}_s{stages}(in a: u{width}, in b: u{width}, out o: u{width}) {{\n\
         \x20   loop {{\n\
         \x20       let x: u{width} = read(a) + 3;\n\
         \x20       if x > 100 {{\n\
         \x20           wait;\n\
         \x20           y = x / 2 - 3;\n\
         \x20       }} else {{\n\
         \x20           wait;\n\
         \x20           y = x * read(b);\n\
         \x20       }}\n\
         {extra}\
         \x20       wait;\n\
         \x20       write(o, y);\n\
         \x20   }}\n\
         }}\n"
    )
}

/// One request line of the stream.
#[must_use]
pub fn request_line(i: u64, fields: &str) -> String {
    format!("{{\"id\":{i},{fields}}}")
}

/// The cache-independent part of a response line: everything after the
/// `{"id":<i>,` envelope, minus a sweep's trailing `cache_hits`/`workers`.
#[must_use]
pub fn normalized(line: &str) -> &str {
    let rest = line.find(",\"event\"").map_or(line, |p| &line[p..]);
    match rest.rfind(",\"cache_hits\":") {
        Some(p) if rest.contains("\"cmd\":\"sweep\"") => &rest[..p],
        _ => rest,
    }
}

fn digest(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(s.as_bytes());
    h.digest()
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    index: u64,
    rtt_ns: u64,
    ok: bool,
    digest: u64,
    timed: bool,
    traced: bool,
}

/// The two halves of one client socket.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One client connection and what it recorded.
struct Client {
    conn: Conn,
    samples: Vec<Sample>,
    /// The first full response line per request spec.
    first: HashMap<String, String>,
    tracer: Tracer,
    broken: Option<String>,
}

/// What one closed-loop phase runs.
#[derive(Clone, Copy)]
struct Phase<'a> {
    mix: &'a Mix,
    next: &'a AtomicU64,
    end: Option<u64>,
    deadline: Option<Instant>,
    timed: bool,
    trace: bool,
    fault_at: Option<u64>,
}

impl Conn {
    /// Sends `line` and reads up to its terminal `result` line, skipping
    /// streamed `round` events.
    fn roundtrip(&mut self, i: u64, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("request {i}: write failed: {e}"))?;
        let result = format!("{{\"id\":{i},\"event\":\"result\"");
        let round = format!("{{\"id\":{i},\"event\":\"round\"");
        loop {
            let mut resp = String::new();
            match self.reader.read_line(&mut resp) {
                Ok(0) => return Err(format!("request {i}: connection closed")),
                Ok(_) => {}
                Err(e) => return Err(format!("request {i}: read failed: {e}")),
            }
            if resp.starts_with(&result) {
                resp.truncate(resp.trim_end().len());
                return Ok(resp);
            }
            if !resp.starts_with(&round) {
                return Err(format!("request {i}: unexpected line {resp:.80}"));
            }
        }
    }
}

impl Client {
    fn connect(addr: SocketAddr, epoch: Instant) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: Conn {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            },
            samples: Vec::new(),
            first: HashMap::new(),
            tracer: Tracer::new(epoch),
            broken: None,
        })
    }

    fn run(&mut self, ph: Phase<'_>) {
        while self.broken.is_none() {
            if ph.deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let i = ph.next.fetch_add(1, Ordering::SeqCst);
            if ph.end.is_some_and(|e| i >= e) {
                break;
            }
            let (kind, fields) = ph.mix.request(i);
            let line = request_line(i, &fields);
            let traced = ph.trace && ph.timed && i % 2 == 1;
            let t0 = Instant::now();
            let conn = &mut self.conn;
            let resp = if traced {
                self.tracer.span("request", i, |_| conn.roundtrip(i, &line))
            } else {
                conn.roundtrip(i, &line)
            };
            let rtt_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (ok, digest) = match resp {
                Ok(mut resp) => {
                    if ph.fault_at == Some(i) {
                        corrupt(&mut resp);
                    }
                    let ok =
                        resp.starts_with(&format!("{{\"id\":{i},\"event\":\"result\",\"ok\":true"));
                    let d = if kind == Kind::Stats {
                        0
                    } else {
                        digest(normalized(&resp))
                    };
                    self.first.entry(fields).or_insert(resp);
                    (ok, d)
                }
                Err(e) => {
                    self.broken = Some(e);
                    (false, 0)
                }
            };
            self.samples.push(Sample {
                index: i,
                rtt_ns,
                ok,
                digest,
                timed: ph.timed,
                traced,
            });
        }
    }
}

/// Flips one digit of the first `a_slack` value: a deliberately wrong row.
fn corrupt(resp: &mut String) {
    if let Some(p) = resp.find("\"a_slack\":") {
        let at = p + "\"a_slack\":".len();
        let replacement = if resp[at..].starts_with('1') {
            "2"
        } else {
            "1"
        };
        resp.replace_range(at..=at, replacement);
    }
}

/// Runs one closed-loop phase on every client in parallel.
fn phase(clients: &mut [Client], ph: Phase<'_>) {
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.run(ph));
        }
    });
}

/// The router `adhls serve --workers n --threads 1 --cache-bytes B`
/// builds, with each worker pool's registry kept for the per-layer report.
fn build_router(workers: usize) -> std::io::Result<(Router, Vec<Registry>)> {
    let registries: Vec<Registry> = (0..workers).map(|_| Registry::new()).collect();
    let regs = registries.clone();
    let factory = in_process_factory(move |idx| {
        EvaluatorPool::with_telemetry(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                skip_infeasible: true,
                cache_bytes: Some(WORKER_CACHE_BYTES),
                ..PoolOptions::default()
            },
            regs[idx].clone(),
        )
    });
    let router = Router::new(
        factory,
        RouterOptions {
            workers,
            ..RouterOptions::default()
        },
    )?;
    Ok((router, registries))
}

/// Asks the server at `addr` to shut down.
fn shutdown(addr: SocketAddr) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    Ok(())
}

/// Everything the timed session leaves for the checks.
struct Session {
    samples: Vec<Sample>,
    first: HashMap<String, String>,
    tracer: Tracer,
    wall_s: f64,
    peak_mb: f64,
    router_before: Snapshot,
    router_after: Snapshot,
    workers_before: Vec<Snapshot>,
    workers_after: Vec<Snapshot>,
    broken: Vec<String>,
}

/// One set-up (router, listener, clients, warm-up); when `timed`, also the
/// timed region. Returns the set-up time and, when timed, the session.
fn serve_once(
    cfg: &Config,
    mix: &Mix,
    epoch: Instant,
    timed: bool,
    fault_at: Option<u64>,
) -> std::io::Result<(f64, Option<Session>)> {
    let n = nproc();
    let t = Instant::now();
    let (router, registries) = build_router(n)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| router.serve_tcp(&listener));
        let run = || -> std::io::Result<(f64, Option<Session>)> {
            let mut clients = (0..n)
                .map(|_| Client::connect(addr, epoch))
                .collect::<std::io::Result<Vec<_>>>()?;
            let warmup = if cfg.tiny { 12 } else { WARMUP_REQUESTS };
            let next = AtomicU64::new(0);
            let base = Phase {
                mix,
                next: &next,
                end: Some(warmup),
                deadline: None,
                timed: false,
                trace: cfg.trace,
                fault_at,
            };
            phase(&mut clients, base);
            let setup_s = t.elapsed().as_secs_f64();
            if !timed {
                return Ok((setup_s, None));
            }
            let router_before = router.metrics_snapshot();
            let workers_before: Vec<Snapshot> = registries.iter().map(Registry::snapshot).collect();
            let start = Instant::now();
            phase(
                &mut clients,
                Phase {
                    end: None,
                    deadline: Some(start + Duration::from_secs_f64(cfg.seconds)),
                    timed: true,
                    ..base
                },
            );
            let wall_s = start.elapsed().as_secs_f64();
            let peak_mb = peak_rss_mb();
            let router_after = router.metrics_snapshot();
            let workers_after = registries.iter().map(Registry::snapshot).collect();
            let mut session = Session {
                samples: Vec::new(),
                first: HashMap::new(),
                tracer: Tracer::new(epoch),
                wall_s,
                peak_mb,
                router_before,
                router_after,
                workers_before,
                workers_after,
                broken: Vec::new(),
            };
            for c in clients {
                session.samples.extend(c.samples);
                for (k, v) in c.first {
                    session.first.entry(k).or_insert(v);
                }
                session.tracer.absorb(c.tracer);
                session.broken.extend(c.broken);
            }
            session.samples.sort_by_key(|s| s.index);
            Ok((setup_s, Some(session)))
        };
        let result = run();
        let stopped = shutdown(addr);
        let served = server.join().expect("serve thread panicked");
        let (setup_s, session) = result?;
        stopped?;
        served?;
        Ok((setup_s, session))
    })
}

/// What the oracle expects for one request spec.
struct Expected {
    kind: Kind,
    line: String,
    /// (cell name, feasible row or error) for every cell the request
    /// answers, in response order.
    cells: Vec<(String, Result<DseRow, String>)>,
    /// Points behind those cells (for the traced decomposition).
    points: Vec<DsePoint>,
    sweep: Option<SweepExpected>,
    refine: Option<RefineResult>,
}

/// A sweep's direct result and the per-plane fronts its response renders.
struct SweepExpected {
    result: SweepResult,
    planes: Vec<(ObjectiveSpace, Vec<DseRow>)>,
    constraints: Vec<Constraint>,
}

/// Renders what a correct server answers to `fields`, from a direct
/// evaluation on `engine`.
fn expect(engine: &Engine<'_>, kind: Kind, fields: &str) -> Result<Expected, String> {
    let line = request_line(0, fields);
    let (id, cmd) = parse_request(&line);
    let mut exp = Expected {
        kind,
        line: String::new(),
        cells: Vec::new(),
        points: Vec::new(),
        sweep: None,
        refine: None,
    };
    match cmd? {
        Command::Sweep(spec) => {
            let spaces = sweep_spaces(&spec);
            validate_spec_constraints(&spec, &spaces)?;
            let points = sweep_points(&spec)?;
            let result = engine.evaluate_serial(&points).map_err(|e| e.to_string())?;
            let planes: Vec<(ObjectiveSpace, Vec<DseRow>)> = spaces
                .iter()
                .map(|s| {
                    (
                        s.clone(),
                        pareto_front_in_constrained(s, &spec.constraints, &result.rows),
                    )
                })
                .collect();
            exp.line = render_sweep_result(id.as_ref(), &result, &planes, &spec.constraints);
            exp.cells = cells_of(&points, &result.rows, &result.skipped);
            exp.points = points;
            exp.sweep = Some(SweepExpected {
                result,
                planes,
                constraints: spec.constraints,
            });
        }
        Command::Refine {
            spec,
            budget,
            gap_tol,
            ..
        } => {
            let (grid, prefix, mut build) = workload_grid(&spec)?;
            let spaces = refine_spaces(&spec)?;
            let opts = RefineOptions {
                budget,
                gap_tol,
                objectives: spaces[0].clone(),
                constraints: spec.constraints.clone(),
                point_mode: spec.mode,
                ..RefineOptions::default()
            };
            let r = refine(engine, &grid, &prefix, &mut build, &opts).map_err(|e| e.to_string())?;
            exp.line = render_refine_result(id.as_ref(), &r);
            for name in r
                .rows
                .iter()
                .map(|row| &row.name)
                .chain(r.skipped.iter().map(|s| &s.0))
            {
                let (clock_ps, cycles, pipeline_ii) = DsePoint::parse_grid_name(name)
                    .ok_or_else(|| format!("refine cell `{name}` has no grid name"))?;
                let cell = SweepCell {
                    clock_ps,
                    cycles,
                    pipeline_ii,
                };
                exp.points.push(DsePoint::grid(
                    &prefix,
                    build(&cell),
                    clock_ps,
                    cycles,
                    pipeline_ii,
                ));
            }
            exp.cells = r
                .rows
                .iter()
                .map(|row| (row.name.clone(), Ok(row.clone())))
                .chain(r.skipped.iter().map(|(n, e)| (n.clone(), Err(e.clone()))))
                .collect();
            exp.refine = Some(r);
        }
        Command::Stats => {}
        other => return Err(format!("the mix never sends `{}`", other.verb())),
    }
    Ok(exp)
}

/// (name, row or error) per point, matching a skip-infeasible sweep's
/// rows and skipped entries back to input order.
fn cells_of(
    points: &[DsePoint],
    rows: &[DseRow],
    skipped: &[(String, String)],
) -> Vec<(String, Result<DseRow, String>)> {
    let mut rows = rows.iter().peekable();
    let mut skipped = skipped.iter().peekable();
    points
        .iter()
        .filter_map(|p| {
            if rows.peek().is_some_and(|r| r.name == p.name) {
                rows.next().map(|r| (p.name.clone(), Ok(r.clone())))
            } else {
                skipped.next().map(|(n, e)| (n.clone(), Err(e.clone())))
            }
        })
        .collect()
}

/// Worker-side histogram sum (µs) and count for `name`, summed over workers
/// and taken as the difference `after − before`.
fn worker_hist(before: &[Snapshot], after: &[Snapshot], name: &str) -> (f64, u64) {
    let get = |snaps: &[Snapshot]| {
        snaps.iter().fold((0.0, 0u64), |(s, c), snap| {
            snap.histogram(name)
                .map_or((s, c), |h| (s + h.sum, c + h.count))
        })
    };
    let (s1, c1) = get(after);
    let (s0, c0) = get(before);
    (s1 - s0, c1.saturating_sub(c0))
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// Runs `serve-mix`.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    record_provenance(&mut out, cfg);
    let epoch = Instant::now();
    let mix = Mix::new(cfg.seed, cfg.tiny);
    let warmup = if cfg.tiny { 12 } else { WARMUP_REQUESTS };
    // The first timed FIR sweep (whose rows are mostly feasible) gets one
    // row of its response corrupted when the self-check asks for a fault.
    let fault_at = cfg
        .inject_fault
        .then(|| (warmup..).find(|&i| mix.request(i).0 == Kind::Fir))
        .flatten();

    // The first set-up runs the timed region; the others only add set-up
    // samples, after it, so they cannot inflate its peak memory.
    let repeats = if cfg.tiny { 2 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut session = None;
    for rep in 0..repeats {
        match serve_once(cfg, &mix, epoch, rep == 0, fault_at) {
            Ok((s, sess)) => {
                setup_s.push(s);
                session = session.or(sess);
            }
            Err(e) => {
                out.fail(1, format!("serving failed: {e}"));
                out.attempted += 1;
                return out;
            }
        }
    }
    let mut sess = session.expect("the first set-up runs the timed region");
    for b in &sess.broken {
        out.fail(0, b.clone());
    }

    // Untimed: the oracle for every distinct spec the run sent.
    let lib = tsmc90::library();
    let engine = Engine::with_options(
        &lib,
        HlsOptions::default(),
        EngineOptions {
            threads: 1,
            skip_infeasible: true,
            ..EngineOptions::default()
        },
    );
    let mut expected: HashMap<String, Result<Expected, String>> = HashMap::new();
    let mut specs: Vec<(Kind, String)> = Vec::with_capacity(sess.samples.len());
    for s in &sess.samples {
        let (kind, fields) = mix.request(s.index);
        if !expected.contains_key(&fields) {
            let e = expect(&engine, kind, &fields);
            expected.insert(fields.clone(), e);
        }
        specs.push((kind, fields));
    }
    for (fields, line) in &sess.first {
        if let Some(Ok(exp)) = expected.get(fields) {
            if exp.kind != Kind::Stats && Value::parse(line).is_err() {
                out.fail(0, format!("unparseable response {line:.80}"));
            }
        }
    }
    for (s, (_, fields)) in sess.samples.iter().zip(&specs) {
        out.attempted += 1;
        let why = match expected.get(fields) {
            _ if !s.ok => Some("answered ok:false, busy, or not at all".to_string()),
            Some(Err(e)) => Some(format!("oracle could not evaluate the spec: {e}")),
            Some(Ok(exp))
                if exp.kind != Kind::Stats && digest(normalized(&exp.line)) != s.digest =>
            {
                Some("response differs from the direct evaluation".into())
            }
            _ => None,
        };
        if let Some(why) = why {
            out.fail(1, format!("request {}: {why}", s.index));
        }
    }
    if sess.samples.is_empty() {
        out.fail(1, "no request was answered");
    }

    let cells_of_spec = |fields: &String| -> usize {
        expected
            .get(fields)
            .and_then(|e| e.as_ref().ok())
            .map_or(0, |e| e.cells.len())
    };
    let timed: Vec<(&Sample, &(Kind, String))> = sess
        .samples
        .iter()
        .zip(&specs)
        .filter(|(s, _)| s.timed)
        .collect();
    let rtt_ms: Vec<f64> = timed.iter().map(|(s, _)| s.rtt_ns as f64 / 1e6).collect();
    let timed_cells: usize = timed.iter().map(|(_, (_, f))| cells_of_spec(f)).sum();
    // Distinct cells answered anywhere in the run, by point name (names
    // identify the design and clock for every family in the mix).
    let mut distinct: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    for (_, fields) in &specs {
        if let Some(Ok(e)) = expected.get(fields) {
            for (name, row) in &e.cells {
                distinct
                    .entry(name.as_str())
                    .or_insert_with(|| row.as_ref().ok().map(|r| r.a_slack));
            }
        }
    }
    let feasible: Vec<f64> = distinct.values().filter_map(|a| *a).collect();

    out.prov("workers", nproc());
    out.prov("threads_per_worker", 1);
    out.prov("clients", nproc());
    out.prov("worker_cache_bytes", WORKER_CACHE_BYTES);
    out.prov("warmup_requests", warmup);
    out.prov("timed_requests", timed.len());
    out.prov("latency_samples", rtt_ms.len());
    out.prov("samples_beyond_p99", rtt_ms.len() / 100);
    out.prov("distinct_specs", expected.len());
    out.prov("distinct_cells", distinct.len());
    out.prov("setup_repeats", setup_s.len());
    out.prov("zipf_windows", mix.cdf.len());
    out.prov("catalog_first_design_seed", CATALOG_BASE);

    if !cfg.trace {
        EndToEnd {
            setup_s: median(&setup_s),
            cells_per_s: timed_cells as f64 / sess.wall_s,
            req_per_s: timed.len() as f64 / sess.wall_s,
            req_p50_ms: median(&rtt_ms),
            req_p99_ms: quantile(&rtt_ms, 0.99),
            feasible_ratio: ratio(feasible.len() as f64, distinct.len() as f64),
            area_geomean: geomean(feasible.iter().copied()),
            peak_rss_mb: sess.peak_mb,
        }
        .push(&mut out);
        return out;
    }

    // Traced: worker-side and router-side numbers over the timed region.
    let mut layers = Layers::default();
    let (wb, wa) = (&sess.workers_before, &sess.workers_after);
    let (sweep_us, sweeps) = worker_hist(wb, wa, "serve.request.sweep");
    let (refine_us, refines) = worker_hist(wb, wa, "serve.request.refine");
    let (eval_us, _) = worker_hist(wb, wa, "pipeline.evaluate");
    let routed = (sweeps + refines) as f64;
    let routed_rtt_ms: f64 = timed
        .iter()
        .filter(|(_, (k, _))| *k != Kind::Stats)
        .map(|(s, _)| s.rtt_ns as f64 / 1e6)
        .sum();
    layers.session_service_ms = ratio((sweep_us + refine_us) / 1e3, routed);
    layers.session_evaluate_ms = ratio(eval_us / 1e3, routed);
    layers.router_wait_ms = ratio(routed_rtt_ms - (sweep_us + refine_us) / 1e3, routed);
    let (rb, ra) = (&sess.router_before, &sess.router_after);
    let hits = counter_delta(rb, ra, "cache.hits") + counter_delta(rb, ra, "cache.coalesced");
    layers.eviction_hit_ratio = ratio(hits, hits + counter_delta(rb, ra, "cache.misses"));
    layers.eviction_evictions = counter_delta(rb, ra, "cache.evictions");
    let mib = (1u64 << 20) as f64;
    layers.eviction_mb = ra.gauge("cache.bytes").unwrap_or(0) as f64 / mib;
    layers.pool_prefix_mb = ra.gauge("pipeline.prefix.bytes").unwrap_or(0) as f64 / mib;
    let mut seen_infeasible: HashSet<&str> = HashSet::new();
    let mut recomputes = 0u64;
    for (_, fields) in &specs {
        if let Some(Ok(e)) = expected.get(fields) {
            for (name, row) in &e.cells {
                if row.is_err() && !seen_infeasible.insert(name.as_str()) {
                    recomputes += 1;
                }
            }
        }
    }
    layers.eviction_error_recomputes = recomputes as f64;
    let refine_evals: Vec<f64> = timed
        .iter()
        .filter_map(|(_, (_, f))| expected.get(f)?.as_ref().ok()?.refine.as_ref())
        .map(|r| r.evaluated as f64)
        .collect();
    layers.refine_evaluated = ratio(refine_evals.iter().sum(), refine_evals.len() as f64);
    let median_rtt = |traced: bool| {
        median(
            &timed
                .iter()
                .filter(|(s, _)| s.traced == traced)
                .map(|(s, _)| s.rtt_ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    layers.trace_overhead_pct = (ratio(median_rtt(true), median_rtt(false)) - 1.0) * 100.0;

    // Replays of the front-end calls on the first timed request lines.
    let mut tr = Tracer::new(epoch);
    for (s, (kind, fields)) in timed.iter().take(REPLAY_LINES) {
        let line = request_line(s.index, fields);
        let id = s.index;
        let (_, cmd) = tr.span("protocol.parse", id, |_| parse_request(&line));
        let spec = match &cmd {
            Ok(Command::Sweep(spec) | Command::Refine { spec, .. }) => spec,
            _ => continue,
        };
        tr.span("router.route", id, |_| {
            std::hint::black_box(routing_fingerprint(spec).ok())
        });
        if *kind == Kind::Refine {
            tr.span("session.expand", id, |_| {
                std::hint::black_box(workload_grid(spec).is_ok())
            });
        } else {
            tr.span("session.expand", id, |_| {
                std::hint::black_box(sweep_points(spec).ok())
            });
        }
        if let Some(src) = &spec.dsl {
            tr.span("frontend.compile", id, |_| {
                std::hint::black_box(adhls_ir::frontend::compile(src).is_ok())
            });
        }
        let idv = Value::Num(id as f64);
        if let Some(Ok(e)) = expected.get(fields) {
            if let Some(s) = &e.sweep {
                tr.span("protocol.render", id, |_| {
                    std::hint::black_box(render_sweep_result(
                        Some(&idv),
                        &s.result,
                        &s.planes,
                        &s.constraints,
                    ))
                });
            } else if let Some(r) = &e.refine {
                tr.span("protocol.render", id, |_| {
                    std::hint::black_box(render_refine_result(Some(&idv), r))
                });
            }
        }
    }
    layers.protocol_parse_us = tr.mean_us("protocol.parse");
    layers.router_route_us = tr.mean_us("router.route");
    layers.session_expand_us = tr.mean_us("session.expand");
    layers.frontend_compile_us = tr.mean_us("frontend.compile");
    layers.protocol_render_us = tr.mean_us("protocol.render");

    // The scheduler layers, decomposed over each distinct cell once.
    let mut dec = Decomposer::new(&lib, HlsOptions::default(), Tracer::new(epoch), true);
    let mut done: HashSet<String> = HashSet::new();
    let mut rows = Vec::new();
    for (_, fields) in &specs {
        let Some(Ok(e)) = expected.get(fields) else {
            continue;
        };
        for (p, (name, want)) in e.points.iter().zip(&e.cells) {
            if !done.insert(name.clone()) {
                continue;
            }
            let cell = dec.cell(done.len() as u64, p);
            if &cell.row != want {
                out.fail(
                    1,
                    format!("{name}: decomposed cell differs from the served row"),
                );
            }
            if let Ok(r) = cell.row {
                rows.push(r);
            }
        }
    }
    layers.from_decomposition(&dec, &rows);
    layers.push(&mut out);

    sess.tracer.absorb(tr);
    sess.tracer.absorb(dec.tracer);
    out.layer_table = sess.tracer.table();
    let mut telemetry = format!(
        "{{\"router\":{},\"workers\":[",
        sess.router_after.render_json()
    );
    for (i, w) in sess.workers_after.iter().enumerate() {
        if i > 0 {
            telemetry.push(',');
        }
        telemetry.push_str(&w.render_json());
    }
    telemetry.push_str("]}\n");
    match write_trace_files(cfg, &out.provenance_object(), &sess.tracer, &telemetry) {
        Ok(spans) => out.prov_str("span_file", &spans.display().to_string()),
        Err(e) => out.fail(1, format!("writing the trace files: {e}")),
    }
    out
}
