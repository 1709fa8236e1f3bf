//! The golden corpus: the rows the scheduler produced for four fixed
//! point sets, and the response streams of a fixed set of `refine`
//! requests, rendered to text so a test can diff them byte for byte.
//!
//! Each point of a row set renders as three lines:
//!
//! * `row`: the [`evaluate_point`] row — both areas, the save percentage,
//!   power, throughput and latency — over a fresh prefix for the point,
//!   or the exact error text of an infeasible point;
//! * `conv` / `slack`: one [`run_hls`] per flow, over a fresh prefix per
//!   run, with its relaxation rounds and an FNV-1a digest of the full
//!   schedule (every op's edge, start, delay and instance, the allocation
//!   and its limits) and the area report, or that flow's error text.
//!
//! Both kinds of line run the one scheduling path; the digests pin whole
//! schedules, not just the areas a row reports. They were first recorded
//! from a separate rescanning scheduler, since deleted, so they also
//! hold that scheduler's output as data. Floats print with `{:?}`, which
//! round-trips exactly.
//!
//! The `refine` set is one block per request of [`REFINE_REQUESTS`]: the
//! request line, then every line a fresh [`Server`] answers it with —
//! each streamed `round` event and the terminal `result` — exactly as a
//! client reads them.
//!
//! Shared by `tests/golden_corpus.rs` (which only reads the committed
//! files) and `examples/golden_corpus.rs` (which writes them).

use adhls_core::dse::{evaluate_point, DsePoint, DseRow};
use adhls_core::sched::{run_hls, Flow, HlsOptions, HlsResult};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::Server;
use adhls_reslib::tsmc90;
use adhls_reslib::ResClass;
use adhls_workloads::sweep::{idct_table4, random_fleet};
use adhls_workloads::{fir, idct};
use std::fmt::Write;

/// Corpus sets, in file order; each is stored as `tests/golden/<set>.txt`.
pub const SETS: [&str; 5] = ["table4", "idct1d", "fir", "fleet", "refine"];

/// The requests of the `refine` set. The main grid's 900-ps column is
/// overconstrained at low budgets, so those streams also carry skipped
/// cells. Together they cover the default plane with a warm start, an
/// area/power plane whose one-point seed staircase takes the densify
/// path, constraints that prune cells before evaluation, a budget cut, a
/// zero gap tolerance, and a two-plane pass.
pub const REFINE_REQUESTS: [&str; 6] = [
    r#"{"id":1,"cmd":"refine","workload":"interpolation","clocks":[900,1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[2,3,4,5,6],"warm_front":["interp-c1250-l4"]}"#,
    r#"{"id":2,"cmd":"refine","workload":"interpolation","clocks":[1800,2000,2200,2400,2600],"cycles":[6,7,8,9,10],"objectives":"area,power"}"#,
    r#"{"id":3,"cmd":"refine","workload":"interpolation","clocks":[900,1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[2,3,4,5,6],"objectives":"area,latency","constraints":["area<=3000","latency<=6000"],"gap_tol":0.02}"#,
    r#"{"id":5,"cmd":"refine","workload":"interpolation","clocks":[1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[3,4,5,6],"gap_tol":0}"#,
    r#"{"id":6,"cmd":"refine","workload":"interpolation","clocks":[900,1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[2,3,4,5,6],"objectives":"area,latency;area,power","constraints":["area<=3000"],"gap_tol":0.02}"#,
    r#"{"id":7,"cmd":"refine","workload":"interpolation","clocks":[900,1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[2,3,4,5,6],"budget":14,"gap_tol":0}"#,
];

/// The points of one corpus set.
///
/// # Panics
///
/// Panics on an unknown set name.
#[must_use]
pub fn points(set: &str) -> Vec<DsePoint> {
    match set {
        // The paper's 15 Table-4 IDCT-2D points, pipelined ones included.
        "table4" => idct_table4(),
        // The IDCT-1D clock × latency acceptance grid of
        // `refine_idct.rs`.
        "idct1d" => {
            let clocks = [1400, 1550, 1700, 1850, 2000, 2200, 2400, 2600, 2900, 3200];
            let mut pts = Vec::new();
            for clock in clocks {
                for cycles in [4u32, 6, 8, 10, 12, 14, 16] {
                    let design = idct::build_1d(cycles);
                    pts.push(DsePoint::grid("idct1d", design, clock, cycles, None));
                }
            }
            pts
        }
        // The FIR taps × clock × budget acceptance grid.
        "fir" => {
            let base = [3i64, -5, 11, 7, 2, -9, 6, 1];
            let mut pts = Vec::new();
            for taps in [2usize, 4, 8] {
                for clock in [1400u64, 1700, 2000, 2400] {
                    for cycles in [6u32, 10, 14] {
                        let cfg = fir::FirConfig {
                            coeffs: base[..taps].to_vec(),
                            cycles,
                            ..Default::default()
                        };
                        let name = format!("fir{taps}");
                        pts.push(DsePoint::grid(&name, fir::build(&cfg), clock, cycles, None));
                    }
                }
            }
            pts
        }
        // A seeded random customer fleet, infeasible designs included.
        "fleet" => random_fleet(48, 7_000),
        other => panic!("unknown corpus set `{other}`"),
    }
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digested state of one run, field by field (not via `Debug`, so the
/// digest moves only when a value does): every op's edge, start, delay and
/// instance; every instance's class, grade and width; every class limit;
/// the area report.
fn state_bytes(r: &HlsResult) -> Vec<u8> {
    let s = &r.schedule;
    let mut b = Vec::new();
    for i in 0..s.edge_of.len() {
        let edge = s.edge_of[i].map_or(-1, |e| i64::from(e.0));
        let inst = s.instance_of[i].map_or(-1, |id| i64::from(id.0));
        for v in [edge, s.start_ps[i], s.delay_ps[i], inst] {
            b.extend_from_slice(&v.to_le_bytes());
        }
    }
    for inst in s.allocation.instances() {
        b.extend_from_slice(inst.class().name().as_bytes());
        b.extend_from_slice(&inst.delay_ps().to_le_bytes());
        b.extend_from_slice(&inst.area().to_bits().to_le_bytes());
        b.extend_from_slice(&inst.width.to_le_bytes());
    }
    for class in ResClass::ALL {
        b.extend_from_slice(&(s.allocation.limit(class) as u64).to_le_bytes());
    }
    for v in [r.area.fu, r.area.regs, r.area.mux, r.area.total] {
        b.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    b
}

/// Renders one corpus set under the default options and the paper's
/// library.
#[must_use]
pub fn render(set: &str) -> String {
    if set == "refine" {
        return render_refine();
    }
    let lib = tsmc90::library();
    let base = HlsOptions::default();
    let mut out = String::new();
    for p in points(set) {
        write_row(&mut out, &p.name, "row", evaluate_point(&p, &lib, &base));
        for (tag, flow) in [("conv", Flow::Conventional), ("slack", Flow::SlackBased)] {
            let opts = HlsOptions {
                clock_ps: p.clock_ps,
                flow,
                pipeline_ii: p.pipeline_ii,
                ..base.clone()
            };
            match run_hls(&p.design, &lib, &opts) {
                Ok(r) => writeln!(
                    out,
                    "{} {tag} relax={} digest={:016x}",
                    p.name,
                    r.relax_rounds,
                    fnv(&state_bytes(&r))
                ),
                Err(e) => writeln!(out, "{} {tag} error: {e}", p.name),
            }
            .expect("writing to a String");
        }
    }
    out
}

/// One `<name> <tag> …` line: every field of `row`, or the error text.
fn write_row(out: &mut String, name: &str, tag: &str, row: adhls_ir::Result<DseRow>) {
    match row {
        Ok(r) => writeln!(
            out,
            "{} {tag} a_conv={:?} a_slack={:?} save_pct={:?} power={:?}/{:?}/{:?} \
             throughput={:?} latency_ps={:?} clock_ps={}",
            r.name,
            r.a_conv,
            r.a_slack,
            r.save_pct,
            r.power.dynamic,
            r.power.leakage,
            r.power.total,
            r.throughput,
            r.latency_ps,
            r.clock_ps
        ),
        Err(e) => writeln!(out, "{name} {tag} error: {e}"),
    }
    .expect("writing to a String");
}

/// Renders the `refine` set: each request of [`REFINE_REQUESTS`] against
/// its own fresh one-thread, skip-infeasible server, followed by every
/// response line.
fn render_refine() -> String {
    let mut out = String::new();
    for req in REFINE_REQUESTS {
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                skip_infeasible: true,
                ..PoolOptions::default()
            },
        );
        let mut stream = Vec::new();
        Server::new(pool)
            .handle_line(req, &mut stream)
            .expect("writing to a Vec");
        out.push_str(req);
        out.push('\n');
        out.push_str(&String::from_utf8(stream).expect("responses are UTF-8"));
    }
    out
}
