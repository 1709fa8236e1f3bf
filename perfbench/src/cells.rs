//! Cell-level decomposition and the functional oracle.
//!
//! [`Decomposer::cell`] evaluates one point exactly as
//! `adhls_core::dse::evaluate_prepared` does — `PreparedDesign::new` once
//! per distinct design (as the engine's prefix cache does), then
//! `run_hls_prepared` for the conventional and the slack-based flow, then
//! `power::estimate` — with a span around each call, and assembles the
//! same row. Callers assert that row equals the engine's. With layer
//! replays on, it also times the budgeting, slack, bounds, binding and
//! area calls on the same artifacts, once each.
//!
//! [`replay_matches`] is the independent oracle: every feasible schedule,
//! replayed in the interpreter, must produce the outputs of the unscheduled
//! design on seeded stimuli.

use crate::stats::Rng;
use crate::trace::Tracer;
use adhls_core::dse::{grid_item_time_ps, DsePoint, DseRow};
use adhls_core::prepare::PreparedDesign;
use adhls_core::sched::{run_hls_prepared, Flow, HlsOptions, HlsResult};
use adhls_core::{area, bind, power};
use adhls_explore::fingerprint::design_fingerprint;
use adhls_ir::interp::{self, Stimulus};
use adhls_ir::{Design, OpKind};
use adhls_reslib::Library;
use adhls_timing::budget::budget_with_choices;
use adhls_timing::slack::compute_slack;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;

/// Interpreter cycle bound for oracle replays.
const MAX_CYCLES: u64 = 100_000;

/// One decomposed cell.
#[derive(Debug)]
pub struct Cell {
    /// The assembled row, or the scheduling error's message.
    pub row: Result<DseRow, String>,
    /// Both flows' results when the cell is feasible (conventional, slack).
    pub flows: Option<(HlsResult, HlsResult)>,
    /// Wall time of the cell's evaluation calls, milliseconds.
    pub eval_ms: f64,
}

/// Sums over every decomposed cell.
#[derive(Debug, Clone, Default)]
pub struct LayerAcc {
    /// Conventional-flow `run_hls_prepared` time, ms.
    pub conv_ms: f64,
    /// Slack-based-flow `run_hls_prepared` time, ms.
    pub slack_ms: f64,
    /// Time of `run_hls_prepared` calls that returned an error, ms.
    pub infeasible_ms: f64,
    /// Relaxation restarts over both flows' successful runs.
    pub relax_rounds: u64,
    /// `PreparedDesign::new` time, ms.
    pub prepare_ms: f64,
    /// Summed `approx_bytes` of the retained prefixes.
    pub prepare_bytes: u64,
    /// Budgeting moves of the replayed `budget_with_choices` calls.
    pub budget_moves: u64,
    /// Per-cell evaluation wall times, ms.
    pub cell_ms: Vec<f64>,
}

/// Decomposes cells through the layers' public functions.
pub struct Decomposer<'a> {
    lib: &'a Library,
    base: HlsOptions,
    preps: HashMap<u64, PreparedDesign>,
    /// Spans of every call made so far.
    pub tracer: Tracer,
    /// Also time the budget/slack/bounds/bind/area calls per feasible cell.
    pub replay_layers: bool,
    /// Running sums.
    pub acc: LayerAcc,
}

impl<'a> Decomposer<'a> {
    /// A decomposer over `lib` with the engine's base options.
    #[must_use]
    pub fn new(lib: &'a Library, base: HlsOptions, tracer: Tracer, replay_layers: bool) -> Self {
        Decomposer {
            lib,
            base,
            preps: HashMap::new(),
            tracer,
            replay_layers,
            acc: LayerAcc::default(),
        }
    }

    /// Evaluates cell `id` (point `p`) call by call.
    pub fn cell(&mut self, id: u64, p: &DsePoint) -> Cell {
        let lib = self.lib;
        let base = &self.base;
        let preps = &mut self.preps;
        let acc = &mut self.acc;
        let key = design_fingerprint(&p.design);
        let (row, flows) = self.tracer.span("cell", id, |tr| {
            let prep = match preps.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(slot) => {
                    let prep = tr.span("prepare", id, |_| PreparedDesign::new(&p.design, lib));
                    acc.prepare_ms += tr.last_ms();
                    match prep {
                        Ok(prep) => {
                            acc.prepare_bytes += prep.approx_bytes() as u64;
                            slot.insert(prep)
                        }
                        Err(e) => return (Err(e.to_string()), None),
                    }
                }
            };
            let prep = &*prep;
            let opts = |flow| HlsOptions {
                clock_ps: p.clock_ps,
                flow,
                pipeline_ii: p.pipeline_ii,
                ..base.clone()
            };
            let mut run = |tr: &mut Tracer, name, flow, ms: &mut f64| {
                let r = tr.span(name, id, |_| run_hls_prepared(prep, lib, &opts(flow)));
                *ms += tr.last_ms();
                match r {
                    Ok(r) => {
                        acc.relax_rounds += u64::from(r.relax_rounds);
                        Ok(r)
                    }
                    Err(e) => {
                        acc.infeasible_ms += tr.last_ms();
                        Err(e.to_string())
                    }
                }
            };
            let mut conv_ms = 0.0;
            let mut slack_ms = 0.0;
            let flows =
                run(tr, "sched.conventional", Flow::Conventional, &mut conv_ms).and_then(|conv| {
                    run(tr, "sched.slack", Flow::SlackBased, &mut slack_ms).map(|s| (conv, s))
                });
            acc.conv_ms += conv_ms;
            acc.slack_ms += slack_ms;
            match flows {
                Err(e) => (Err(e), None),
                Ok((conv, slack)) => {
                    let cycles_per_item = p.cycles_per_item.max(1);
                    let power = tr.span("power", id, |_| {
                        power::estimate(
                            &p.design,
                            &slack.schedule,
                            &slack.area,
                            cycles_per_item,
                            p.clock_ps,
                        )
                    });
                    let item_time_ps = grid_item_time_ps(p.clock_ps, cycles_per_item);
                    let save_pct = if conv.area.total == 0.0 {
                        0.0
                    } else {
                        (conv.area.total - slack.area.total) / conv.area.total * 100.0
                    };
                    let row = DseRow {
                        name: p.name.clone(),
                        a_conv: conv.area.total,
                        a_slack: slack.area.total,
                        save_pct,
                        power,
                        throughput: 1.0e6 / item_time_ps,
                        latency_ps: item_time_ps,
                        clock_ps: p.clock_ps,
                    };
                    (Ok(row), Some((conv, slack)))
                }
            }
        });
        let eval_ms = self.tracer.last_ms();
        self.acc.cell_ms.push(eval_ms);
        if self.replay_layers {
            if let Some((_, slack)) = &flows {
                self.replay(id, p, key, slack);
            }
        }
        Cell {
            row,
            flows,
            eval_ms,
        }
    }

    /// Times the budgeting, slack, bounds, binding and area layers once on
    /// the cell's prepared artifacts and slack-flow result.
    fn replay(&mut self, id: u64, p: &DsePoint, key: u64, slack: &HlsResult) {
        let prep = &self.preps[&key];
        let lib = self.lib;
        let base = &self.base;
        let moves = self.tracer.span("layers", id, |tr| {
            let b = tr.span("budget", id, |_| {
                budget_with_choices(
                    prep.initial_tdfg(),
                    prep.base_choices(),
                    p.clock_ps,
                    &base.budget,
                    |_| None,
                )
            });
            tr.span("slack", id, |_| {
                black_box(compute_slack(
                    prep.initial_tdfg(),
                    &b.delays,
                    p.clock_ps as i64,
                    base.budget.mode,
                ))
            });
            tr.span("span.bounds", id, |_| {
                black_box(
                    prep.span_analysis()
                        .bounds_pinned(&p.design.dfg, prep.info(), |_| None)
                        .is_ok(),
                )
            });
            tr.span("bind", id, |_| {
                black_box(bind::bind_registers(
                    &p.design,
                    prep.info(),
                    &slack.schedule,
                    lib,
                ))
            });
            let mut schedule = slack.schedule.clone();
            tr.span("area", id, |_| {
                area::area_recovery(
                    &p.design,
                    prep.info(),
                    &mut schedule,
                    lib,
                    base.zero_overhead,
                );
                black_box(area::area_report(
                    &p.design,
                    &schedule,
                    &slack.regs,
                    lib,
                    base.zero_overhead,
                ))
            });
            b.moves as u64
        });
        self.acc.budget_moves += moves;
    }
}

/// Seeded stimuli for `design`: one value per primary input and a short
/// stream per read port, masked to the port width.
#[must_use]
pub fn stimulus(design: &Design, seed: u64, id: u64) -> Stimulus {
    let mut rng = Rng::new(seed, id);
    let mut stim = Stimulus::new();
    for o in design.inputs() {
        let op = design.dfg.op(o);
        let Some(name) = op.name() else { continue };
        let mask = if op.width() >= 64 {
            u64::MAX
        } else {
            (1u64 << op.width()) - 1
        };
        if op.kind() == OpKind::Read {
            let data = (0..8).map(|_| rng.next_u64() & mask).collect();
            stim = stim.stream(name, data);
        } else {
            stim = stim.input(name, rng.next_u64() & mask);
        }
    }
    stim
}

/// Whether both flows' schedules, replayed in the interpreter, reproduce
/// the unscheduled design's outputs on `stim`.
#[must_use]
pub fn replay_matches(design: &Design, stim: &Stimulus, flows: &(HlsResult, HlsResult)) -> bool {
    let Ok(reference) = interp::run(design, stim, MAX_CYCLES) else {
        return false;
    };
    [&flows.0, &flows.1].iter().all(|r| {
        interp::run_placed(design, stim, MAX_CYCLES, |o| {
            r.schedule.edge_of[o.0 as usize].unwrap_or_else(|| design.dfg.birth(o))
        })
        .is_ok_and(|t| t.outputs == reference.outputs)
    })
}

/// For the Table-4 IDCT: whether both flows' replayed schedules compute
/// `idct::golden_2d` of a seeded 8×8 block.
#[must_use]
pub fn idct_golden_matches(
    design: &Design,
    seed: u64,
    id: u64,
    flows: &(HlsResult, HlsResult),
) -> bool {
    use adhls_workloads::idct;
    let mut rng = Rng::new(seed ^ 0x1DC7, id);
    let input: [i64; 64] = std::array::from_fn(|_| rng.below(401) as i64 - 200);
    let mut stim = Stimulus::new();
    for (i, v) in input.iter().enumerate() {
        stim = stim.input(format!("in{i}"), *v as u64 & 0xFF_FFFF);
    }
    let golden = idct::golden_2d(&input);
    [&flows.0, &flows.1].iter().all(|r| {
        interp::run_placed(design, &stim, MAX_CYCLES, |o| {
            r.schedule.edge_of[o.0 as usize].unwrap_or_else(|| design.dfg.birth(o))
        })
        .is_ok_and(|t| {
            golden.iter().enumerate().all(|(i, exp)| {
                t.outputs.get(&format!("out{i}")) == Some(&vec![*exp as u64 & 0xFF_FFFF])
            })
        })
    })
}
