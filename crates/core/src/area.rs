//! Structural area model and post-binding area recovery.
//!
//! Area = functional units + registers + steering muxes — the quantities a
//! downstream logic synthesis run would see structurally. The recovery pass
//! is the RTL-style *single-state* downsizing the paper describes in §II:
//! each instance may slow down by the minimum combinational slack of the
//! operations bound to it, **within its own clock cycle only** — precisely
//! the limitation that slack-based budgeting overcomes by distributing
//! slack across states.
//!
//! Recovery uses the library's piecewise-linear (continuous) curves, as
//! logic synthesis would; the paper's Table 2 area values (e.g. adder 2
//! recovered to 621 ps / 221 units) come from the same interpolation.

use crate::bind::{fu_mux_inputs, RegReport};
use crate::schedule::Schedule;
use adhls_ir::cfg::CfgInfo;
use adhls_ir::Design;
use adhls_reslib::{Library, SpeedGrade};

/// Structural area breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Functional-unit area (allocated instances at their final grades).
    pub fu: f64,
    /// Register area.
    pub regs: f64,
    /// Steering-mux area (FU operand ports + shared registers).
    pub mux: f64,
    /// Total.
    pub total: f64,
}

/// Computes the report. With `zero_overhead` (the paper's Fig. 2
/// illustration mode) registers and muxes are costed at zero.
#[must_use]
pub fn area_report(
    design: &Design,
    schedule: &Schedule,
    regs: &RegReport,
    lib: &Library,
    zero_overhead: bool,
) -> AreaReport {
    let fu = schedule.allocation.fu_area();
    let (r, m) = if zero_overhead {
        (0.0, 0.0)
    } else {
        let fu_legs = fu_mux_inputs(design, schedule);
        // Approximate mux width by each instance's width: recompute per
        // instance for fidelity.
        let mut mux_area = 0.0;
        let legs_total = fu_legs + regs.extra_mux_inputs;
        // Use the average instance width for mux sizing; exact per-port
        // widths differ by a few bits at most.
        let avg_w = if schedule.allocation.is_empty() {
            16.0
        } else {
            schedule
                .allocation
                .instances()
                .iter()
                .map(|i| f64::from(i.width))
                .sum::<f64>()
                / schedule.allocation.len() as f64
        };
        mux_area += legs_total as f64 * avg_w * lib.mux_area_per_bit();
        (regs.reg_area, mux_area)
    };
    AreaReport {
        fu,
        regs: r,
        mux: m,
        total: fu + r + m,
    }
}

/// Post-binding area recovery (paper Fig. 8 step 3, RTL-synthesis style).
///
/// For every instance, computes the minimum combinational slack of its
/// bound operations *within their clock cycles* — each operation may finish
/// no later than the earliest same-cycle consumer start (chained consumers
/// do not move) and never past the clock edge — then slows the instance to
/// the interpolated grade absorbing that slack. Updates the schedule's
/// per-op delays in place; starts are unchanged, so the schedule remains
/// valid (checked by the caller).
pub fn area_recovery(
    design: &Design,
    info: &CfgInfo,
    schedule: &mut Schedule,
    lib: &Library,
    zero_overhead: bool,
) {
    let t = schedule.clock_ps as i64;
    let dfg = &design.dfg;
    let penalty = if zero_overhead {
        0
    } else {
        lib.mux_share_delay_ps() as i64
    };

    let n_inst = schedule.allocation.len();
    let mut extra = vec![i64::MAX; n_inst];
    for o in dfg.op_ids() {
        let oi = o.0 as usize;
        let Some(inst) = schedule.instance_of[oi] else {
            continue;
        };
        let eo = schedule.edge(o);
        let finish = schedule.start_ps[oi] + schedule.delay_ps[oi];
        // Clock-edge bound (multi-cycle ops may fill their cycles).
        let mut allowed = t * i64::from(schedule.cycles_of(o));
        // Same-cycle chained consumers pin their start times.
        for (u, idx) in dfg.users(o).iter().copied() {
            if dfg.is_loop_carried(u, idx) {
                continue;
            }
            let ui = u.0 as usize;
            let eu = schedule.edge(u);
            if let Some(lat) = info.latency(eo, eu) {
                let bound = schedule.start_ps[ui] + t * i64::from(lat);
                allowed = allowed.min(bound);
            }
        }
        let slack = allowed - finish;
        let e = &mut extra[inst.0 as usize];
        *e = (*e).min(slack);
    }

    for (idx, room) in extra.iter().enumerate() {
        if *room == i64::MAX || *room <= 0 {
            continue;
        }
        let inst_id = crate::alloc::InstId(idx as u32);
        let (class, width, old_delay, old_area) = {
            let inst = schedule.allocation.instance(inst_id);
            (
                inst.class(),
                inst.width,
                inst.delay_ps() as i64,
                inst.area(),
            )
        };
        let Some(grades) = lib.grades(class, width) else {
            continue;
        };
        let slowest = grades.last().map_or(old_delay, |g| g.delay_ps as i64);
        let target = (old_delay + room).min(slowest);
        if target <= old_delay {
            continue;
        }
        let Some(new_area) = lib.area_at(class, width, target as u64) else {
            continue;
        };
        if new_area >= old_area {
            continue;
        }
        // Apply: instance gets the interpolated slower grade; bound ops'
        // effective delays stretch by the same amount.
        let delta = target - old_delay;
        schedule
            .allocation
            .set_grade(inst_id, SpeedGrade::new(target as u64, new_area));
        for o in dfg.op_ids() {
            if schedule.instance_of[o.0 as usize] == Some(inst_id) {
                schedule.delay_ps[o.0 as usize] += delta;
            }
        }
        let _ = penalty;
    }
}

#[cfg(test)]
mod tests {
    use crate::sched::{run_hls, Flow, HlsOptions};
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::tsmc90;

    #[test]
    fn recovery_downsizes_uncritical_instance() {
        // One mul alone in a 1100ps cycle (write in the following state):
        // the conventional flow starts it at 430ps/878au; recovery should
        // slow it toward 610ps/510au.
        let mut b = DesignBuilder::new("rec");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.wait();
        b.write("y", m);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let no_rec = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::Conventional,
                area_recovery: false,
                ..Default::default()
            },
        )
        .unwrap();
        let with_rec = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::Conventional,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with_rec.area.fu < no_rec.area.fu);
        let inst = &with_rec.schedule.allocation.instances()[0];
        assert_eq!(inst.delay_ps(), 610, "plenty of slack: slowest grade");
        assert_eq!(inst.area(), 510.0);
    }

    #[test]
    fn recovery_respects_chained_consumers() {
        // mul chained into a write in the same cycle: recovery may only
        // slow the mul up to the write's start.
        let mut b = DesignBuilder::new("chain");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.write("y", m); // same cycle, chained
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let r = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 700,
                flow: Flow::Conventional,
                ..Default::default()
            },
        )
        .unwrap();
        let (info, _) = d.analyze().unwrap();
        let spans = adhls_ir::span::OpSpans::compute(&d.dfg, &info).unwrap();
        r.schedule.validate(&d, &info, &spans).unwrap();
        // The write starts at mul finish; io takes 100ps; clock 700 ->
        // mul may stretch to at most 600-ish, not 610... it must still
        // satisfy write.start >= mul finish.
        let w = d.outputs()[0];
        let finish = r.schedule.start_ps[m.0 as usize] + r.schedule.delay_ps[m.0 as usize];
        assert!(finish <= r.schedule.start_ps[w.0 as usize]);
    }

    #[test]
    fn zero_overhead_zeroes_reg_and_mux() {
        let mut b = DesignBuilder::new("zo");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.wait();
        b.write("y", m);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let r = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::SlackBased,
                zero_overhead: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.area.regs, 0.0);
        assert_eq!(r.area.mux, 0.0);
        assert_eq!(r.area.total, r.area.fu);
    }
}
