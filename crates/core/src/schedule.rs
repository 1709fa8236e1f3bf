//! Schedule data structure and independent validity checking.
//!
//! A [`Schedule`] maps every live operation to a CFG edge (`sched: O → E`,
//! paper Definition 3), a start offset within its clock cycle, an effective
//! delay, and — for resource-backed operations — a bound instance.
//!
//! [`Schedule::validate`] re-derives every legality condition from scratch
//! (it shares no code with the scheduler), so property tests can use it as
//! an oracle: span containment, dependence timing with chaining, clock-edge
//! fit, multi-cycle alignment, and resource-conflict freedom.

use crate::alloc::{Allocation, InstId};
use adhls_ir::cfg::CfgInfo;
use adhls_ir::span::OpSpans;
use adhls_ir::{Design, EdgeId, Error, OpId, Result};
use adhls_timing::aligned::cycle_of;

/// A complete scheduling + binding result for one design.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Clock period (ps).
    pub clock_ps: u64,
    /// Scheduled edge per op id (`None` only for dead ids).
    pub edge_of: Vec<Option<EdgeId>>,
    /// Start offset within the operation's first cycle, `0 <= start < T`.
    pub start_ps: Vec<i64>,
    /// Effective delay per op id (instance delay + sharing overhead).
    pub delay_ps: Vec<i64>,
    /// Bound instance per op id (`None` for I/O, φs, constants).
    pub instance_of: Vec<Option<InstId>>,
    /// The allocation the schedule is bound to.
    pub allocation: Allocation,
}

impl Schedule {
    /// Scheduled edge of `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` was never scheduled (dead op).
    #[must_use]
    pub fn edge(&self, o: OpId) -> EdgeId {
        self.edge_of[o.0 as usize].expect("op not scheduled")
    }

    /// Number of cycles an operation occupies (1 for ordinary ops).
    #[must_use]
    pub fn cycles_of(&self, o: OpId) -> u32 {
        let d = self.delay_ps[o.0 as usize];
        let s = self.start_ps[o.0 as usize];
        if d == 0 {
            1
        } else {
            (cycle_of(s + d - 1, self.clock_ps as i64) + 1).max(1) as u32
        }
    }

    /// Checks every legality condition of the schedule.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`Error::MalformedDfg`] naming the first
    /// violated condition.
    pub fn validate(&self, design: &Design, info: &CfgInfo, spans: &OpSpans) -> Result<()> {
        let t = self.clock_ps as i64;
        let dfg = &design.dfg;

        for o in dfg.op_ids() {
            let e = self.edge_of[o.0 as usize]
                .ok_or_else(|| Error::MalformedDfg(format!("{o} has no scheduled edge")))?;
            // (1) span containment
            if !spans.span(o).contains(e) {
                return Err(Error::MalformedDfg(format!(
                    "{o} scheduled on {e}, outside its span {:?}",
                    spans.span(o).edges
                )));
            }
            let s = self.start_ps[o.0 as usize];
            let d = self.delay_ps[o.0 as usize];
            // (2) clock fit: single-cycle ops must fit; multi-cycle ops
            // start at the boundary.
            if d > t {
                if s != 0 {
                    return Err(Error::MalformedDfg(format!(
                        "multi-cycle {o} starts at {s}, not at a clock edge"
                    )));
                }
            } else if !(0..t).contains(&s) || s + d > t {
                return Err(Error::MalformedDfg(format!(
                    "{o} at [{s}, {}) does not fit the {t}ps cycle",
                    s + d
                )));
            }
            // (3) dependence timing with chaining across edges
            for p in dfg.forward_operands(o) {
                if dfg.op(p).kind().is_const() {
                    continue;
                }
                let pe = self.edge_of[p.0 as usize].ok_or_else(|| {
                    Error::MalformedDfg(format!("operand {p} of {o} unscheduled"))
                })?;
                let lat = info.latency(pe, e).ok_or_else(|| {
                    Error::MalformedDfg(format!("operand {p}@{pe} cannot reach {o}@{e}"))
                })?;
                let p_finish = self.start_ps[p.0 as usize] + self.delay_ps[p.0 as usize];
                // In o's local frame the operand is ready at:
                let ready = p_finish - t * i64::from(lat);
                if s < ready {
                    return Err(Error::MalformedDfg(format!(
                        "{o}@{e} starts at {s} before operand {p}@{pe} is ready at {ready}"
                    )));
                }
            }
        }

        // (4) resource conflicts: no two ops may occupy one instance in the
        // same clock cycle of any execution.
        let mut uses: Vec<(InstId, OpId)> = Vec::new();
        for o in dfg.op_ids() {
            if let Some(inst) = self.instance_of[o.0 as usize] {
                uses.push((inst, o));
            }
        }
        for (i, &(inst_a, a)) in uses.iter().enumerate() {
            for &(inst_b, b) in &uses[i + 1..] {
                if inst_a != inst_b {
                    continue;
                }
                if self.ops_conflict(info, a, b) {
                    return Err(Error::MalformedDfg(format!(
                        "{a} and {b} conflict on instance {inst_a}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether two instance uses can overlap in some execution cycle.
    #[must_use]
    pub fn ops_conflict(&self, info: &CfgInfo, a: OpId, b: OpId) -> bool {
        let (ea, eb) = (self.edge(a), self.edge(b));
        let ca = i64::from(self.cycles_of(a));
        let cb = i64::from(self.cycles_of(b));
        if ca == 1 && cb == 1 {
            return info.same_cycle(ea, eb);
        }
        // Multi-cycle: conservative interval overlap along the shortest
        // path, plus the same-cycle wraparound check.
        if info.same_cycle(ea, eb) {
            return true;
        }
        if let Some(dist) = info.latency(ea, eb) {
            // b occupies [dist, dist+cb) in a's frame; a occupies [0, ca).
            if i64::from(dist) < ca {
                return true;
            }
        }
        if let Some(dist) = info.latency(eb, ea) {
            if i64::from(dist) < cb {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;

    /// Hand-builds a schedule for x*x ; wait ; write and checks the
    /// validator accepts it and rejects perturbations.
    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let mut b = DesignBuilder::new("v");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.wait();
        let w = b.write("y", m);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();

        let mut alloc = Allocation::new();
        alloc.set_limit(adhls_reslib::ResClass::Multiplier, 1);
        let inst = alloc
            .create(
                adhls_reslib::Candidate {
                    class: adhls_reslib::ResClass::Multiplier,
                    grade: adhls_reslib::SpeedGrade::new(430, 878.0),
                },
                8,
            )
            .unwrap();

        let n = d.dfg.len_ids();
        let mut sch = Schedule {
            clock_ps: 1000,
            edge_of: vec![None; n],
            start_ps: vec![0; n],
            delay_ps: vec![0; n],
            instance_of: vec![None; n],
            allocation: alloc,
        };
        for o in d.dfg.op_ids() {
            sch.edge_of[o.0 as usize] = Some(d.dfg.birth(o));
        }
        sch.delay_ps[m.0 as usize] = 430;
        sch.instance_of[m.0 as usize] = Some(inst);
        sch.delay_ps[w.0 as usize] = 100;
        sch.validate(&d, &info, &spans).unwrap();

        // Break clock fit.
        let mut bad = sch.clone();
        bad.start_ps[m.0 as usize] = 700; // 700+430 > 1000
        assert!(bad.validate(&d, &info, &spans).is_err());

        // Break dependence order: write starts before mul's value arrives
        // only if scheduled on the same edge... move write's start below the
        // chained arrival by pretending latency 0 (same edge) — instead we
        // break span containment for m.
        let mut bad2 = sch;
        bad2.edge_of[m.0 as usize] = Some(d.dfg.birth(w));
        assert!(bad2.validate(&d, &info, &spans).is_err());
    }

    #[test]
    fn conflict_detection_same_cycle() {
        let mut b = DesignBuilder::new("c");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        b.write("y", m2);
        let d = b.finish().unwrap();
        let (info, spans) = d.analyze().unwrap();
        let _ = spans;
        let mut alloc = Allocation::new();
        alloc.set_limit(adhls_reslib::ResClass::Multiplier, 1);
        let inst = alloc
            .create(
                adhls_reslib::Candidate {
                    class: adhls_reslib::ResClass::Multiplier,
                    grade: adhls_reslib::SpeedGrade::new(430, 878.0),
                },
                8,
            )
            .unwrap();
        let n = d.dfg.len_ids();
        let mut sch = Schedule {
            clock_ps: 1000,
            edge_of: vec![None; n],
            start_ps: vec![0; n],
            delay_ps: vec![0; n],
            instance_of: vec![None; n],
            allocation: sch_alloc(alloc),
        };
        for o in d.dfg.op_ids() {
            sch.edge_of[o.0 as usize] = Some(d.dfg.birth(o));
        }
        // Chain both muls on the same instance in the same cycle: illegal.
        sch.delay_ps[m1.0 as usize] = 430;
        sch.start_ps[m2.0 as usize] = 430;
        sch.delay_ps[m2.0 as usize] = 430;
        sch.instance_of[m1.0 as usize] = Some(inst);
        sch.instance_of[m2.0 as usize] = Some(inst);
        assert!(sch.ops_conflict(&info, m1, m2));
    }

    fn sch_alloc(a: Allocation) -> Allocation {
        a
    }
}
