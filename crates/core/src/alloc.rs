//! Resource instances and allocation limits.
//!
//! Allocation (paper §II step 1) chooses the type and number of resources.
//! Following Fig. 8, the scheduler starts from a *minimal* set — per class,
//! `ceil(#ops / #available cycles)` instances — and the relaxation expert
//! adds instances when `Schedule_pass` fails for lack of resources.

use adhls_ir::{Design, OpId};
use adhls_reslib::{Candidate, ResClass};
use std::fmt;

/// One count per resource class, indexed by [`ResClass::index`].
pub type PerClass = [usize; ResClass::ALL.len()];

/// Identifier of a resource instance within an [`Allocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// One allocated datapath resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Implementation (class + grade) of this instance.
    pub candidate: Candidate,
    /// Bit width of the instance (operations of smaller width may share it).
    pub width: u16,
}

impl Instance {
    /// Class of the instance.
    #[must_use]
    pub fn class(&self) -> ResClass {
        self.candidate.class
    }

    /// Pin-to-pin delay (ps).
    #[must_use]
    pub fn delay_ps(&self) -> u64 {
        self.candidate.grade.delay_ps
    }

    /// Cell area.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.candidate.grade.area
    }
}

/// The set of allocated instances plus per-class growth limits.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    instances: Vec<Instance>,
    limits: PerClass,
    /// Instances per class, kept with `instances` so the limit check does
    /// not scan them.
    counts: PerClass,
}

impl Allocation {
    /// Creates an empty allocation (no instances, no limits).
    #[must_use]
    pub fn new() -> Self {
        Allocation::default()
    }

    /// The minimal initial limits of paper Fig. 8 step 1: per class,
    /// `ceil(#resource-backed ops of the class / #available cycles)`.
    ///
    /// `cycles` is the number of states available to one iteration (≥ 1);
    /// classes without resource-backed ops get limit 0.
    #[must_use]
    pub fn initial_limits(design: &Design, cycles: usize) -> PerClass {
        let cycles = cycles.max(1);
        let mut per_class = PerClass::default();
        for o in design.dfg.op_ids() {
            let classes = adhls_reslib::class::classes_for(design.dfg.op(o).kind());
            if let Some(&preferred) = classes.first() {
                per_class[preferred.index()] += 1;
            }
        }
        // 25% headroom over the perfect-packing bound: chaining and span
        // constraints make exact bin-packing unreachable, and relaxation
        // restarts are costlier than a slightly generous start.
        per_class.map(|n| {
            if n == 0 {
                0
            } else {
                (n + n / 4).div_ceil(cycles).max(1)
            }
        })
    }

    /// Empties the allocation and sets every class's limit, keeping its
    /// buffer.
    pub(crate) fn reset(&mut self, limits: &PerClass) {
        self.instances.clear();
        self.limits = *limits;
        self.counts = PerClass::default();
    }

    /// Sets the growth limit for a class.
    pub fn set_limit(&mut self, class: ResClass, limit: usize) {
        self.limits[class.index()] = limit;
    }

    /// Current limit for a class (0 when never set).
    #[must_use]
    pub fn limit(&self, class: ResClass) -> usize {
        self.limits[class.index()]
    }

    /// Raises the limit for a class by one (the relaxation "add resource"
    /// move) and returns the new limit.
    pub fn relax(&mut self, class: ResClass) -> usize {
        self.limits[class.index()] += 1;
        self.limits[class.index()]
    }

    /// Number of instances of a class currently allocated.
    #[must_use]
    pub fn count(&self, class: ResClass) -> usize {
        self.counts[class.index()]
    }

    /// Whether another instance of `class` may be created.
    #[must_use]
    pub fn can_grow(&self, class: ResClass) -> bool {
        self.count(class) < self.limit(class)
    }

    /// Creates an instance (checking the class limit).
    ///
    /// Returns `None` when the class is at its limit.
    pub fn create(&mut self, candidate: Candidate, width: u16) -> Option<InstId> {
        if !self.can_grow(candidate.class) {
            return None;
        }
        Some(self.create_unchecked(candidate, width))
    }

    /// Creates an instance ignoring limits (used by tests and by relaxation
    /// after raising the limit).
    pub fn create_unchecked(&mut self, candidate: Candidate, width: u16) -> InstId {
        let id = InstId(self.instances.len() as u32);
        self.instances.push(Instance { candidate, width });
        self.counts[candidate.class.index()] += 1;
        id
    }

    /// The instance with the given id.
    #[must_use]
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Retunes an instance's grade in place (area recovery); its class
    /// stays.
    pub fn set_grade(&mut self, id: InstId, grade: adhls_reslib::SpeedGrade) {
        self.instances[id.0 as usize].candidate.grade = grade;
    }

    /// All instances in id order.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Iterator over `(id, instance)`.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId(i as u32), inst))
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instances exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Sum of instance areas (functional units only).
    #[must_use]
    pub fn fu_area(&self) -> f64 {
        self.instances.iter().map(Instance::area).sum()
    }
}

/// A record of which operation runs on which instance (filled by the
/// scheduler, consumed by binding/area/netlist).
pub type Binding = Vec<Option<(InstId, OpId)>>;

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::{tsmc90, SpeedGrade};

    fn cand() -> Candidate {
        Candidate {
            class: ResClass::Multiplier,
            grade: SpeedGrade::new(430, 878.0),
        }
    }

    #[test]
    fn limits_gate_creation() {
        let mut a = Allocation::new();
        assert_eq!(a.create(cand(), 8), None);
        a.set_limit(ResClass::Multiplier, 1);
        assert!(a.create(cand(), 8).is_some());
        assert_eq!(a.create(cand(), 8), None, "limit reached");
        a.relax(ResClass::Multiplier);
        assert!(a.create(cand(), 8).is_some());
        assert_eq!(a.count(ResClass::Multiplier), 2);
    }

    #[test]
    fn initial_limits_match_paper_interpolation() {
        // 7 muls + 4 adds in 3 cycles -> 3 multipliers, 2 adders (paper §II.B).
        let mut b = DesignBuilder::new("interp");
        let x0 = b.input("x0", 8);
        let mut ops = Vec::new();
        for _ in 0..7 {
            ops.push(b.binop(OpKind::Mul, x0, x0, 8));
        }
        for _ in 0..4 {
            ops.push(b.binop(OpKind::Add, x0, x0, 8));
        }
        b.soft_waits(2);
        b.write("y", *ops.last().unwrap());
        b.wait();
        let d = b.finish().unwrap();
        let limits = Allocation::initial_limits(&d, 3);
        assert_eq!(limits[ResClass::Multiplier.index()], 3);
        assert_eq!(limits[ResClass::Adder.index()], 2);
        assert_eq!(limits[ResClass::Divider.index()], 0);
        let _ = tsmc90::library();
    }

    #[test]
    fn fu_area_sums() {
        let mut a = Allocation::new();
        a.set_limit(ResClass::Multiplier, 2);
        a.create(cand(), 8).unwrap();
        a.create(cand(), 8).unwrap();
        assert_eq!(a.fu_area(), 2.0 * 878.0);
    }
}
