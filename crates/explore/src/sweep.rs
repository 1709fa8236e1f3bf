//! Sweep generators: expand a workload over clock × budget × pipelining
//! grids into [`DsePoint`] fleets.
//!
//! A [`SweepGrid`] is the cartesian product of three axes; [`expand`]
//! instantiates the workload once per cell via a caller-supplied builder
//! (which typically bakes the latency budget into the design as soft
//! states, the way `adhls_workloads` constructors do). Point names encode
//! the cell (`prefix-c<clock>-l<cycles>[-ii<n>]`) so rows stay
//! self-describing through export and reporting.
//!
//! [`expand`]: SweepGrid::expand

use adhls_core::dse::DsePoint;
use adhls_ir::{Design, Error, Result};

/// One cell of the sweep grid, handed to the design builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepCell {
    /// Clock period in picoseconds.
    pub clock_ps: u64,
    /// Latency budget in cycles.
    pub cycles: u32,
    /// Pipeline initiation interval (`None` = sequential).
    pub pipeline_ii: Option<u32>,
}

/// A clock × cycles × pipelining grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    clocks_ps: Vec<u64>,
    cycles: Vec<u32>,
    pipeline: Vec<Option<u32>>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::new()
    }
}

impl SweepGrid {
    /// An empty grid (sequential-only until axes are set).
    #[must_use]
    pub fn new() -> Self {
        SweepGrid {
            clocks_ps: Vec::new(),
            cycles: Vec::new(),
            pipeline: vec![None],
        }
    }

    /// Sets the clock axis.
    #[must_use]
    pub fn clocks_ps(mut self, clocks: impl IntoIterator<Item = u64>) -> Self {
        self.clocks_ps = clocks.into_iter().collect();
        self
    }

    /// Sets the latency-budget axis.
    #[must_use]
    pub fn cycles(mut self, cycles: impl IntoIterator<Item = u32>) -> Self {
        self.cycles = cycles.into_iter().collect();
        self
    }

    /// Sets the pipelining axis (`None` = sequential, `Some(ii)` =
    /// pipelined at that initiation interval).
    #[must_use]
    pub fn pipeline_modes(mut self, modes: impl IntoIterator<Item = Option<u32>>) -> Self {
        self.pipeline = modes.into_iter().collect();
        self
    }

    /// The clock axis, as set.
    #[must_use]
    pub fn clock_axis(&self) -> &[u64] {
        &self.clocks_ps
    }

    /// The latency-budget axis, as set.
    #[must_use]
    pub fn cycles_axis(&self) -> &[u32] {
        &self.cycles
    }

    /// The pipelining axis, as set.
    #[must_use]
    pub fn pipeline_axis(&self) -> &[Option<u32>] {
        &self.pipeline
    }

    /// Number of grid cells, or `None` when the product overflows `usize`
    /// (three multi-million-element axes): such a grid cannot be
    /// materialized, and a wrapped count would silently claim it is tiny.
    #[must_use]
    pub fn checked_len(&self) -> Option<usize> {
        self.clocks_ps
            .len()
            .checked_mul(self.cycles.len())?
            .checked_mul(self.pipeline.len())
    }

    /// Number of grid cells, saturating at `usize::MAX` when the true count
    /// overflows (use [`SweepGrid::checked_len`] to detect that case; the
    /// old wrapping multiply reported a bogus small count instead).
    #[must_use]
    pub fn len(&self) -> usize {
        self.checked_len().unwrap_or(usize::MAX)
    }

    /// True when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clocks_ps.is_empty() || self.cycles.is_empty() || self.pipeline.is_empty()
    }

    /// All cells in deterministic (clock-major, then cycles, then
    /// pipelining) order. Only call on grids whose
    /// [`checked_len`](SweepGrid::checked_len) is `Some` — [`expand`]
    /// guards this for you.
    ///
    /// [`expand`]: SweepGrid::expand
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::with_capacity(self.checked_len().unwrap_or(0));
        for &clock_ps in &self.clocks_ps {
            for &cycles in &self.cycles {
                for &pipeline_ii in &self.pipeline {
                    out.push(SweepCell {
                        clock_ps,
                        cycles,
                        pipeline_ii,
                    });
                }
            }
        }
        out
    }

    /// Expands the grid into design points, building the workload once per
    /// cell.
    ///
    /// `cycles_per_item` is the initiation interval for pipelined cells and
    /// the latency budget otherwise (the same convention as the paper's
    /// Table 4 sweep).
    ///
    /// # Errors
    ///
    /// [`Error::Capacity`] when the cell count overflows `usize` — the grid
    /// could never be materialized, and the old wrapping count silently
    /// expanded the wrong (tiny) number of cells.
    pub fn expand<F>(&self, prefix: &str, mut build: F) -> Result<Vec<DsePoint>>
    where
        F: FnMut(&SweepCell) -> Design,
    {
        if self.checked_len().is_none() {
            return Err(Error::Capacity(format!(
                "sweep grid {} x {} x {} cells overflows the machine's address space",
                self.clocks_ps.len(),
                self.cycles.len(),
                self.pipeline.len()
            )));
        }
        Ok(self
            .cells()
            .iter()
            .map(|cell| {
                DsePoint::grid(
                    prefix,
                    build(cell),
                    cell.clock_ps,
                    cell.cycles,
                    cell.pipeline_ii,
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::OpKind;

    fn tiny(cycles: u32) -> Design {
        let mut b = DesignBuilder::new("tiny");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.soft_waits(cycles.saturating_sub(1));
        b.write("z", m);
        b.finish().unwrap()
    }

    #[test]
    fn grid_is_the_full_cartesian_product() {
        let g = SweepGrid::new()
            .clocks_ps([1000, 2000])
            .cycles([2, 3, 4])
            .pipeline_modes([None, Some(1)]);
        assert_eq!(g.len(), 12);
        let pts = g.expand("t", |cell| tiny(cell.cycles)).unwrap();
        assert_eq!(pts.len(), 12);
        // Deterministic, self-describing names; no duplicates.
        let mut names: Vec<&str> = pts.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"t-c1000-l2"));
        assert!(names.contains(&"t-c2000-l4-ii1"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn cycles_per_item_follows_pipelining() {
        let g = SweepGrid::new()
            .clocks_ps([1000])
            .cycles([4])
            .pipeline_modes([None, Some(2)]);
        let pts = g.expand("t", |cell| tiny(cell.cycles)).unwrap();
        assert_eq!(pts[0].cycles_per_item, 4);
        assert_eq!(pts[1].cycles_per_item, 2);
    }

    #[test]
    fn empty_axis_means_empty_expansion() {
        let g = SweepGrid::new().cycles([2, 3]);
        assert!(g.is_empty());
        assert!(g.expand("t", |cell| tiny(cell.cycles)).unwrap().is_empty());
    }

    #[test]
    fn len_saturates_and_expand_errors_on_overflow() {
        // Three 2^22-element axes make a 2^66-cell grid: the old wrapping
        // multiply reported a bogus small count in release and panicked in
        // debug. ~80 MiB of axis storage buys the regression coverage.
        let n = 1usize << 22;
        let g = SweepGrid::new()
            .clocks_ps(vec![1000u64; n])
            .cycles(vec![4u32; n])
            .pipeline_modes(vec![None; n]);
        assert_eq!(g.checked_len(), None, "2^66 cells must not wrap");
        assert_eq!(g.len(), usize::MAX, "len saturates instead of wrapping");
        assert!(!g.is_empty());
        let err = g.expand("t", |cell| tiny(cell.cycles)).unwrap_err();
        assert!(
            err.to_string().contains("capacity error"),
            "expected a capacity error, got: {err}"
        );
    }
}
