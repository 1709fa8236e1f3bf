//! Per-workload sweep constructors for the exploration engine.
//!
//! Each constructor expands a workload family over its natural
//! clock × latency-budget (× pipelining) axes into a `DsePoint` fleet the
//! `adhls-explore` engine can fan across cores. The grids bake the latency
//! budget into the design (soft states), exactly like the hand-built paper
//! sweeps, and use the same point-naming scheme throughout
//! (`family-c<clock>-l<cycles>[-ii<n>]`) so exported rows are
//! self-describing.
//!
//! The default grids are sized so that every point schedules with the stock
//! TSMC-90 library — they are demo/bench fleets, not exhaustive searches;
//! pass custom axes for those.
//!
//! A design depends on its latency budget (and pipelining) but not on the
//! clock, so each constructor builds it once and shares it, through an
//! [`Arc`], across the clock axis.

use crate::{fir, idct, interpolation, matmul, random};
use adhls_core::dse::DsePoint;
use adhls_ir::Design;
use std::sync::Arc;

/// `clocks × designs` grid points, clock outermost, each design built once
/// by `build` and shared across the clocks. `designs` lists each design's
/// `(cycles, ii)` coordinates.
fn clock_grid(
    prefix: &str,
    clocks_ps: &[u64],
    designs: &[(u32, Option<u32>)],
    build: impl Fn(u32, Option<u32>) -> Design,
) -> Vec<DsePoint> {
    let built: Vec<Arc<Design>> = designs
        .iter()
        .map(|&(c, ii)| Arc::new(build(c, ii)))
        .collect();
    let mut pts = Vec::with_capacity(clocks_ps.len() * designs.len());
    for &clock in clocks_ps {
        for (&(c, ii), design) in designs.iter().zip(&built) {
            pts.push(DsePoint::grid(prefix, Arc::clone(design), clock, c, ii));
        }
    }
    pts
}

/// Interpolation-kernel fleet over `clocks × cycles` (sequential).
#[must_use]
pub fn interpolation_sweep(clocks_ps: &[u64], cycles: &[u32]) -> Vec<DsePoint> {
    let designs: Vec<(u32, Option<u32>)> = cycles.iter().map(|&c| (c, None)).collect();
    clock_grid("interp", clocks_ps, &designs, |c, _| {
        let cfg = interpolation::InterpolationConfig {
            cycles: c,
            ..Default::default()
        };
        interpolation::build(&cfg).0
    })
}

/// The default interpolation fleet: 12 feasible points around the paper's
/// 3-cycle/1100 ps design.
#[must_use]
pub fn interpolation_default() -> Vec<DsePoint> {
    interpolation_sweep(&[1100, 1400, 1800, 2400], &[3, 4, 6])
}

/// 8×8 IDCT fleet over `clocks × cycles × pipelining` — the Table 4
/// workload generalized to arbitrary grids.
#[must_use]
pub fn idct_sweep(clocks_ps: &[u64], cycles: &[u32], pipeline: &[Option<u32>]) -> Vec<DsePoint> {
    let designs: Vec<(u32, Option<u32>)> = cycles
        .iter()
        .flat_map(|&c| pipeline.iter().map(move |&ii| (c, ii)))
        .collect();
    clock_grid("idct", clocks_ps, &designs, |c, ii| {
        idct::build_2d(&idct::IdctConfig {
            cycles: c,
            pipelined: ii,
        })
    })
}

/// The paper's fixed 15-point Table 4 sweep as engine input (D1..D15
/// naming preserved).
#[must_use]
pub fn idct_table4() -> Vec<DsePoint> {
    idct::table4_points()
        .into_iter()
        .map(|(name, cfg, clock)| DsePoint {
            name,
            design: Arc::new(idct::build_2d(&cfg)),
            clock_ps: clock,
            pipeline_ii: cfg.pipelined,
            cycles_per_item: cfg.pipelined.unwrap_or(cfg.cycles),
        })
        .collect()
}

/// FIR fleet: tap counts × cycles at one clock (streaming workloads trade
/// taps against budget rather than clock).
#[must_use]
pub fn fir_sweep(clock_ps: u64, taps: &[usize], cycles: &[u32]) -> Vec<DsePoint> {
    let base = [3i64, -5, 11, 7, 2, -9, 6, 1];
    let mut pts = Vec::new();
    for &t in taps {
        assert!(
            t >= 1 && t <= base.len(),
            "tap count {t} outside 1..={}",
            base.len()
        );
        for &c in cycles {
            let cfg = fir::FirConfig {
                coeffs: base[..t].to_vec(),
                cycles: c,
                ..Default::default()
            };
            pts.push(DsePoint::grid(
                &format!("fir{t}"),
                fir::build(&cfg),
                clock_ps,
                c,
                None,
            ));
        }
    }
    pts
}

/// Matmul fleet over `clocks × cycles` at fixed dimension `n`.
#[must_use]
pub fn matmul_sweep(n: usize, clocks_ps: &[u64], cycles: &[u32]) -> Vec<DsePoint> {
    let designs: Vec<(u32, Option<u32>)> = cycles.iter().map(|&c| (c, None)).collect();
    clock_grid(&format!("mm{n}"), clocks_ps, &designs, |c, _| {
        matmul::build(&matmul::MatmulConfig {
            n,
            cycles: c,
            ..Default::default()
        })
    })
}

/// Random customer-design fleet (seeded, reproducible) as engine input.
#[must_use]
pub fn random_fleet(n: usize, base_seed: u64) -> Vec<DsePoint> {
    random::fleet(n, base_seed)
        .into_iter()
        .map(|(name, design, clock)| {
            // The random builder bakes its own budget; one item per run.
            let cycles = DsePoint::states_per_item(&design);
            DsePoint {
                name,
                design: Arc::new(design),
                clock_ps: clock,
                pipeline_ii: None,
                cycles_per_item: cycles,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_default_is_at_least_a_dozen_named_points() {
        let pts = interpolation_default();
        assert!(pts.len() >= 12);
        assert!(pts.iter().all(|p| p.name.starts_with("interp-c")));
        let mut names: Vec<&str> = pts.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pts.len(), "duplicate point names");
    }

    #[test]
    fn idct_table4_preserves_paper_names() {
        let pts = idct_table4();
        assert_eq!(pts.len(), 15);
        assert_eq!(pts[0].name, "D1");
        assert_eq!(pts[14].name, "D15");
    }

    #[test]
    fn idct_grid_covers_the_product() {
        let pts = idct_sweep(&[2200, 3000], &[16, 24], &[None, Some(8)]);
        assert_eq!(pts.len(), 8);
        assert_eq!(
            pts.iter().filter(|p| p.pipeline_ii.is_some()).count(),
            4,
            "half the grid is pipelined"
        );
    }

    #[test]
    fn fir_and_matmul_fleets_validate() {
        for p in fir_sweep(2200, &[2, 4], &[2, 3]) {
            assert!(p.design.validate().is_ok(), "{} invalid", p.name);
        }
        for p in matmul_sweep(2, &[2600], &[4, 6]) {
            assert!(p.design.validate().is_ok(), "{} invalid", p.name);
        }
    }

    #[test]
    fn random_fleet_points_have_positive_budgets() {
        let pts = random_fleet(5, 7);
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p.cycles_per_item >= 1));
    }
}
