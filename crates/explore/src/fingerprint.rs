//! Stable structural fingerprints for memoization keys.
//!
//! Two designs that are structurally identical (same CFG shape, same
//! operations with the same kinds/widths/operands/birth edges) fingerprint
//! identically, so re-sweeping a grid that revisits a (design, options)
//! pair hits the [`crate::pool`] cache instead of re-running HLS. The
//! hash is FNV-1a over a canonical byte walk — stable across runs and
//! platforms, independent of allocation order or pointer identity.

use adhls_core::sched::{Flow, HlsOptions};
use adhls_ir::Design;

/// 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Absorbs a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a string with a length prefix (prefix-collision safe).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Final digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Fingerprints a design's structure: CFG nodes/edges, every live
/// operation's kind, width, signedness, operands, and birth edge.
#[must_use]
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut h = Fnv::default();
    h.str(design.cfg.name());
    // CFG shape: node kinds in id order, edges as (from, to, branch, back).
    h.u64(design.cfg.len_nodes() as u64);
    for n in design.cfg.node_ids() {
        h.str(&format!("{:?}", design.cfg.node_kind(n)));
    }
    h.u64(design.cfg.len_edges() as u64);
    for e in design.cfg.edge_ids() {
        h.u64(u64::from(design.cfg.edge_from(e).0));
        h.u64(u64::from(design.cfg.edge_to(e).0));
        h.u64(match design.cfg.edge_branch(e) {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        h.u64(u64::from(design.cfg.edge_is_back(e)));
    }
    // DFG: ops in id order.
    h.u64(design.dfg.len_ids() as u64);
    for o in design.dfg.op_ids() {
        let op = design.dfg.op(o);
        h.u64(u64::from(o.0));
        h.str(op.kind().mnemonic());
        h.u64(u64::from(op.width()));
        h.u64(u64::from(op.is_signed()));
        if let Some(name) = op.name() {
            h.str(name);
        }
        h.u64(u64::from(design.dfg.birth(o).0));
        for &p in design.dfg.operands(o) {
            h.u64(u64::from(p.0));
        }
    }
    h.digest()
}

/// Fingerprints the HLS options that affect a point's result.
///
/// `HlsOptions` derives `Debug` over plain-data fields, so its debug
/// rendering is a canonical serialization; hashing it keeps this function
/// automatically in sync as options grow fields.
#[must_use]
pub fn options_fingerprint(opts: &HlsOptions) -> u64 {
    let mut h = Fnv::default();
    h.str(&format!("{opts:?}"));
    h.digest()
}

/// The options fingerprint with every knob the clock-independent prefix
/// survives normalized away: clock period, flow, and initiation interval.
/// Two option sets agreeing on this fingerprint may share every
/// [`adhls_core::PreparedDesign`] artifact.
///
/// This is the **soundness contract of the prefix cache key**, stated as a
/// function. The prefix cache in [`crate::pool`] keys on [`design_fingerprint`]
/// alone — legitimate precisely because preparation reads *no* options
/// today — but any future options-dependent artifact must widen the key by
/// exactly this fingerprint, never by [`options_fingerprint`] (which would
/// split the prefix per clock/flow/II cell and silently defeat the
/// sharing). `tests/proptest_fingerprint.rs` pins both directions:
/// insensitive to the knobs the prefix survives, sensitive to everything
/// else.
///
/// The evaluation mode ([`adhls_core::PointMode`]) is deliberately absent
/// on both sides of this split: preparation is mode-independent, so full,
/// recover, and auto evaluations of one design share a single prefix,
/// while their *rows* never alias because the mode is folded into the
/// per-point result cache key instead (`pool::point_key`).
#[must_use]
pub fn prefix_options_fingerprint(opts: &HlsOptions) -> u64 {
    let norm = HlsOptions {
        clock_ps: 0,
        flow: Flow::SlackBased,
        pipeline_ii: None,
        ..opts.clone()
    };
    options_fingerprint(&norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_core::sched::Flow;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::OpKind;

    fn mk(width: u16) -> Design {
        let mut b = DesignBuilder::new("fp");
        let x = b.input("x", width);
        let y = b.input("y", width);
        let m = b.binop(OpKind::Mul, x, y, width);
        b.soft_waits(1);
        b.write("z", m);
        b.finish().unwrap()
    }

    #[test]
    fn identical_structures_collide() {
        assert_eq!(design_fingerprint(&mk(8)), design_fingerprint(&mk(8)));
    }

    #[test]
    fn width_changes_the_fingerprint() {
        assert_ne!(design_fingerprint(&mk(8)), design_fingerprint(&mk(16)));
    }

    #[test]
    fn options_distinguish_clock_and_flow() {
        let base = HlsOptions::default();
        let fast = HlsOptions {
            clock_ps: 700,
            ..base.clone()
        };
        let conv = HlsOptions {
            flow: Flow::Conventional,
            ..base.clone()
        };
        assert_ne!(options_fingerprint(&base), options_fingerprint(&fast));
        assert_ne!(options_fingerprint(&base), options_fingerprint(&conv));
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&base.clone())
        );
    }
}
