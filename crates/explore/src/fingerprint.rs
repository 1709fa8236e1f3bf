//! Stable structural fingerprints for memoization keys.
//!
//! Two designs that are structurally identical (same CFG shape, same
//! operations with the same kinds/widths/operands/birth edges) fingerprint
//! identically, so re-sweeping a grid that revisits a (design, options)
//! pair hits the [`crate::pool`] cache instead of re-running HLS. The
//! hash is FNV-1a over a canonical byte walk — stable across runs and
//! platforms, independent of allocation order or pointer identity.

use adhls_core::sched::HlsOptions;
use adhls_ir::{Design, NodeKind};

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

/// One item of a design's canonical walk: a number, a string, or a CFG
/// node kind.
#[derive(PartialEq)]
enum Token<'a> {
    Word(u64),
    Text(&'a str),
    Node(NodeKind),
}

/// Visits the canonical walk of a design's structure, in a fixed order:
/// the CFG name, node kinds in id order, edges as (from, to, branch,
/// back), then every live op's id, kind, width, signedness, name, birth
/// edge and operands. A constant's value is not part of it.
fn walk<'a>(design: &'a Design, mut visit: impl FnMut(Token<'a>)) {
    use Token::{Node, Text, Word};
    let (cfg, dfg) = (&design.cfg, &design.dfg);
    visit(Text(cfg.name()));
    visit(Word(cfg.len_nodes() as u64));
    for n in cfg.node_ids() {
        visit(Node(cfg.node_kind(n)));
    }
    visit(Word(cfg.len_edges() as u64));
    for e in cfg.edge_ids() {
        visit(Word(cfg.edge_from(e).0.into()));
        visit(Word(cfg.edge_to(e).0.into()));
        visit(Word(match cfg.edge_branch(e) {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        }));
        visit(Word(cfg.edge_is_back(e).into()));
    }
    visit(Word(dfg.len_ids() as u64));
    for o in dfg.op_ids() {
        let op = dfg.op(o);
        visit(Word(o.0.into()));
        visit(Text(op.kind().mnemonic()));
        visit(Word(op.width().into()));
        visit(Word(op.is_signed().into()));
        if let Some(name) = op.name() {
            visit(Text(name));
        }
        visit(Word(dfg.birth(o).0.into()));
        for &p in dfg.operands(o) {
            visit(Word(p.0.into()));
        }
    }
}

/// Fingerprints a design's structure: FNV-1a over its canonical walk,
/// numbers as 8 little-endian bytes and strings (node kinds by their
/// `Debug` rendering) with a length prefix. Designs that differ only in
/// constants share a fingerprint (no evaluation phase reads the value).
#[must_use]
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut h = Fnv::default();
    walk(design, |token| {
        match token {
            Token::Word(v) => h.u64(v),
            Token::Text(s) => h.str(s),
            Token::Node(k) => h.str(&format!("{k:?}")),
        };
    });
    h.digest()
}

/// Whether two designs are equal under the canonical walk
/// [`design_fingerprint`] hashes — what a hit on a fingerprint-indexed
/// cache must verify before it trusts the 64-bit index.
#[must_use]
pub fn same_structure(a: &Design, b: &Design) -> bool {
    let mut items = Vec::new();
    walk(a, |token| items.push(token));
    let mut expected = items.into_iter();
    let mut same = true;
    walk(b, |token| same &= expected.next() == Some(token));
    same && expected.next().is_none()
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
        assert!(same_structure(&mk(8), &mk(8)));
    }

    #[test]
    fn width_changes_the_fingerprint() {
        assert_ne!(design_fingerprint(&mk(8)), design_fingerprint(&mk(16)));
        assert!(!same_structure(&mk(8), &mk(16)));
    }

    #[test]
    fn the_walk_hashes_as_it_always_has() {
        // Routing and row keys hash this walk; a changed byte order would
        // move every served spec to another worker.
        let idct = adhls_workloads::idct::build_1d(4);
        assert_eq!(design_fingerprint(&idct), 0xe62e_ea9f_ad25_9535);
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
