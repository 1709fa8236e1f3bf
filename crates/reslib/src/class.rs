//! Resource classes and operation compatibility.

use adhls_ir::OpKind;
use std::fmt;

/// A class of datapath resources. One class has one grade curve per width
/// (see [`crate::Family`]); allocation instantiates *instances* of a class
/// at a chosen width and grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ResClass {
    /// Plain adder.
    Adder,
    /// Combined adder/subtractor (slightly bigger than an adder, can also
    /// implement `sub`/`neg` — the paper's §II.A example of a type choice).
    AddSub,
    /// Plain subtractor.
    Subtractor,
    /// Multiplier.
    Multiplier,
    /// Divider (also computes remainders).
    Divider,
    /// Magnitude/equality comparator.
    Comparator,
    /// Bitwise logic unit (and/or/xor/not).
    Logic,
    /// Barrel shifter.
    Shifter,
    /// 2:1 word multiplexer (for `mux` join operations).
    Mux,
}

impl ResClass {
    /// All classes, for iteration.
    pub const ALL: [ResClass; 9] = [
        ResClass::Adder,
        ResClass::AddSub,
        ResClass::Subtractor,
        ResClass::Multiplier,
        ResClass::Divider,
        ResClass::Comparator,
        ResClass::Logic,
        ResClass::Shifter,
        ResClass::Mux,
    ];

    /// Position of the class in [`ResClass::ALL`], for tables indexed by
    /// class.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name (stable; used by the text format and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ResClass::Adder => "adder",
            ResClass::AddSub => "addsub",
            ResClass::Subtractor => "subtractor",
            ResClass::Multiplier => "multiplier",
            ResClass::Divider => "divider",
            ResClass::Comparator => "comparator",
            ResClass::Logic => "logic",
            ResClass::Shifter => "shifter",
            ResClass::Mux => "mux",
        }
    }

    /// Parses a class from its [`ResClass::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<ResClass> {
        ResClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for ResClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource classes able to implement an operation kind, in preference
/// order (most specific first). Empty for kinds that need no datapath
/// resource (constants, inputs, φs, I/O).
#[must_use]
pub fn classes_for(kind: OpKind) -> &'static [ResClass] {
    match kind {
        OpKind::Add => &[ResClass::Adder, ResClass::AddSub],
        OpKind::Sub => &[ResClass::Subtractor, ResClass::AddSub],
        OpKind::Neg => &[ResClass::Subtractor, ResClass::AddSub],
        OpKind::Mul => &[ResClass::Multiplier],
        OpKind::Div | OpKind::Rem => &[ResClass::Divider],
        OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Eq | OpKind::Ne => {
            &[ResClass::Comparator]
        }
        OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => &[ResClass::Logic],
        OpKind::Shl | OpKind::Shr => &[ResClass::Shifter],
        OpKind::Mux => &[ResClass::Mux],
        OpKind::LoopPhi | OpKind::Const(_) | OpKind::Input | OpKind::Read | OpKind::Write => &[],
        // `OpKind` is non-exhaustive: future kinds default to "no resource"
        // so additions fail loudly in allocation rather than silently here.
        _ => &[],
    }
}

/// True when two operation kinds may share one instance of `class`
/// (e.g. `add` and `sub` on an [`ResClass::AddSub`]).
#[must_use]
pub fn kind_supported_by(kind: OpKind, class: ResClass) -> bool {
    classes_for(kind).contains(&class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_prefers_plain_adder() {
        assert_eq!(classes_for(OpKind::Add)[0], ResClass::Adder);
        assert!(kind_supported_by(OpKind::Add, ResClass::AddSub));
        assert!(!kind_supported_by(OpKind::Add, ResClass::Multiplier));
    }

    #[test]
    fn addsub_shares_add_and_sub() {
        assert!(kind_supported_by(OpKind::Add, ResClass::AddSub));
        assert!(kind_supported_by(OpKind::Sub, ResClass::AddSub));
        assert!(kind_supported_by(OpKind::Neg, ResClass::AddSub));
    }

    #[test]
    fn io_needs_no_resource() {
        assert!(classes_for(OpKind::Read).is_empty());
        assert!(classes_for(OpKind::Write).is_empty());
        assert!(classes_for(OpKind::Const(3)).is_empty());
        assert!(classes_for(OpKind::LoopPhi).is_empty());
    }

    #[test]
    fn name_roundtrip() {
        for c in ResClass::ALL {
            assert_eq!(ResClass::from_name(c.name()), Some(c));
        }
        assert_eq!(ResClass::from_name("bogus"), None);
    }
}
