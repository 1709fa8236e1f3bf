//! Operation kinds and per-operation metadata.
//!
//! A DFG vertex carries an [`Op`]: its [`OpKind`], result width and
//! signedness. The kind determines which resource classes may implement the
//! operation (see `adhls-reslib`), whether the operation is *fixed* to its
//! birth edge (I/O, per the paper's protocol argument), and how the
//! interpreter evaluates it.

use std::fmt;

/// The kind of a DFG operation.
///
/// Kinds are deliberately close to the paper's examples: arithmetic,
/// comparison, the `mux` operation used for conditional joins (a φ realized
/// as a datapath multiplexer), and fixed I/O reads/writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum OpKind {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (trapping; never speculated by transforms that would
    /// introduce new traps — the scheduler may still hoist it, matching the
    /// paper's resizer example where `div` is hoisted above its branch).
    Div,
    /// Integer remainder.
    Rem,
    /// Arithmetic negation.
    Neg,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Left shift.
    Shl,
    /// Right shift (arithmetic when the op is signed).
    Shr,
    /// Less-than comparison (1-bit result).
    Lt,
    /// Less-or-equal comparison (1-bit result).
    Le,
    /// Greater-than comparison (1-bit result).
    Gt,
    /// Greater-or-equal comparison (1-bit result).
    Ge,
    /// Equality comparison (1-bit result).
    Eq,
    /// Inequality comparison (1-bit result).
    Ne,
    /// Two-way selection `mux(cond, if_true, if_false)`; inserted at
    /// conditional joins by the elaborator (paper Fig. 4's `mux`).
    Mux,
    /// φ at a loop header: `phi(init, carried)`. The second operand arrives
    /// over a *loop-carried* DFG edge. Realized as a state register, so it is
    /// a zero-delay source for timing purposes.
    LoopPhi,
    /// Constant literal. Stripped from the timed DFG (paper Def. 2 step 2).
    Const(i64),
    /// Design input (a registered primary input or an argument). A timing
    /// source with zero delay.
    Input,
    /// Blocking read from a named input port. Fixed to its birth edge.
    Read,
    /// Blocking write to a named output port. Fixed to its birth edge.
    Write,
}

impl OpKind {
    /// Number of data operands the kind expects, or `None` when variadic
    /// (none currently are).
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            OpKind::Const(_) | OpKind::Input | OpKind::Read => 0,
            OpKind::Neg | OpKind::Not | OpKind::Write => 1,
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Rem
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor
            | OpKind::Shl
            | OpKind::Shr
            | OpKind::Lt
            | OpKind::Le
            | OpKind::Gt
            | OpKind::Ge
            | OpKind::Eq
            | OpKind::Ne
            | OpKind::LoopPhi => 2,
            OpKind::Mux => 3,
        }
    }

    /// True for operations pinned to their birth edge (paper §IV: I/O
    /// operations implement the communication protocol and cannot move).
    #[must_use]
    pub fn is_fixed(self) -> bool {
        matches!(self, OpKind::Read | OpKind::Write)
    }

    /// True for operations that act as timing sources (arrival time 0 at
    /// their scheduled edge, zero intrinsic delay): constants, inputs and
    /// loop-header φs (which are state registers).
    #[must_use]
    pub fn is_source_like(self) -> bool {
        matches!(self, OpKind::Const(_) | OpKind::Input | OpKind::LoopPhi)
    }

    /// True for constants (removed from the timed DFG).
    #[must_use]
    pub fn is_const(self) -> bool {
        matches!(self, OpKind::Const(_))
    }

    /// True when the operation produces a 1-bit result regardless of operand
    /// widths.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Eq | OpKind::Ne
        )
    }

    /// True when evaluating the operation can trap (division by zero); such
    /// operations are never *sunk* out of their guarding branch by
    /// transforms.
    #[must_use]
    pub fn can_trap(self) -> bool {
        matches!(self, OpKind::Div | OpKind::Rem)
    }

    /// Short mnemonic used in reports and design fingerprints.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Rem => "rem",
            OpKind::Neg => "neg",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::Lt => "lt",
            OpKind::Le => "le",
            OpKind::Gt => "gt",
            OpKind::Ge => "ge",
            OpKind::Eq => "eq",
            OpKind::Ne => "ne",
            OpKind::Mux => "mux",
            OpKind::LoopPhi => "phi",
            OpKind::Const(_) => "const",
            OpKind::Input => "input",
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Const(v) => write!(f, "const({v})"),
            k => f.write_str(k.mnemonic()),
        }
    }
}

/// A DFG operation: kind plus result width/signedness and an optional
/// user-facing name (port name for I/O, variable name for named values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    kind: OpKind,
    width: u16,
    signed: bool,
    name: Option<String>,
}

impl Op {
    /// Creates an operation with the given result width (bits), unsigned.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64 (the interpreter models
    /// values as masked 64-bit integers).
    #[must_use]
    pub fn new(kind: OpKind, width: u16) -> Self {
        assert!(
            (1..=64).contains(&width),
            "op width must be in 1..=64, got {width}"
        );
        Op {
            kind,
            width,
            signed: false,
            name: None,
        }
    }

    /// Marks the operation as producing/consuming signed values.
    #[must_use]
    pub fn signed(mut self) -> Self {
        self.signed = true;
        self
    }

    /// Attaches a user-facing name (port or variable name).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The operation kind.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Result width in bits (1 for comparisons).
    #[must_use]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Whether values are interpreted as two's-complement signed.
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// User-facing name, if any.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}{}",
            self.kind,
            if self.signed { "i" } else { "u" },
            self.width
        )?;
        if let Some(n) = &self.name {
            write!(f, "({n})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(OpKind::Mux.arity(), 3);
        assert_eq!(OpKind::Neg.arity(), 1);
        assert_eq!(OpKind::Read.arity(), 0);
        assert_eq!(OpKind::Write.arity(), 1);
        assert_eq!(OpKind::Const(5).arity(), 0);
    }

    #[test]
    fn io_is_fixed_everything_else_is_not() {
        assert!(OpKind::Read.is_fixed());
        assert!(OpKind::Write.is_fixed());
        assert!(!OpKind::Add.is_fixed());
        assert!(!OpKind::Mux.is_fixed());
        assert!(!OpKind::LoopPhi.is_fixed());
    }

    #[test]
    fn comparisons_are_flagged() {
        for k in [
            OpKind::Lt,
            OpKind::Le,
            OpKind::Gt,
            OpKind::Ge,
            OpKind::Eq,
            OpKind::Ne,
        ] {
            assert!(k.is_comparison(), "{k} should be a comparison");
        }
        assert!(!OpKind::Add.is_comparison());
    }

    #[test]
    fn op_display_contains_width_and_name() {
        let op = Op::new(OpKind::Mul, 8).signed().named("x1");
        let s = op.to_string();
        assert!(s.contains("mul"));
        assert!(s.contains("i8"));
        assert!(s.contains("x1"));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Op::new(OpKind::Add, 0);
    }

    #[test]
    fn trapping_kinds() {
        assert!(OpKind::Div.can_trap());
        assert!(OpKind::Rem.can_trap());
        assert!(!OpKind::Mul.can_trap());
    }
}
