//! Error type shared by every `adhls-ir` API that can fail.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building, parsing, transforming or interpreting a
/// design.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The CFG is malformed (dangling edge, unreachable node, missing start
    /// node, forward subgraph not acyclic, …).
    MalformedCfg(String),
    /// The DFG is malformed (operand count mismatch, cycle through forward
    /// edges, reference to a removed op, …).
    MalformedDfg(String),
    /// A DFG operation is attached to a CFG edge that does not exist or is
    /// otherwise inconsistent with the control structure.
    BadBirth(String),
    /// Lexical error in the frontend DSL.
    Lex { line: u32, col: u32, msg: String },
    /// Syntax error in the frontend DSL.
    Parse { line: u32, col: u32, msg: String },
    /// Semantic error during elaboration (unknown variable, port misuse,
    /// non-constant loop bound, …).
    Elab(String),
    /// A transformation could not be applied (e.g. unrolling a loop whose
    /// trip count is unknown).
    Transform(String),
    /// Runtime error during interpretation (input stream exhausted, division
    /// by zero, step limit exceeded, …).
    Interp(String),
    /// A requested expansion exceeds what the machine can represent or hold
    /// (e.g. a sweep grid whose cell count overflows `usize`).
    Capacity(String),
    /// An internal fault, not a property of the input: an evaluation
    /// panicked. Unlike every other variant it is not a pure function of
    /// the request, so no cache may keep it.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::MalformedCfg(m) => write!(f, "malformed CFG: {m}"),
            Error::MalformedDfg(m) => write!(f, "malformed DFG: {m}"),
            Error::BadBirth(m) => write!(f, "bad birth edge: {m}"),
            Error::Lex { line, col, msg } => write!(f, "lex error at {line}:{col}: {msg}"),
            Error::Parse { line, col, msg } => write!(f, "parse error at {line}:{col}: {msg}"),
            Error::Elab(m) => write!(f, "elaboration error: {m}"),
            Error::Transform(m) => write!(f, "transform error: {m}"),
            Error::Interp(m) => write!(f, "interpreter error: {m}"),
            Error::Capacity(m) => write!(f, "capacity error: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let e = Error::MalformedCfg("no start node".into());
        let s = e.to_string();
        assert!(s.starts_with("malformed CFG"));
        assert!(!s.is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
