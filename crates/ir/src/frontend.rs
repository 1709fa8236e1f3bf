//! Behavioral DSL frontend — a SystemC-thread stand-in.
//!
//! The paper's input language is SystemC; this reproduction substitutes a
//! small behavioral DSL with the same essentials: processes over ports,
//! `wait()` states, loops and conditionals (see DESIGN.md §5).
//!
//! Submodules: [`lexer`], [`ast`], [`parser`], [`elab`]. The one-call entry
//! point is [`compile`].
//!
//! ```text
//! proc resizer(in a: u16, in b: u16, out o: u16) {
//!     loop {
//!         let x: u16 = read(a) + 3;
//!         if x > 100 {
//!             wait;
//!             y = x / 2 - 3;
//!         } else {
//!             wait;
//!             y = x * read(b);
//!         }
//!         wait;
//!         write(o, y);
//!     }
//! }
//! ```

pub mod ast;
pub mod elab;
pub mod lexer;
pub mod parser;

use crate::design::Design;
use crate::error::Result;

/// Parses and elaborates DSL source into a [`Design`].
///
/// # Errors
///
/// Returns [`crate::Error::Lex`] / [`crate::Error::Parse`] for malformed
/// source (nesting past [`parser::MAX_NESTING`] or
/// [`parser::MAX_EXPR_DEPTH`] included), [`crate::Error::Elab`] for
/// semantic problems (unknown variables, port misuse, non-constant
/// unrolled loop bounds, …) and [`crate::Error::Capacity`] for source that
/// elaborates past [`elab::MAX_GRAPH_SIZE`].
pub fn compile(source: &str) -> Result<Design> {
    let tokens = lexer::lex(source)?;
    let proc = parser::parse(&tokens)?;
    elab::elaborate(&proc)
}
