//! Writes the golden-row corpus that `tests/golden_corpus.rs` diffs
//! against, one `<set>.txt` per corpus set.
//!
//! ```sh
//! cargo run --release --example golden_corpus -- tests/golden
//! ```
//!
//! Regenerate only from a commit whose rows are known good: the test's
//! whole point is that no later change moves a byte of this output.

#[path = "../tests/golden/corpus.rs"]
mod corpus;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/golden".into());
    for set in corpus::SETS {
        let path = std::path::Path::new(&dir).join(format!("{set}.txt"));
        std::fs::write(&path, corpus::render(set)).expect("corpus file writes");
        eprintln!("wrote {}", path.display());
    }
}
