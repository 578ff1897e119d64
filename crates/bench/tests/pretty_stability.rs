//! Corpus-wide pin of the pretty printer's canonical-form guarantee:
//! `print ∘ parse` must be a fixpoint on every module of the 589-module
//! experiment corpus. Cache keys do not depend on it (they hash the AST's
//! structure, see `canonical_key.rs`); the corpus generator, the
//! fuzzer's shrinker and `localias parse` emit printed modules.

use localias_ast::{parse_module, pretty};
use localias_corpus::{generate, DEFAULT_SEED};

#[test]
fn pretty_is_a_fixpoint_over_the_whole_corpus() {
    let corpus = generate(DEFAULT_SEED);
    assert_eq!(corpus.len(), 589);
    for m in &corpus {
        let printed = pretty::print_module(&m.parse());
        let reparsed = parse_module(&m.name, &printed)
            .unwrap_or_else(|e| panic!("{}: canonical form must re-parse: {e}", m.name));
        let printed2 = pretty::print_module(&reparsed);
        assert_eq!(
            printed, printed2,
            "{}: print∘parse is not a fixpoint",
            m.name
        );
    }
}

/// Determinism across independent prints (no hidden iteration-order or
/// interning dependence): two parses of the same source print the same
/// bytes.
#[test]
fn printing_is_deterministic() {
    let corpus = generate(DEFAULT_SEED);
    for m in corpus.iter().take(50) {
        let a = pretty::print_module(&m.parse());
        let b = pretty::print_module(&m.parse());
        assert_eq!(a, b, "{}", m.name);
    }
}
