//! Properties of the canonical cache key, `module_fingerprint`: it hashes
//! a module's structure, so edits the parser normalizes away (layout,
//! comments, parentheses) keep the key, every edit to what the analyses
//! see moves it, and the printer's round trip keeps it.

use localias_alias::Backend;
use localias_ast::fp::{fnv1a, FNV_OFFSET};
use localias_ast::{parse_module, pretty, Module};
use localias_bench::cache::module_fingerprint;
use localias_corpus::{fuzz_module, generate, mega_module};
use std::collections::HashMap;

fn key(src: &str) -> u128 {
    let m = parse_module("m", src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    module_fingerprint(&m, Backend::Steensgaard)
}

const BASE: &str = r#"
struct dev { lock mu; int n; };
lock locks[8];
extern void work();
void f(struct dev *d, int i) {
    spin_lock(&locks[i]);
    {
        d->n = d->n + 1;
    }
    if (i > 0) {
        work();
    }
    spin_unlock(&locks[i]);
}
"#;

#[test]
fn structural_key_tracks_structure_not_text() {
    let base = key(BASE);

    // The module's name, layout, comments and redundant parentheses
    // leave no trace in the AST, so none in the key.
    let renamed_module = parse_module("another_name", BASE).unwrap();
    assert_eq!(
        module_fingerprint(&renamed_module, Backend::Steensgaard),
        base
    );
    let keeps = [
        (
            "layout",
            "struct dev{lock mu;int n;};lock locks[8];extern void work();\n\
             void f(struct dev*d,int i){spin_lock(&locks[i]);{d->n=d->n+1;}\n\
             if(i>0){work();}spin_unlock(&locks[i]);}",
        ),
        (
            "comments",
            "// header\nstruct dev { lock mu; /* the lock */ int n; };\nlock locks[8];\n\
             extern void work(); // elsewhere\nvoid f(struct dev *d, int i) {\n\
             /* take */ spin_lock(&locks[i]);\n { d->n = d->n + 1; /* bump */ }\n\
             if (i > 0) { work(); }\n spin_unlock(&locks[i]); // release\n}\n",
        ),
        (
            "parentheses",
            "struct dev { lock mu; int n; };\nlock locks[8];\nextern void work();\n\
             void f(struct dev *d, int i) {\n spin_lock(&(locks[i]));\n\
             { d->n = ((d->n) + (1)); }\n if ((i > 0)) { work(); }\n\
             spin_unlock((&locks[(i)]));\n}\n",
        ),
    ];
    for (what, src) in keeps {
        assert_eq!(key(src), base, "a {what}-only edit moved the key");
    }

    // Every edit the analyses can see moves the key.
    let moves = [
        ("renamed identifier", BASE.replace("work", "rest")),
        ("changed literal", BASE.replace("+ 1", "+ 2")),
        ("changed operator", BASE.replace("+ 1", "- 1")),
        (
            "changed type",
            BASE.replace("extern void work", "extern int work"),
        ),
        (
            "swapped statements",
            BASE.replace(
                "    spin_lock(&locks[i]);\n    {\n        d->n = d->n + 1;\n    }\n",
                "    {\n        d->n = d->n + 1;\n    }\n    spin_lock(&locks[i]);\n",
            ),
        ),
        (
            // The statements keep their order; only the block's end moves.
            "statement moved into a nested block",
            BASE.replace(
                "    }\n    if (i > 0) {\n        work();\n    }\n",
                "        if (i > 0) {\n            work();\n        }\n    }\n",
            ),
        ),
    ];
    for (what, src) in &moves {
        assert_ne!(src.as_str(), BASE, "the {what} edit must apply");
        assert_ne!(key(src), base, "{what} kept the key");
    }

    // Over the corpus and the fuzz stream: printing and re-parsing keeps
    // the key, and two modules that print differently never share one.
    let mut modules: Vec<Module> = Vec::new();
    for seed in [20030609, 1, 7] {
        modules.extend(generate(seed).iter().map(|m| m.parse()));
    }
    for i in 0..1000 {
        let f = fuzz_module(42, i);
        modules.push(parse_module(&f.name, &f.source).expect("fuzz modules parse"));
    }
    let mut printed_by_key: HashMap<u128, String> = HashMap::new();
    for m in &modules {
        let k = module_fingerprint(m, Backend::Steensgaard);
        let printed = pretty::print_module(m);
        let reparsed = parse_module(&m.name, &printed).expect("printed modules parse");
        assert_eq!(
            module_fingerprint(&reparsed, Backend::Steensgaard),
            k,
            "{}: print then parse moved the key",
            m.name
        );
        let first = printed_by_key.entry(k).or_insert_with(|| printed.clone());
        assert_eq!(
            *first, printed,
            "{}: shares a key with another module",
            m.name
        );
    }
}

/// Every canonical key the default-seed corpus, three mega modules and
/// the fuzz stream produce, folded into one pinned value. The keys file
/// a warm store's entries, so a re-encoded walk that moved the key of
/// any node kind (a call, a field, a cast, a confine) would turn every
/// warm hit into a silent miss; this test fails instead.
#[test]
fn canonical_keys_are_pinned() {
    let mut digest = FNV_OFFSET;
    let mut fold = |m: &Module| {
        let k = module_fingerprint(m, Backend::Steensgaard);
        digest = fnv1a(digest, &k.to_le_bytes());
    };
    for g in generate(20030609) {
        fold(&g.parse());
    }
    for seed in 1..=3 {
        fold(&mega_module(seed, 300).parse());
    }
    for i in 0..1000 {
        let f = fuzz_module(42, i);
        fold(&parse_module(&f.name, &f.source).expect("fuzz modules parse"));
    }
    assert_eq!(
        digest, 177220112496090089481378625783635270902,
        "a canonical cache key moved"
    );
}
