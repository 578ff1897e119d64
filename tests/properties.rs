//! Property-based tests over randomly generated Mini-C programs.
//!
//! Programs are generated from a seeded grammar of well-typed snippets
//! (a deterministic `localias-prng` stream drives the seed and size;
//! generation itself is a seeded walk so that scoping stays well-formed).
//! The properties:
//!
//! * the pretty-printer round-trips through the parser;
//! * every analysis is total (no panics) and deterministic;
//! * mode monotonicity: all-strong ≤ confine-inference ≤ no-confine
//!   error counts — strong updates only ever remove errors;
//! * inferred restricts are *sound*: rewriting the program with the
//!   inferred annotation made explicit passes the checker.

use localias::ast::{parse_module, pretty, BindingKind, BlockId, Module, NodeId, StmtKind};
use localias::core;
use localias::cqual::{check_locks_frozen, check_modes, Mode};
use localias_prng::Rng64;

mod common;
use common::random_module_source;

fn parse(src: &str) -> Module {
    parse_module("prop", src).unwrap_or_else(|e| panic!("must parse: {e}\n{src}"))
}

#[test]
fn pretty_print_roundtrips() {
    let mut rng = Rng64::seed_from_u64(0xB00);
    for _ in 0..48 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..12));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let printed = pretty::print_module(&m);
        let m2 = parse_module("prop", &printed)
            .unwrap_or_else(|e| panic!("printed module must parse: {e}\n{printed}"));
        let printed2 = pretty::print_module(&m2);
        assert_eq!(printed, printed2);
    }
}

#[test]
fn analyses_are_total_and_deterministic() {
    let mut rng = Rng64::seed_from_u64(0xB01);
    for _ in 0..48 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..12));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let a1 = core::check(&m);
        let a2 = core::check(&m);
        assert_eq!(a1.restricts.len(), a2.restricts.len());
        assert_eq!(a1.diags.len(), a2.diags.len());
        let _ = core::infer_restricts(&m);
        let inf1 = core::infer_confines(&m);
        let inf2 = core::infer_confines(&m);
        assert_eq!(inf1.outermost_confines(&m), inf2.outermost_confines(&m));
    }
}

#[test]
fn error_counts_are_monotone_in_update_strength() {
    let mut rng = Rng64::seed_from_u64(0xB02);
    for _ in 0..48 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..12));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let [nc, cf, st] = check_modes(&mut core::SharedAnalysis::new(&m))
            .0
            .map(|r| r.error_count());
        assert!(st <= nc, "all-strong {st} > no-confine {nc}\n{src}");
        assert!(cf <= nc, "confine {cf} > no-confine {nc}\n{src}");
    }
}

#[test]
fn inferred_restricts_check_when_made_explicit() {
    let mut rng = Rng64::seed_from_u64(0xB03);
    for _ in 0..48 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..10));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let inferred = core::infer_restricts(&m);
        // Promote only candidates whose name is actually *used*: the §5
        // inference rule deliberately lets an unused binding be a
        // restrict without the `{ρ}` restriction effect (the paper's
        // footnote on C's semantics), while explicit checking is strict —
        // so an unused inferred restrict is not required to re-check.
        let restricted: Vec<NodeId> = inferred
            .candidates
            .iter()
            .filter(|c| c.restricted && ident_count(&src, &c.name) >= 2)
            .map(|c| c.at)
            .collect();
        if restricted.is_empty() {
            continue;
        }
        // Rewrite the inferred lets into explicit restricts and re-check;
        // only the promoted annotations must pass (the generator may have
        // emitted explicit restricts that legitimately fail).
        let mut rewritten = m.clone();
        promote_decls(&mut rewritten, &restricted);
        let checked = core::check(&rewritten);
        for r in checked
            .restricts
            .iter()
            .filter(|r| restricted.contains(&r.at))
        {
            assert!(
                r.ok(),
                "inferred restrict `{}` fails explicit checking: {:?}\n{}",
                r.name,
                r.reasons,
                src
            );
        }
    }
}

/// Number of identifier tokens in `src` spelled exactly `name`.
fn ident_count(src: &str, name: &str) -> usize {
    use localias::ast::{Lexer, TokenKind};
    Lexer::new(src)
        .tokenize()
        .map(|toks| {
            toks.iter()
                .filter(|t| t.kind == TokenKind::Ident && t.span.snippet(src) == name)
                .count()
        })
        .unwrap_or(0)
}

/// Flips the given `let` declarations to `restrict` in place.
fn promote_decls(m: &mut Module, targets: &[NodeId]) {
    fn visit_block(m: &mut Module, b: BlockId, targets: &[NodeId]) {
        for i in 0..m.stmt_ids(b).len() {
            let s = m.stmt_mut(m.stmt_ids(b)[i]);
            if targets.contains(&s.id) {
                if let StmtKind::Decl { binding, .. } = &mut s.kind {
                    *binding = BindingKind::Restrict;
                }
            }
            let nested: Vec<BlockId> = s.kind.blocks().collect();
            for inner in nested {
                visit_block(m, inner, targets);
            }
        }
    }
    let bodies: Vec<BlockId> = m.functions().map(|f| f.body).collect();
    for body in bodies {
        visit_block(m, body, targets);
    }
}

/// Andersen refines Steensgaard: whenever the inclusion-based
/// analysis says two pointer variables may point to a common cell,
/// the unification-based analysis must have merged their pointee
/// classes (never the other way around).
#[test]
fn andersen_refines_steensgaard() {
    let mut rng = Rng64::seed_from_u64(0xB04);
    for _ in 0..32 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..10));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let pts = localias::alias::andersen::analyze(&m);
        let mut uni = localias::alias::steensgaard::analyze(&m);

        // Compare per-function pointer locals pairwise.
        for f in m.functions() {
            let fun = m.name(f.name.name);
            let vars: Vec<&localias::alias::VarInfo> = uni
                .state
                .vars
                .iter()
                .filter(|v| v.fun == Some(f.name.name))
                .collect();
            let ptrs: Vec<(String, localias::alias::Loc)> = vars
                .iter()
                .filter_map(|v| v.ty.pointee().map(|l| (m.name(v.name).to_string(), l)))
                .collect();
            for i in 0..ptrs.len() {
                for j in (i + 1)..ptrs.len() {
                    let a = localias::alias::andersen::Cell::Var(
                        Some(fun.to_string()),
                        ptrs[i].0.clone(),
                    );
                    let b = localias::alias::andersen::Cell::Var(
                        Some(fun.to_string()),
                        ptrs[j].0.clone(),
                    );
                    if pts.may_point_same(&a, &b) {
                        assert!(
                            uni.state.locs.same(ptrs[i].1, ptrs[j].1),
                            "Andersen aliases {} and {} but Steensgaard does not\n{}",
                            ptrs[i].0,
                            ptrs[j].0,
                            src
                        );
                    }
                }
            }
        }
    }
}

/// The general §7 strategy never recovers less than the heuristic:
/// every lock error the heuristic's confines eliminate, the general
/// candidate set eliminates too.
#[test]
fn general_confine_strategy_dominates_heuristic() {
    let mut rng = Rng64::seed_from_u64(0xB05);
    for _ in 0..24 {
        let (seed, stmts) = (rng.next_u64(), rng.gen_range(1usize..10));
        let src = random_module_source(seed, stmts);
        let m = parse(&src);
        let confine_errors = |mut a: core::Analysis| {
            let frozen = a.freeze();
            check_locks_frozen(&m, &a, &frozen, Mode::Confine, 1).error_count()
        };
        let heuristic = confine_errors(core::infer_confines(&m));
        let general = confine_errors(core::infer_confines_general(&m));
        assert!(
            general <= heuristic,
            "general {general} > heuristic {heuristic}\n{src}"
        );
    }
}
