//! The synthesized "mega-module": one module, hundreds of functions, a
//! wide call DAG.
//!
//! The §7 corpus stresses the *cross-module* sweep (`--jobs` fans out
//! across 589 small modules); this generator stresses the *intra-module*
//! pipeline instead. [`mega_module`] emits a single module shaped like a
//! large driver core:
//!
//! * a wide **leaf layer** of worker functions — lock-free compute
//!   kernels, scalar-lock critical sections (clean under every mode),
//!   and per-device lock-array pairs (the `(1,0,0)` confinable idiom);
//! * a **mid layer** of services, each owning a disjoint set of
//!   array-lock leaves (so no path acquires one device array twice) and
//!   sharing the harmless leaves freely;
//! * a small **top layer** of entry points fanning out over the mids.
//!
//! The call graph is a three-level DAG with no recursion, so the
//! checker's bottom-up order lists every leaf before the mids and every
//! mid before the tops, and each call applies an existing summary. The
//! expected error triple is exact by
//! construction: each array-pair leaf contributes one weak-update error
//! that confine inference fully recovers, and nothing else ever fails,
//! so a module with `a` array leaves expects `(a, 0, 0)`.
//!
//! Generation is fully deterministic in `(seed, funs)`.

use crate::gen::GeneratedModule;
use crate::idiom::Expected;
use crate::plan::Category;
use localias_prng::Rng64;
use std::fmt::Write as _;

/// Default function count of the mega-module (the `watch_edit`
/// benchmark's module size).
pub const DEFAULT_MEGA_FUNS: usize = 300;

/// What one leaf function does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafKind {
    /// Lock-free arithmetic over globals (pure checker walking work).
    Compute,
    /// A scalar global lock held across a loop — strong updates verify
    /// it in every mode.
    Scalar,
    /// A lock/unlock pair on an element of a private device array — one
    /// weak-update error, fully recovered by confine inference.
    Array,
}

/// Emits the nested compute loops that give every function real checker
/// work (each `while` costs the flow checker a fixpoint plus a recording
/// pass over its body).
fn compute_blocks(src: &mut String, rng: &mut Rng64, blocks: usize) {
    for b in 0..blocks {
        let depth = rng.gen_range(2..4u32);
        let _ = writeln!(src, "    int acc{b} = {};", rng.gen_range(0..64));
        let _ = writeln!(src, "    int i{b} = 0;");
        let _ = writeln!(src, "    while (i{b} < n) {{");
        if depth > 2 {
            let _ = writeln!(src, "        int j{b} = 0;");
            let _ = writeln!(src, "        while (j{b} < 8) {{");
            let _ = writeln!(src, "            acc{b} = acc{b} + j{b} * i{b};");
            let _ = writeln!(src, "            if (acc{b} > 100) {{");
            let _ = writeln!(
                src,
                "                acc{b} = acc{b} - {};",
                rng.gen_range(1..9)
            );
            let _ = writeln!(src, "            }} else {{");
            let _ = writeln!(src, "                acc{b} = acc{b} + 1;");
            let _ = writeln!(src, "            }}");
            let _ = writeln!(src, "            j{b} = j{b} + 1;");
            let _ = writeln!(src, "        }}");
        } else {
            let _ = writeln!(src, "        acc{b} = acc{b} * 2 + i{b};");
            let _ = writeln!(src, "        if (acc{b} > 50) {{");
            let _ = writeln!(src, "            acc{b} = 0;");
            let _ = writeln!(src, "        }}");
        }
        let _ = writeln!(src, "        i{b} = i{b} + 1;");
        let _ = writeln!(src, "    }}");
        let _ = writeln!(src, "    mega_sink = acc{b};");
    }
}

/// Generates the mega-module: one module with `funs` functions in a
/// three-layer call DAG. Deterministic in `(seed, funs)`.
///
/// The expected triple is `(a, 0, 0)` where `a` is the number of
/// array-pair leaves — see the module docs for why that is exact.
pub fn mega_module(seed: u64, funs: usize) -> GeneratedModule {
    let funs = funs.max(8);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6d65_6761); // "mega"
    let (n_top, n_mid, n_leaf) = mega_layout(funs);

    let mut src = String::new();
    let _ = writeln!(src, "int mega_sink;");
    let _ = writeln!(src, "extern void mega_work();");

    // ---- Leaf layer ----
    let kinds: Vec<LeafKind> = (0..n_leaf)
        .map(|k| match k % 3 {
            0 => LeafKind::Array,
            1 => LeafKind::Scalar,
            _ => LeafKind::Compute,
        })
        .collect();
    let n_array = kinds.iter().filter(|&&k| k == LeafKind::Array).count();

    for (k, kind) in kinds.iter().enumerate() {
        match kind {
            LeafKind::Array => {
                let _ = writeln!(src, "lock mega_arr{k:04}[8];");
            }
            LeafKind::Scalar => {
                let _ = writeln!(src, "lock mega_lck{k:04};");
            }
            LeafKind::Compute => {}
        }
        let _ = writeln!(src, "void leaf{k:04}(int n) {{");
        match kind {
            LeafKind::Array => {
                // The (1,0,0) confinable idiom: weak updates fail the
                // release; a confine over the pair recovers it.
                let _ = writeln!(src, "    spin_lock(&mega_arr{k:04}[n]);");
                let _ = writeln!(src, "    mega_work();");
                let _ = writeln!(src, "    spin_unlock(&mega_arr{k:04}[n]);");
                compute_blocks(&mut src, &mut rng, 2);
            }
            LeafKind::Scalar => {
                let _ = writeln!(src, "    int r{k} = 0;");
                let _ = writeln!(src, "    while (r{k} < n) {{");
                let _ = writeln!(src, "        spin_lock(&mega_lck{k:04});");
                let _ = writeln!(src, "        mega_work();");
                let _ = writeln!(src, "        spin_unlock(&mega_lck{k:04});");
                let _ = writeln!(src, "        r{k} = r{k} + 1;");
                let _ = writeln!(src, "    }}");
                compute_blocks(&mut src, &mut rng, 2);
            }
            LeafKind::Compute => {
                compute_blocks(&mut src, &mut rng, 3);
            }
        }
        let _ = writeln!(src, "}}");
    }

    // ---- Mid layer ----
    // Each array leaf is owned by exactly one mid, so no path ever
    // acquires the same device array twice; scalar/compute leaves are
    // shared freely (their summaries are idempotent).
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n_mid];
    for (k, kind) in kinds.iter().enumerate() {
        if *kind == LeafKind::Array {
            owned[k % n_mid].push(k);
        }
    }
    let harmless: Vec<usize> = kinds
        .iter()
        .enumerate()
        .filter(|(_, &k)| k != LeafKind::Array)
        .map(|(k, _)| k)
        .collect();
    for (m, owned_leaves) in owned.iter().enumerate() {
        let _ = writeln!(src, "void mid{m:04}(int n) {{");
        for &k in owned_leaves {
            let _ = writeln!(src, "    leaf{k:04}(n);");
        }
        let extra = rng.gen_range(2..5u32);
        for _ in 0..extra {
            if harmless.is_empty() {
                break;
            }
            let k = harmless[rng.gen_range(0..harmless.len())];
            let _ = writeln!(src, "    leaf{k:04}(n);");
        }
        compute_blocks(&mut src, &mut rng, 1);
        let _ = writeln!(src, "}}");
    }

    // ---- Top layer ----
    // Each top calls a set of distinct mids (never the same mid twice —
    // a second call would re-require a device array already driven to ⊤
    // by the first).
    for t in 0..n_top {
        let _ = writeln!(src, "void top{t:04}(int n) {{");
        let mut mids: Vec<usize> = vec![t % n_mid];
        let extra = rng.gen_range(2..5u32) as usize;
        for _ in 0..extra {
            let m = rng.gen_range(0..n_mid);
            if !mids.contains(&m) {
                mids.push(m);
            }
        }
        for m in mids {
            let _ = writeln!(src, "    mid{m:04}(n);");
        }
        compute_blocks(&mut src, &mut rng, 1);
        let _ = writeln!(src, "}}");
    }

    GeneratedModule {
        name: format!("mega_{seed}_{funs}"),
        category: Category::Recovered,
        expect: Expected {
            no_confine: n_array,
            confine: 0,
            all_strong: 0,
        },
        source: src,
    }
}

/// The `(tops, mids, leaves)` layer sizes of a `funs`-function
/// mega-module (after the `funs.max(8)` floor).
fn mega_layout(funs: usize) -> (usize, usize, usize) {
    let funs = funs.max(8);
    let n_top = (funs / 10).max(1);
    let n_mid = (funs * 3 / 10).max(2);
    (n_top, n_mid, funs - n_top - n_mid)
}

/// The kind of single-function edit [`mega_edit`] applies.
///
/// Each kind has a **closed-form expected triple**, derived from the
/// generator's construction (and pinned by tests that run the real
/// checker on edited modules):
///
/// * [`Compute`](MegaEditKind::Compute) — a constant tweak inside one
///   lock-free compute leaf. No lock is touched, so the triple stays the
///   base `(a, 0, 0)` and the edited function's summary is unchanged.
/// * [`Whitespace`](MegaEditKind::Whitespace) — a trailing comment.
///   Comments normalize away in the canonical form, so the triple stays
///   `(a, 0, 0)`.
/// * [`BreakLock`](MegaEditKind::BreakLock) — one array leaf's
///   `spin_unlock` becomes a second `spin_lock`. Under weak updates the
///   leaf already erred once (the release saw ⊤) and still errs once
///   (the second acquire sees ⊤), so `no_confine` stays `a`; under
///   confine inference or all-strong updates the first acquire is a
///   strong update to `locked`, which the second acquire's `unlocked`
///   requirement rejects — one error where there was none. The triple
///   becomes `(a, 1, 1)`, and the leaf's summary changes too (the exit
///   state of the element location).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MegaEditKind {
    /// Tweak an arithmetic constant in a compute leaf (triple unchanged).
    Compute,
    /// Append a comment — canonical no-op (triple unchanged).
    Whitespace,
    /// Replace an array leaf's unlock with a second lock
    /// (`(a, 0, 0)` → `(a, 1, 1)`).
    BreakLock,
}

/// A single-function edit of a generated mega-module.
#[derive(Debug, Clone)]
pub struct MegaEdit {
    /// The edited module; `expect` carries the closed-form triple for
    /// the edited source.
    pub module: GeneratedModule,
    /// Which edit was applied.
    pub kind: MegaEditKind,
    /// The function the edit landed in (`None` for whitespace edits,
    /// which touch no function's canonical text).
    pub function: Option<String>,
}

/// Applies one seeded single-function edit to `mega_module(seed, funs)`.
///
/// Deterministic in `(seed, funs, edit_seed, kind)`; distinct
/// `edit_seed`s pick (generally) distinct target functions. See
/// [`MegaEditKind`] for each kind's closed-form expected triple.
///
/// # Panics
///
/// Panics if the generated module has no leaf of the required kind —
/// impossible for `funs >= 8`, where the leaf layer always contains
/// array, scalar, and compute leaves.
pub fn mega_edit(seed: u64, funs: usize, edit_seed: u64, kind: MegaEditKind) -> MegaEdit {
    let base = mega_module(seed, funs);
    let (_, _, n_leaf) = mega_layout(funs);
    let mut rng = Rng64::seed_from_u64(edit_seed ^ 0x6564_6974); // "edit"
    let leaves_of = |rem: usize| -> Vec<usize> { (0..n_leaf).filter(|k| k % 3 == rem).collect() };

    let mut source = base.source.clone();
    let mut expect = base.expect;
    let function;
    match kind {
        MegaEditKind::Compute => {
            let candidates = leaves_of(2);
            let k = candidates[rng.gen_range(0..candidates.len())];
            let header = format!("void leaf{k:04}(int n) {{\n");
            let at = source.find(&header).expect("compute leaf header present");
            let body = at + header.len();
            // The first statement compute_blocks emits: `int acc0 = C;`.
            let assign = source[body..].find("acc0 = ").expect("acc0 init") + body + 7;
            let end = source[assign..].find(';').expect("terminated init") + assign;
            let old: u64 = source[assign..end].parse().expect("integer constant");
            source.replace_range(assign..end, &format!("{}", (old + 1) % 64));
            function = Some(format!("leaf{k:04}"));
        }
        MegaEditKind::Whitespace => {
            let _ = writeln!(source, "// no-op edit {edit_seed}");
            function = None;
        }
        MegaEditKind::BreakLock => {
            let candidates = leaves_of(0);
            let k = candidates[rng.gen_range(0..candidates.len())];
            let needle = format!("    spin_unlock(&mega_arr{k:04}[n]);\n");
            let fixed = format!("    spin_lock(&mega_arr{k:04}[n]);\n");
            let edited = source.replacen(&needle, &fixed, 1);
            assert_ne!(edited, source, "array leaf unlock present");
            source = edited;
            expect.confine += 1;
            expect.all_strong += 1;
            function = Some(format!("leaf{k:04}"));
        }
    }

    MegaEdit {
        module: GeneratedModule {
            name: format!("{}_edit{edit_seed}", base.name),
            // A broken module mixes recovered idioms with one genuine
            // bug, so its confine column is nonzero — the `Partial`
            // population slice.
            category: if kind == MegaEditKind::BreakLock {
                Category::Partial
            } else {
                base.category
            },
            expect,
            source,
        },
        kind,
        function,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = mega_module(7, 60);
        let b = mega_module(7, 60);
        assert_eq!(a.source, b.source);
        assert_eq!(a.expect, b.expect);
        let c = mega_module(8, 60);
        assert_ne!(a.source, c.source, "different seeds differ");
    }

    #[test]
    fn parses_and_scales_with_funs() {
        for funs in [8, 40, 120] {
            let m = mega_module(3, funs);
            let parsed = m.parse();
            assert_eq!(parsed.functions().count(), funs, "funs={funs}");
        }
    }

    #[test]
    fn expected_triple_counts_array_leaves() {
        let m = mega_module(11, 90);
        // 90 funs → 9 tops, 27 mids, 54 leaves → ceil(54/3) array leaves.
        assert_eq!(m.expect.no_confine, 18);
        assert_eq!(m.expect.confine, 0);
        assert_eq!(m.expect.all_strong, 0);
    }

    /// Runs the real checker and asserts the module's `expect` triple.
    fn assert_triple(m: &GeneratedModule) {
        let parsed = m.parse();
        let [nc, cf, st] =
            localias_cqual::check_modes(&mut localias_core::SharedAnalysis::new(&parsed))
                .0
                .map(|r| r.error_count());
        let got = (nc, cf, st);
        let want = (m.expect.no_confine, m.expect.confine, m.expect.all_strong);
        assert_eq!(got, want, "{}", m.name);
    }

    #[test]
    fn edits_are_deterministic() {
        for kind in [
            MegaEditKind::Compute,
            MegaEditKind::Whitespace,
            MegaEditKind::BreakLock,
        ] {
            let a = mega_edit(7, 40, 3, kind);
            let b = mega_edit(7, 40, 3, kind);
            assert_eq!(a.module.source, b.module.source, "{kind:?}");
            assert_eq!(a.function, b.function, "{kind:?}");
            assert_ne!(a.module.source, mega_module(7, 40).source, "{kind:?} edits");
        }
    }

    #[test]
    fn compute_edit_keeps_the_closed_form_triple() {
        let base = mega_module(5, 40);
        let e = mega_edit(5, 40, 9, MegaEditKind::Compute);
        assert_eq!(e.module.expect, base.expect, "triple unchanged");
        assert!(e.function.is_some());
        assert_triple(&e.module);
    }

    #[test]
    fn whitespace_edit_is_a_canonical_noop() {
        use localias_ast::pretty;
        let base = mega_module(5, 40);
        let e = mega_edit(5, 40, 9, MegaEditKind::Whitespace);
        assert_eq!(e.module.expect, base.expect);
        assert_eq!(e.function, None);
        // The canonical forms are identical — the strongest statement of
        // "no-op": the module-level cache keys it as the base module.
        assert_eq!(
            pretty::print_module(&base.parse()),
            pretty::print_module(&e.module.parse()),
        );
    }

    #[test]
    fn break_lock_edit_matches_the_closed_form_triple() {
        let base = mega_module(5, 40);
        let e = mega_edit(5, 40, 9, MegaEditKind::BreakLock);
        assert_eq!(e.module.expect.no_confine, base.expect.no_confine);
        assert_eq!(e.module.expect.confine, 1);
        assert_eq!(e.module.expect.all_strong, 1);
        assert_triple(&e.module);
    }
}
