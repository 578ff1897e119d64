//! Deterministic corpus generation.
//!
//! [`CorpusStream`] produces synthetic driver modules *per index*: module
//! `i` of a seed is generated from its own RNG stream (seeded by mixing
//! the corpus seed with the module's slot), so any module is reproducible
//! without materializing modules `0..i`. [`generate`] — the eager API the
//! paper experiment uses — is just the 589-module stream collected, so
//! the streamed and eager corpora are byte-identical by construction.
//!
//! The 589 slots follow the Section 7 population [`crate::plan`]: each
//! slot is assembled from the idiom catalogue, given a realistic driver
//! name, padded with clean filler, and carries its *expected* per-mode
//! error triple (the sum of its idioms' signatures). Corpora larger than
//! 589 modules tile the plan: slot `589·t + k` of tile `t` re-runs the
//! plan with fresh RNG streams (and `_t{t}`-suffixed Figure 7 names), so
//! a 50k-module corpus keeps the paper's category proportions while every
//! module remains individually addressable.

use crate::idiom::{self, Expected, Idiom};
use crate::plan::{
    decompose_partial, real_bug_counts, recovered_quotas, Category, CLEAN_MODULES, FIGURE7,
    REAL_BUG_MODULES, RECOVERED_MODULES, RECOVERED_WITH_BUGS, TOTAL_MODULES,
};
use localias_ast::{parse_module, Module};
use localias_prng::Rng64;
use std::ops::Range;

/// The default corpus seed (the paper's publication date).
pub const DEFAULT_SEED: u64 = 20030609;

/// One generated driver module.
#[derive(Debug, Clone)]
pub struct GeneratedModule {
    /// Module name (e.g. `net_wavelan_cs`).
    pub name: String,
    /// Which population slice it belongs to.
    pub category: Category,
    /// The error triple the composition predicts.
    pub expect: Expected,
    /// Mini-C source text.
    pub source: String,
}

impl GeneratedModule {
    /// Parses the module's source.
    ///
    /// # Panics
    ///
    /// Panics if the generated source does not parse — a generator bug.
    pub fn parse(&self) -> Module {
        parse_module(&self.name, &self.source)
            .unwrap_or_else(|e| panic!("generated module {} must parse: {e}", self.name))
    }
}

const SUBSYSTEMS: [&str; 8] = [
    "net", "scsi", "usb", "sound", "char", "block", "video", "isdn",
];

const STEMS: [&str; 40] = [
    "eepro",
    "tulip",
    "rtl",
    "ne2k",
    "lance",
    "sym53c",
    "aha",
    "qlogic",
    "fdomain",
    "ultrastor",
    "uhci",
    "ohci",
    "acm",
    "serial",
    "printer",
    "sbawe",
    "opl3",
    "wavefront",
    "cmpci",
    "maestro",
    "vt",
    "ftape",
    "istallion",
    "riscom",
    "floppy",
    "loop",
    "nbd",
    "rd",
    "matrox",
    "aty",
    "tdfx",
    "cirrus",
    "hisax",
    "avmb",
    "icn",
    "pcbit",
    "ray_cs",
    "airo",
    "smc",
    "depca",
];

fn module_name(rng: &mut Rng64, idx: usize) -> String {
    let sub = SUBSYSTEMS[rng.gen_range(0..SUBSYSTEMS.len())];
    let stem = STEMS[rng.gen_range(0..STEMS.len())];
    format!("{sub}_{stem}{idx}")
}

/// A small pool of clean filler idioms to make modules look like real
/// drivers rather than minimal reproducers.
fn filler(rng: &mut Rng64, tag: &str, n: usize) -> Vec<Idiom> {
    let mut out = Vec::new();
    for k in 0..n {
        let sub = format!("{tag}_f{k}");
        let idiom = match rng.gen_range(0..7u32) {
            0 => idiom::clean_scalar_pair(&sub),
            1 => idiom::clean_restrict_helper(&sub),
            2 => idiom::clean_math(&sub),
            3 => idiom::clean_restrict_decl(&sub),
            4 => idiom::clean_irq_early_return(&sub),
            5 => idiom::clean_helper_chain(&sub),
            _ => idiom::clean_branchy(&sub),
        };
        out.push(idiom);
    }
    out
}

fn genuine_bugs(rng: &mut Rng64, tag: &str, n: usize) -> Vec<Idiom> {
    (0..n)
        .map(|k| {
            let sub = format!("{tag}_b{k}");
            if rng.gen_bool(0.5) {
                idiom::double_acquire(&sub)
            } else {
                idiom::unbalanced_branch(&sub)
            }
        })
        .collect()
}

fn assemble(name: &str, category: Category, idioms: Vec<Idiom>) -> GeneratedModule {
    let mut source = format!("// synthetic driver module: {name}\n");
    let mut expect = Expected::default();
    for i in idioms {
        source.push_str(&i.source);
        expect = expect + i.expect;
    }
    GeneratedModule {
        name: name.to_string(),
        category,
        expect,
        source,
    }
}

/// SplitMix64 finalizer: decorrelates per-slot RNG streams so module `i`
/// of seed `s` shares no state with module `j` or with seed `s+1`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream id used for the corpus-order permutation (distinct from
/// every per-module stream, which use the module slot as their id).
const PERM_STREAM: u64 = u64::MAX;

/// What the plan says slot `k` (of a 589-slot tile) contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotSpec {
    Clean,
    RealBugs { bugs: usize },
    Recovered { quota: usize, with_bugs: bool },
    Partial { row: usize },
}

/// A seeded, per-index-deterministic corpus.
///
/// The stream fixes a seed and a total module count up front; after that,
/// [`module_at`](CorpusStream::module_at) generates any position in
/// `O(one module)` — the only per-corpus state is the `4`-byte-per-module
/// order permutation, never the modules themselves. This is what lets the
/// bench harness sweep a 100k-module corpus with a bounded in-flight set,
/// and lets `--partition i/N` processes agree on the corpus without
/// exchanging anything but `(seed, total)`.
///
/// # Example
///
/// ```
/// use localias_corpus::{generate, CorpusStream, DEFAULT_SEED};
/// let stream = CorpusStream::paper(DEFAULT_SEED);
/// let eager = generate(DEFAULT_SEED);
/// // Module 17 is reproducible without touching modules 0..17:
/// assert_eq!(stream.module_at(17).source, eager[17].source);
/// ```
#[derive(Debug, Clone)]
pub struct CorpusStream {
    seed: u64,
    /// Stream-position → plan-slot permutation ("directory order").
    perm: Vec<u32>,
    bug_counts: Vec<usize>,
    quotas: Vec<usize>,
}

impl CorpusStream {
    /// A stream of `total` modules for `seed`. Corpus sizes beyond 589
    /// tile the paper plan (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds `u32::MAX` modules.
    pub fn new(seed: u64, total: usize) -> CorpusStream {
        assert!(total > 0, "corpus must have at least one module");
        assert!(total <= u32::MAX as usize, "corpus too large");
        // Interleave categories the way a directory listing would: a
        // seeded Fisher–Yates permutation of the slot indices. O(total)
        // index metadata is fine — it's the module ASTs that must never
        // be materialized all at once.
        let mut perm: Vec<u32> = (0..total as u32).collect();
        let mut rng = Rng64::seed_from_u64(mix(seed, PERM_STREAM));
        rng.shuffle(&mut perm);
        CorpusStream {
            seed,
            perm,
            bug_counts: real_bug_counts(),
            quotas: recovered_quotas(),
        }
    }

    /// The paper's 589-module corpus as a stream.
    pub fn paper(seed: u64) -> CorpusStream {
        CorpusStream::new(seed, TOTAL_MODULES)
    }

    /// The corpus seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of modules in the corpus.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `false`: a stream always has at least one module.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Resolves plan slot `slot` to its tile and spec index within the
    /// 589-slot plan. A final short tile of size `s` spreads its `s`
    /// slots proportionally over the plan so every category stays
    /// represented.
    fn tile_spec(&self, slot: usize) -> (usize, usize) {
        let tile = slot / TOTAL_MODULES;
        let local = slot % TOTAL_MODULES;
        let tile_size = (self.len() - tile * TOTAL_MODULES).min(TOTAL_MODULES);
        (tile, local * TOTAL_MODULES / tile_size)
    }

    fn slot_spec(&self, spec: usize) -> SlotSpec {
        debug_assert!(spec < TOTAL_MODULES);
        if spec < CLEAN_MODULES {
            SlotSpec::Clean
        } else if spec < CLEAN_MODULES + REAL_BUG_MODULES {
            SlotSpec::RealBugs {
                bugs: self.bug_counts[spec - CLEAN_MODULES],
            }
        } else if spec < CLEAN_MODULES + REAL_BUG_MODULES + RECOVERED_MODULES {
            let k = spec - CLEAN_MODULES - REAL_BUG_MODULES;
            SlotSpec::Recovered {
                quota: self.quotas[k],
                with_bugs: k < RECOVERED_WITH_BUGS,
            }
        } else {
            SlotSpec::Partial {
                row: spec - CLEAN_MODULES - REAL_BUG_MODULES - RECOVERED_MODULES,
            }
        }
    }

    /// Generates the module at stream `position` (directory order). Cost
    /// is one module, independent of `position` and of the corpus size.
    pub fn module_at(&self, position: usize) -> GeneratedModule {
        let slot = self.perm[position] as usize;
        let (tile, spec) = self.tile_spec(slot);
        let mut rng = Rng64::seed_from_u64(mix(self.seed, slot as u64));
        match self.slot_spec(spec) {
            SlotSpec::Clean => {
                let name = module_name(&mut rng, slot);
                let n = rng.gen_range(2..=5);
                let idioms = filler(&mut rng, &name, n);
                assemble(&name, Category::Clean, idioms)
            }
            SlotSpec::RealBugs { bugs } => {
                let name = module_name(&mut rng, slot);
                let mut idioms = genuine_bugs(&mut rng, &name, bugs);
                let n = rng.gen_range(1..=3);
                idioms.extend(filler(&mut rng, &name, n));
                assemble(&name, Category::RealBugs, idioms)
            }
            SlotSpec::Recovered { quota, with_bugs } => {
                let name = module_name(&mut rng, slot);
                let mut idioms = idiom::weak_update_idioms(&name, quota);
                if with_bugs {
                    let b = rng.gen_range(1..=3);
                    idioms.extend(genuine_bugs(&mut rng, &name, b));
                }
                let n = rng.gen_range(1..=3);
                idioms.extend(filler(&mut rng, &name, n));
                assemble(&name, Category::Recovered, idioms)
            }
            SlotSpec::Partial { row } => {
                let (paper_name, nc, cf, as_) = FIGURE7[row];
                let mix = decompose_partial(nc, cf, as_);
                // Tile 0 carries the paper's exact Figure 7 names; later
                // tiles suffix them to stay unique.
                let name = if tile == 0 {
                    paper_name.to_string()
                } else {
                    format!("{paper_name}_t{tile}")
                };
                let mut idioms = idiom::weak_update_idioms(&name, mix.weak_quota);
                for k in 0..mix.casts {
                    idioms.push(idiom::cast_pair(&format!("{name}_c{k}")));
                }
                for k in 0..mix.crosses {
                    idioms.push(idiom::cross_elements(&format!("{name}_x{k}")));
                }
                idioms.extend(genuine_bugs(&mut rng, &name, mix.bugs));
                let n = rng.gen_range(1..=2);
                idioms.extend(filler(&mut rng, &name, n));
                assemble(&name, Category::Partial, idioms)
            }
        }
    }

    /// Iterates the whole corpus in stream order.
    pub fn iter(&self) -> impl Iterator<Item = GeneratedModule> + '_ {
        self.range(0..self.len())
    }

    /// Iterates the stream positions in `range`.
    ///
    /// # Panics
    ///
    /// Panics (inside the iterator) if the range reaches past the end.
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = GeneratedModule> + '_ {
        range.map(move |p| self.module_at(p))
    }

    /// The stream positions partition `index` of `count` covers:
    /// contiguous, disjoint, and jointly exhaustive ranges, balanced to
    /// within one module.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    pub fn partition(&self, index: usize, count: usize) -> Range<usize> {
        partition_range(self.len(), index, count)
    }
}

/// Splits `0..total` into `count` contiguous near-equal ranges and
/// returns the `index`-th: `[index·total/count, (index+1)·total/count)`.
///
/// # Panics
///
/// Panics if `count` is zero or `index >= count`.
pub fn partition_range(total: usize, index: usize, count: usize) -> Range<usize> {
    assert!(count > 0, "partition count must be nonzero");
    assert!(index < count, "partition index {index} out of {count}");
    (index * total / count)..((index + 1) * total / count)
}

/// Generates the 589-module corpus for `seed` eagerly: exactly
/// [`CorpusStream::paper`] collected, so the eager and streamed corpora
/// are byte-identical by construction.
///
/// # Example
///
/// ```
/// use localias_corpus::{generate, DEFAULT_SEED};
/// let corpus = generate(DEFAULT_SEED);
/// assert_eq!(corpus.len(), 589);
/// // Deterministic:
/// assert_eq!(generate(DEFAULT_SEED)[17].source, corpus[17].source);
/// ```
pub fn generate(seed: u64) -> Vec<GeneratedModule> {
    let corpus: Vec<GeneratedModule> = CorpusStream::paper(seed).iter().collect();
    assert_eq!(corpus.len(), TOTAL_MODULES);
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PARTIAL_MODULES, TOTAL_ELIMINATED, TOTAL_POTENTIAL};

    #[test]
    fn corpus_has_the_papers_population() {
        let corpus = generate(DEFAULT_SEED);
        assert_eq!(corpus.len(), TOTAL_MODULES);
        let count = |c: Category| corpus.iter().filter(|m| m.category == c).count();
        assert_eq!(count(Category::Clean), 352);
        assert_eq!(count(Category::RealBugs), 85);
        assert_eq!(count(Category::Recovered), 138);
        assert_eq!(count(Category::Partial), 14);
    }

    #[test]
    fn expected_totals_match_the_paper() {
        let corpus = generate(DEFAULT_SEED);
        let potential: usize = corpus.iter().map(|m| m.expect.potential()).sum();
        let eliminated: usize = corpus.iter().map(|m| m.expect.eliminated()).sum();
        assert_eq!(potential, TOTAL_POTENTIAL);
        assert_eq!(eliminated, TOTAL_ELIMINATED);
    }

    #[test]
    fn expected_categories_are_consistent() {
        for m in generate(DEFAULT_SEED) {
            let e = m.expect;
            match m.category {
                Category::Clean => assert_eq!((e.no_confine, e.confine, e.all_strong), (0, 0, 0)),
                Category::RealBugs => {
                    assert!(e.no_confine > 0);
                    assert_eq!(e.no_confine, e.all_strong);
                    assert_eq!(e.confine, e.all_strong);
                }
                Category::Recovered => {
                    assert!(e.no_confine > e.all_strong, "{}: {e}", m.name);
                    assert_eq!(e.confine, e.all_strong, "{}: {e}", m.name);
                }
                Category::Partial => {
                    assert!(e.confine > e.all_strong, "{}: {e}", m.name);
                    assert!(e.no_confine > e.confine, "{}: {e}", m.name);
                }
            }
        }
    }

    #[test]
    fn figure7_modules_present_with_exact_targets() {
        let corpus = generate(DEFAULT_SEED);
        for &(name, nc, cf, as_) in &FIGURE7 {
            let m = corpus
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
                (nc, cf, as_),
                "{name}"
            );
        }
    }

    #[test]
    fn all_modules_parse() {
        for m in generate(DEFAULT_SEED) {
            let parsed = m.parse();
            assert!(!parsed.items.is_empty(), "{} is empty", m.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
        }
        let c = generate(43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn streamed_equals_eager_per_index() {
        let eager = generate(DEFAULT_SEED);
        let stream = CorpusStream::paper(DEFAULT_SEED);
        assert_eq!(stream.len(), eager.len());
        // Random access, out of order, must agree byte-for-byte with the
        // eager corpus — per-index determinism.
        for &p in &[588usize, 0, 17, 300, 101] {
            let m = stream.module_at(p);
            assert_eq!(m.name, eager[p].name);
            assert_eq!(m.source, eager[p].source);
            assert_eq!(m.category, eager[p].category);
        }
    }

    #[test]
    fn partitions_cover_the_stream_exactly() {
        let stream = CorpusStream::new(7, 100);
        for count in [1usize, 2, 3, 7] {
            let mut positions = Vec::new();
            for i in 0..count {
                let r = stream.partition(i, count);
                positions.extend(r.clone());
                // Balanced to within one module.
                assert!(r.len() >= 100 / count && r.len() <= 100 / count + 1);
            }
            assert_eq!(positions, (0..100).collect::<Vec<_>>(), "count={count}");
        }
    }

    #[test]
    fn partitioned_stream_reassembles_the_corpus() {
        let stream = CorpusStream::paper(DEFAULT_SEED);
        let eager = generate(DEFAULT_SEED);
        let mut reassembled = Vec::new();
        for i in 0..3 {
            reassembled.extend(stream.range(stream.partition(i, 3)));
        }
        assert_eq!(reassembled.len(), eager.len());
        for (x, y) in reassembled.iter().zip(&eager) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
        }
    }

    #[test]
    fn scaled_corpus_tiles_the_plan() {
        // 2 full tiles + a short third: categories stay proportional and
        // names stay unique.
        let total = 2 * TOTAL_MODULES + 200;
        let stream = CorpusStream::new(DEFAULT_SEED, total);
        assert_eq!(stream.len(), total);
        let mut names = std::collections::HashSet::new();
        let mut counts = [0usize; 4];
        for m in stream.iter() {
            assert!(names.insert(m.name.clone()), "duplicate name {}", m.name);
            counts[match m.category {
                Category::Clean => 0,
                Category::RealBugs => 1,
                Category::Recovered => 2,
                Category::Partial => 3,
            }] += 1;
        }
        // Each full tile contributes the paper's exact populations; the
        // short tile contributes proportionally.
        assert!(counts[0] >= 2 * 352 && counts[0] <= 2 * 352 + 200);
        assert!(counts[1] >= 2 * 85);
        assert!(counts[2] >= 2 * 138);
        assert!(counts[3] >= 2 * PARTIAL_MODULES);
        // The short tile still reaches every category.
        let tile2: Vec<Category> = (2 * TOTAL_MODULES..total)
            .map(|slot| {
                let (_, spec) = stream.tile_spec(slot);
                stream.slot_spec(spec)
            })
            .map(|s| match s {
                SlotSpec::Clean => Category::Clean,
                SlotSpec::RealBugs { .. } => Category::RealBugs,
                SlotSpec::Recovered { .. } => Category::Recovered,
                SlotSpec::Partial { .. } => Category::Partial,
            })
            .collect();
        for c in [
            Category::Clean,
            Category::RealBugs,
            Category::Recovered,
            Category::Partial,
        ] {
            assert!(tile2.contains(&c), "{c:?} missing from short tile");
        }
        // Scaled modules parse too (sample).
        for p in [0usize, TOTAL_MODULES, total - 1] {
            let m = stream.module_at(p);
            assert!(!m.parse().items.is_empty());
        }
    }

    /// The critical calibration check: for a sample of modules across all
    /// categories, the *measured* error counts under all three modes must
    /// equal the composition's prediction. (The full 589-module sweep is
    /// the experiment itself — `localias experiment`.)
    #[test]
    fn measured_counts_match_expectations_on_a_sample() {
        use localias_core::SharedAnalysis;
        use localias_cqual::check_modes;
        let corpus = generate(DEFAULT_SEED);
        let mut checked = [0usize; 4];
        for m in &corpus {
            let slot = match m.category {
                Category::Clean => 0,
                Category::RealBugs => 1,
                Category::Recovered => 2,
                Category::Partial => 3,
            };
            if checked[slot] >= 4 {
                continue;
            }
            checked[slot] += 1;
            let parsed = m.parse();
            let [nc, cf, as_] =
                check_modes(&mut SharedAnalysis::new(&parsed)).map(|r| r.error_count());
            assert_eq!(
                (nc, cf, as_),
                (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
                "{} ({:?}):\n{}",
                m.name,
                m.category,
                m.source
            );
        }
        assert_eq!(checked, [4, 4, 4, 4]);
    }
}
