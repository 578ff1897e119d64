//! The Section 7 population plan.
//!
//! The paper analyzed 589 whole device-driver modules:
//!
//! * **352** were free of type errors without any confine;
//! * **85** had errors, but identical with and without strong updates
//!   (genuine bugs, not weak-update artifacts);
//! * **152** had errors that strong updates could reduce; of these,
//!   confine inference fully matched all-strong in **138**, and fell
//!   short in **14** (the paper's Figure 7 table).
//!
//! Summed over all modules, strong updates could eliminate **3,277**
//! errors and confine inference eliminated **3,116** (95%). These totals
//! are internally consistent: Figure 7's rows account for a potential of
//! 503 and an elimination of 342, so the 138 fully-recovered modules must
//! carry exactly 2,774 eliminated errors — which is how this plan
//! calibrates their quotas.

use crate::idiom::Expected;

/// Number of modules in the corpus.
pub const TOTAL_MODULES: usize = 589;
/// Modules with no lock type errors at all.
pub const CLEAN_MODULES: usize = 352;
/// Modules whose errors are genuine (no-confine == all-strong > 0).
pub const REAL_BUG_MODULES: usize = 85;
/// Modules fully recovered by confine inference.
pub const RECOVERED_MODULES: usize = 138;
/// Modules only partially recovered (Figure 7).
pub const PARTIAL_MODULES: usize = 14;

/// Total spurious errors strong updates could eliminate.
pub const TOTAL_POTENTIAL: usize = 3277;
/// Total spurious errors confine inference eliminates.
pub const TOTAL_ELIMINATED: usize = 3116;

/// The paper's Figure 7: modules where confine inference does not infer
/// all possible strong updates — `(name, no-confine, confine,
/// all-strong)`.
pub const FIGURE7: [(&str, usize, usize, usize); 14] = [
    ("wavelan_cs", 22, 16, 15),
    ("trix", 29, 24, 22),
    ("netrom", 41, 25, 0),
    ("rose", 47, 28, 0),
    ("usb_ohci", 32, 26, 17),
    ("uhci", 74, 45, 34),
    ("sb", 31, 24, 22),
    ("ide_tape", 58, 47, 41),
    ("mad16", 29, 24, 22),
    ("emu10k1", 198, 60, 35),
    ("trident", 107, 49, 36),
    ("digi_acceleport", 62, 32, 4),
    ("sbni", 23, 16, 9),
    ("iph5526", 39, 34, 32),
];

/// Which population slice a module belongs to, in the order §7 reports
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// No lock type errors in any mode.
    Clean,
    /// Errors identical across all three modes (genuine bugs only).
    RealBugs,
    /// Weak-update errors fully recovered by confine inference.
    Recovered,
    /// Confine inference misses some strong updates (Figure 7 analogue).
    Partial,
}

/// The decomposition of a Figure 7 row into idiom counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialMix {
    /// Weak-update errors fully recoverable (confinable pairs), `(q,0,0)`
    /// worth `q = nc - cf`.
    pub weak_quota: usize,
    /// Cast-obscured pairs `(1,1,0)`.
    pub casts: usize,
    /// Cross-element hand-over-hand sequences `(3,2,2)`.
    pub crosses: usize,
    /// Genuine scalar bugs `(1,1,1)`.
    pub bugs: usize,
}

/// Decomposes a `(no-confine, confine, all-strong)` target into idiom
/// counts such that the idiom sum reproduces the target exactly.
///
/// # Panics
///
/// Panics if the target is not representable (requires `nc ≥ cf ≥ as`),
/// which never happens for [`FIGURE7`].
pub fn decompose_partial(nc: usize, cf: usize, as_: usize) -> PartialMix {
    assert!(nc >= cf && cf >= as_, "invalid target {nc}/{cf}/{as_}");
    let crosses = (nc - cf).min(as_ / 2).min(2);
    let weak_quota = nc - cf - crosses;
    let bugs = as_ - 2 * crosses;
    let casts = cf - as_;
    let mix = PartialMix {
        weak_quota,
        casts,
        crosses,
        bugs,
    };
    debug_assert_eq!(
        mix.expected(),
        Expected {
            no_confine: nc,
            confine: cf,
            all_strong: as_,
        }
    );
    mix
}

impl PartialMix {
    /// The triple this mix reproduces.
    pub fn expected(&self) -> Expected {
        Expected {
            no_confine: self.weak_quota + self.casts + 3 * self.crosses + self.bugs,
            confine: self.casts + 2 * self.crosses + self.bugs,
            all_strong: 2 * self.crosses + self.bugs,
        }
    }
}

/// Eliminated-error quotas for the 138 fully-recovered modules. The base
/// distribution is skewed (most modules lose only a handful of spurious
/// errors, a few lose very many — the Figure 6 shape); the residue needed
/// to hit [`RECOVERED_TOTAL`] exactly is folded into the largest modules.
pub fn recovered_quotas() -> Vec<usize> {
    // (quota, module count) — a smooth power-law-ish decay.
    const BASE: [(usize, usize); 22] = [
        (1, 28),
        (2, 22),
        (3, 14),
        (4, 10),
        (5, 8),
        (6, 6),
        (8, 6),
        (10, 5),
        (13, 5),
        (17, 4),
        (22, 4),
        (28, 4),
        (35, 3),
        (45, 3),
        (60, 3),
        (80, 3),
        (100, 2),
        (120, 2),
        (140, 2),
        (160, 2),
        (180, 1),
        (200, 1),
    ];
    let mut quotas: Vec<usize> = BASE
        .iter()
        .flat_map(|&(q, n)| std::iter::repeat_n(q, n))
        .collect();
    assert_eq!(quotas.len(), RECOVERED_MODULES);
    let base_sum: usize = quotas.iter().sum();
    let mut deficit = RECOVERED_TOTAL - base_sum;
    // Spread the residue over the largest modules, round-robin.
    let tail = 20.min(quotas.len());
    let start = quotas.len() - tail;
    while deficit > 0 {
        for q in quotas[start..].iter_mut().rev() {
            if deficit == 0 {
                break;
            }
            let add = deficit.min(8);
            *q += add;
            deficit -= add;
        }
    }
    debug_assert_eq!(quotas.iter().sum::<usize>(), RECOVERED_TOTAL);
    quotas
}

/// Eliminated errors the recovered modules must carry in total.
pub const RECOVERED_TOTAL: usize = TOTAL_ELIMINATED - {
    // Figure 7's eliminated errors: Σ (nc - cf).
    let mut i = 0;
    let mut sum = 0;
    while i < FIGURE7.len() {
        sum += FIGURE7[i].1 - FIGURE7[i].2;
        i += 1;
    }
    sum
};

/// Genuine-bug counts for the 85 real-bug modules.
pub fn real_bug_counts() -> Vec<usize> {
    const DIST: [(usize, usize); 6] = [(1, 40), (2, 20), (3, 12), (4, 7), (5, 4), (6, 2)];
    let out: Vec<usize> = DIST
        .iter()
        .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
        .collect();
    assert_eq!(out.len(), REAL_BUG_MODULES);
    out
}

/// How many of the recovered modules additionally carry genuine bugs.
///
/// The paper reports that, even assuming all updates are strong, 137
/// modules still have type errors: the 85 real-bug modules, the 12
/// Figure 7 modules with a nonzero all-strong column, and 40 recovered
/// modules with real bugs alongside their weak-update artifacts.
pub const RECOVERED_WITH_BUGS: usize = 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_adds_up() {
        assert_eq!(
            CLEAN_MODULES + REAL_BUG_MODULES + RECOVERED_MODULES + PARTIAL_MODULES,
            TOTAL_MODULES
        );
    }

    #[test]
    fn figure7_totals_are_consistent_with_the_paper() {
        let potential: usize = FIGURE7.iter().map(|&(_, nc, _, as_)| nc - as_).sum();
        let eliminated: usize = FIGURE7.iter().map(|&(_, nc, cf, _)| nc - cf).sum();
        assert_eq!(potential, 503);
        assert_eq!(eliminated, 342);
        assert_eq!(RECOVERED_TOTAL, TOTAL_ELIMINATED - eliminated);
        // Recovered modules have confine == all-strong, so they
        // contribute equally to both totals; the grand totals follow.
        assert_eq!(RECOVERED_TOTAL + potential, TOTAL_POTENTIAL);
        assert_eq!(RECOVERED_TOTAL + eliminated, TOTAL_ELIMINATED);
        // And the headline ratio is the paper's 95%.
        let pct = TOTAL_ELIMINATED as f64 / TOTAL_POTENTIAL as f64;
        assert!((0.95..0.96).contains(&pct), "{pct}");
    }

    #[test]
    fn every_figure7_row_decomposes_exactly() {
        for &(name, nc, cf, as_) in &FIGURE7 {
            let mix = decompose_partial(nc, cf, as_);
            let e = mix.expected();
            assert_eq!(
                (e.no_confine, e.confine, e.all_strong),
                (nc, cf, as_),
                "{name}"
            );
        }
    }

    #[test]
    fn recovered_quotas_sum_exactly() {
        let quotas = recovered_quotas();
        assert_eq!(quotas.len(), RECOVERED_MODULES);
        assert_eq!(quotas.iter().sum::<usize>(), RECOVERED_TOTAL);
        assert!(quotas.iter().all(|&q| q >= 1));
        // Skewed shape: at least a fifth of the modules lose ≤ 2 errors.
        let small = quotas.iter().filter(|&&q| q <= 2).count();
        assert!(small * 5 >= RECOVERED_MODULES, "{small}");
    }

    #[test]
    fn real_bug_distribution() {
        let bugs = real_bug_counts();
        assert_eq!(bugs.len(), REAL_BUG_MODULES);
        assert!(bugs.iter().all(|&b| (1..=6).contains(&b)));
    }
}
