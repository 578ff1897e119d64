//! The paper's §7 tables, rendered from one sweep's per-module results:
//! the paper-vs-measured summary, the Figure 6 histogram and the
//! Figure 7 table. `localias experiment` prints all three after a sweep
//! of the whole paper corpus.

use crate::{category_counts, ModuleResult};
use localias_corpus::FIGURE7;
use localias_obs::text_histogram;
use std::fmt::Write as _;

/// Figure 6's buckets of eliminated errors: `(lo, hi, label)`, inclusive.
const FIGURE6_BUCKETS: [(usize, usize, &str); 10] = [
    (0, 0, "0"),
    (1, 1, "1"),
    (2, 2, "2"),
    (3, 4, "3-4"),
    (5, 8, "5-8"),
    (9, 16, "9-16"),
    (17, 32, "17-32"),
    (33, 64, "33-64"),
    (65, 128, "65-128"),
    (129, usize::MAX, "129+"),
];

/// The §7 table, Figure 6 and Figure 7, in that order.
pub fn render(results: &[ModuleResult], seed: u64) -> String {
    let mut out = summary_table(results, seed);
    out.push_str(&figure6(results, seed));
    out.push_str(&figure7(results));
    out
}

/// The §7 summary statistics next to the paper's values.
fn summary_table(results: &[ModuleResult], seed: u64) -> String {
    let [clean, real, full, partial] = category_counts(results);
    let potential: usize = results.iter().map(ModuleResult::potential).sum();
    let eliminated: usize = results.iter().map(ModuleResult::eliminated).sum();
    let pct = 100.0 * eliminated as f64 / potential as f64;
    let rows = [
        ("modules analyzed", 589, results.len()),
        ("error-free without confine", 352, clean),
        ("errors unrelated to weak updates", 85, real),
        ("confine == all-strong (fully recovered)", 138, full),
        ("confine misses strong updates (Figure 7)", 14, partial),
        ("potentially eliminable type errors", 3277, potential),
        ("eliminated by confine inference", 3116, eliminated),
    ];

    let mut s = String::new();
    let _ = writeln!(
        s,
        "Section 7 experiment — {} modules (seed {seed})",
        results.len()
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "{:<46} {:>8} {:>8}", "", "paper", "measured");
    for (label, paper, measured) in rows {
        let _ = writeln!(s, "{label:<46} {paper:>8} {measured:>8}");
    }
    let _ = writeln!(s, "{:<46} {:>7}% {:>7.0}%", "elimination rate", 95, pct);
    let _ = writeln!(s);
    s
}

/// Figure 6: how many spurious errors confine inference eliminated, over
/// the modules where strong updates matter.
fn figure6(results: &[ModuleResult], seed: u64) -> String {
    let eliminations: Vec<usize> = results
        .iter()
        .filter(|r| r.no_confine > r.all_strong)
        .map(ModuleResult::eliminated)
        .collect();
    let buckets: Vec<(String, usize)> = FIGURE6_BUCKETS
        .iter()
        .map(|&(lo, hi, label)| {
            let n = eliminations.iter().filter(|&&e| lo <= e && e <= hi).count();
            (label.to_string(), n)
        })
        .collect();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 6: spurious type errors eliminated by confine inference"
    );
    let _ = writeln!(
        s,
        "({} modules where strong updates matter, seed {seed})",
        eliminations.len()
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "  eliminated | modules");
    s.push_str(&text_histogram(&buckets, 50));
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "total eliminated: {} (paper: 3,116)",
        eliminations.iter().sum::<usize>()
    );
    s
}

/// Figure 7: the paper's partially recovered modules, each measured
/// error count next to the paper's.
///
/// # Panics
///
/// If a Figure 7 module is missing from `results`; every sweep of the
/// paper corpus holds all fourteen, under any seed.
fn figure7(results: &[ModuleResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 7: modules where confine inference misses strong updates"
    );
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "{:<18} {:>24} {:>24} {:>24}",
        "module", "no confine", "confine inference", "all updates strong"
    );
    let _ = writeln!(
        s,
        "{:<18} {:>12} {:>11} {:>12} {:>11} {:>12} {:>11}",
        "", "paper", "measured", "paper", "measured", "paper", "measured"
    );
    let mut exact = 0;
    for &(name, nc, cf, as_) in &FIGURE7 {
        let r = results
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the sweep"));
        if (r.no_confine, r.confine, r.all_strong) == (nc, cf, as_) {
            exact += 1;
        }
        let _ = writeln!(
            s,
            "{:<18} {:>12} {:>11} {:>12} {:>11} {:>12} {:>11}",
            name, nc, r.no_confine, cf, r.confine, as_, r.all_strong
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "{exact}/{} rows match the paper exactly", FIGURE7.len());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str, no_confine: usize, confine: usize, all_strong: usize) -> ModuleResult {
        ModuleResult {
            name: name.into(),
            no_confine,
            confine,
            all_strong,
        }
    }

    fn figure7_rows() -> Vec<ModuleResult> {
        FIGURE7
            .iter()
            .map(|&(name, nc, cf, as_)| r(name, nc, cf, as_))
            .collect()
    }

    #[test]
    fn summary_counts_each_category_and_the_rate() {
        let results = [
            r("a", 0, 0, 0),
            r("b", 0, 0, 0),
            r("c", 3, 3, 3),
            r("d", 4, 1, 1),
            r("e", 5, 2, 0),
        ];
        let text = summary_table(&results, 7);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Section 7 experiment — 5 modules (seed 7)");
        let row = |label: &str, paper: usize, measured: usize| {
            format!("{label:<46} {paper:>8} {measured:>8}")
        };
        for want in [
            row("modules analyzed", 589, 5),
            row("error-free without confine", 352, 2),
            row("errors unrelated to weak updates", 85, 1),
            row("confine == all-strong (fully recovered)", 138, 1),
            row("confine misses strong updates (Figure 7)", 14, 1),
            // d could lose 3 and loses 3; e could lose 5 and loses 3.
            row("potentially eliminable type errors", 3277, 8),
            row("eliminated by confine inference", 3116, 6),
        ] {
            assert!(lines.contains(&want.as_str()), "{want:?} missing:\n{text}");
        }
        let rate = format!("{:<46} {:>7}% {:>7.0}%", "elimination rate", 95, 75.0);
        assert!(lines.contains(&rate.as_str()), "{text}");
        assert!(text.ends_with("\n\n"), "a blank line closes the table");
    }

    #[test]
    fn figure6_buckets_are_inclusive_and_open_ended() {
        // One module per elimination count, each one where strong
        // updates matter (no-confine above all-strong).
        let mut results: Vec<ModuleResult> = [0, 1, 3, 129]
            .iter()
            .map(|&k| r("m", k + 1, 1, 0))
            .collect();
        // A module where strong updates do not matter stays out.
        results.push(r("real", 2, 2, 2));
        let text = figure6(&results, 1);
        assert!(text.contains("(4 modules where strong updates matter, seed 1)"));
        assert!(text.ends_with("total eliminated: 133 (paper: 3,116)\n"));
        let filled: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                let (label, bar) = l.split_once(" | ")?;
                bar.ends_with(" 1").then_some(label.trim())
            })
            .collect();
        assert_eq!(filled, ["0", "1", "3-4", "129+"], "{text}");
    }

    #[test]
    fn figure7_counts_exact_rows() {
        let mut results = figure7_rows();
        let text = figure7(&results);
        assert!(
            text.ends_with("\n14/14 rows match the paper exactly\n"),
            "{text}"
        );
        let first = &FIGURE7[0];
        let row = format!(
            "{:<18} {:>12} {:>11} {:>12} {:>11} {:>12} {:>11}",
            first.0, first.1, first.1, first.2, first.2, first.3, first.3
        );
        assert!(text.lines().any(|l| l == row), "{row:?} missing:\n{text}");

        results[3].confine += 1;
        let text = figure7(&results);
        assert!(
            text.ends_with("\n13/14 rows match the paper exactly\n"),
            "{text}"
        );
    }

    #[test]
    fn render_is_the_three_tables_in_order() {
        let results = figure7_rows();
        let text = render(&results, 3);
        let want = summary_table(&results, 3) + &figure6(&results, 3) + &figure7(&results);
        assert_eq!(text, want);
    }
}
