//! Confine inference in detail: candidate proposal (the §7 block
//! heuristic), verification, and §6.2 outermost-scope selection.
//!
//! Run with `cargo run --example confine_scopes`.

use localias::ast::parse_module;
use localias::core::{infer_confines, ConfineSite};

const SOURCE: &str = r#"
lock locks[16];
extern void work();
extern void log_it();

// Simple case: one pair, one scope.
void simple(int i) {
    spin_lock(&locks[i]);
    work();
    spin_unlock(&locks[i]);
}

// The pair sits inside an if; the confine can float to the function
// body (the outermost scope where `i` is visible), and inference
// prefers it.
void nested(int i, int c) {
    log_it();
    if (c) {
        spin_lock(&locks[i]);
        work();
        spin_unlock(&locks[i]);
    }
}

// Not confinable: the index is recomputed between the sites, so
// &locks[i] is not referentially transparent.
void mutated(int i) {
    spin_lock(&locks[i]);
    i = i + 1;
    spin_unlock(&locks[i]);
}

// Not confinable: a second element of the same array is touched inside
// the would-be scope (an alias access).
void crossed(int i, int j) {
    spin_lock(&locks[i]);
    spin_lock(&locks[j]);
    spin_unlock(&locks[j]);
    spin_unlock(&locks[i]);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = parse_module("scopes", SOURCE)?;
    let a = infer_confines(&m);
    let outermost = a.outermost_confines(&m);

    // Each candidate's verdict is a non-explicit confine outcome.
    let candidates = a.confines.iter().filter(|c| !c.explicit).count();
    println!("{candidates} candidates proposed:");
    for (i, c) in a.confines.iter().enumerate() {
        let ConfineSite::Range { block, start, end } = c.site else {
            continue;
        };
        let status = if outermost.contains(&i) {
            "CHOSEN (outermost success)".to_string()
        } else if c.ok() {
            "succeeds (inner scope, shadowed)".to_string()
        } else {
            let reasons: Vec<String> = c.reasons.iter().map(|r| r.to_string()).collect();
            format!("rejected: {}", reasons.join("; "))
        };
        println!(
            "  confine? {:<16} block {block} stmts {start}..={end}  →  {status}",
            c.expr
        );
    }

    println!("\n{} confines placed.", outermost.len());
    assert!(!outermost.is_empty());
    Ok(())
}
