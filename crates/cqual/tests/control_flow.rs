//! Tests of the checker's control-flow precision: `break`, `continue`,
//! `return` and unreachable paths. Device drivers use early exits
//! pervasively; an analysis that merged dead paths into live ones would
//! drown in spurious errors.

use localias_ast::parse_module;
use localias_ast::Module;
use localias_core::SharedAnalysis;
use localias_cqual::{check_locks, check_modes, Mode};

fn parse(src: &str) -> Module {
    parse_module("test", src).expect("parse")
}

fn counts(src: &str) -> (usize, usize, usize) {
    let m = parse(src);
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&m))
        .0
        .map(|r| r.error_count());
    (nc, cf, st)
}

#[test]
fn early_return_under_lock_is_balanced() {
    // Classic driver shape: error path releases and returns early; the
    // main path releases at the end. Both paths are balanced.
    let (none, conf, strong) = counts(
        r#"
        lock mu;
        int state;
        extern void handle();
        void f(int err) {
            spin_lock(&mu);
            if (err) {
                spin_unlock(&mu);
                return;
            }
            handle();
            state = 1;
            spin_unlock(&mu);
        }
        "#,
    );
    assert_eq!((none, conf, strong), (0, 0, 0));
}

#[test]
fn early_return_leaking_lock_is_detected_interprocedurally() {
    // The error path forgets the unlock: the *caller* re-acquiring sees
    // a possibly-held lock.
    let m = parse(
        r#"
        lock mu;
        void leaky(int err) {
            spin_lock(&mu);
            if (err) {
                return;
            }
            spin_unlock(&mu);
        }
        void g() {
            leaky(1);
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    let r = check_locks(&m, Mode::AllStrong);
    assert!(
        r.error_count() > 0,
        "the possibly-leaked lock must fail g's acquire: {:?}",
        r.errors
    );
}

#[test]
fn code_after_return_is_dead() {
    // The spin_unlock after `return` is unreachable; the analysis must
    // not report it.
    let (_, _, strong) = counts(
        r#"
        lock mu;
        void f() {
            spin_lock(&mu);
            spin_unlock(&mu);
            return;
            spin_unlock(&mu);
        }
        "#,
    );
    assert_eq!(strong, 0, "unreachable release must not be counted");
}

#[test]
fn break_exits_with_the_lock_released() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[4];
        extern int ready();
        void f(int n) {
            for (int i = 0; i < n; i = i + 1) {
                spin_lock(&locks[i]);
                if (ready() == 0) {
                    spin_unlock(&locks[i]);
                    break;
                }
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    assert_eq!(strong, 0, "both exits are balanced");
    assert_eq!(conf, 0, "confine inference still covers the loop body");
    assert!(none > 0, "weak updates still fail on the array");
}

#[test]
fn break_while_holding_lock_is_detected() {
    // Breaking out with the lock held, then re-acquiring after the loop.
    let (_, _, strong) = counts(
        r#"
        lock mu;
        extern int cond();
        void f() {
            while (1) {
                spin_lock(&mu);
                if (cond()) {
                    break;
                }
                spin_unlock(&mu);
            }
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    assert!(strong > 0, "re-acquire after lock-holding break must fail");
}

#[test]
fn continue_respects_lock_balance() {
    let (_, _, strong) = counts(
        r#"
        lock mu;
        extern int skip(int i);
        extern void work();
        void f(int n) {
            for (int i = 0; i < n; i = i + 1) {
                spin_lock(&mu);
                if (skip(i)) {
                    spin_unlock(&mu);
                    continue;
                }
                work();
                spin_unlock(&mu);
            }
        }
        "#,
    );
    assert_eq!(strong, 0, "both iteration paths are balanced");
}

#[test]
fn continue_while_holding_lock_is_detected() {
    let (_, _, strong) = counts(
        r#"
        lock mu;
        extern int skip(int i);
        void f(int n) {
            for (int i = 0; i < n; i = i + 1) {
                spin_lock(&mu);
                if (skip(i)) {
                    continue;
                }
                spin_unlock(&mu);
            }
        }
        "#,
    );
    assert!(
        strong > 0,
        "the next iteration's acquire sees a possibly-held lock"
    );
}

#[test]
fn scan_loop_with_break_is_confinable() {
    // Realistic: search for a device, stop at the first hit.
    let (none, conf, strong) = counts(
        r#"
        struct dev { lock mu; int id; };
        struct dev devs[8];
        extern void claim();
        void find(int want, int n) {
            for (int i = 0; i < n; i = i + 1) {
                struct dev *d = &devs[i];
                spin_lock(&d->mu);
                if (d->id == want) {
                    claim();
                    spin_unlock(&d->mu);
                    break;
                }
                spin_unlock(&d->mu);
            }
        }
        "#,
    );
    assert!(
        none > 0,
        "field-based aliasing defeats weak updates: {none}"
    );
    assert_eq!(conf, 0, "confine recovers the loop body: {conf}");
    assert_eq!(strong, 0);
}

#[test]
fn nested_loops_with_breaks() {
    let (_, _, strong) = counts(
        r#"
        lock mu;
        extern int hit(int i, int j);
        void f(int n) {
            for (int i = 0; i < n; i = i + 1) {
                for (int j = 0; j < n; j = j + 1) {
                    spin_lock(&mu);
                    if (hit(i, j)) {
                        spin_unlock(&mu);
                        break;
                    }
                    spin_unlock(&mu);
                }
            }
        }
        "#,
    );
    assert_eq!(strong, 0, "inner break targets the inner loop only");
}
