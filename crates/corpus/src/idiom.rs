//! Locking idioms with known per-mode error signatures.
//!
//! Every idiom is a self-contained set of top-level items (its own
//! globals and functions, name-spaced by a tag), and contributes an exact
//! `(no-confine, confine-inference, all-strong)` error triple. Module
//! totals are therefore the sum of their idioms' triples — the property
//! the Section 7 calibration relies on. Each signature below is verified
//! against the real analyses by this crate's tests.

use std::fmt;

/// Expected lock type errors for one module (or idiom) under the three
/// analysis modes of the Section 7 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    /// Without confine inference (weak updates on shared locations).
    pub no_confine: usize,
    /// With confine inference.
    pub confine: usize,
    /// Assuming every update is strong (the upper bound on recovery).
    pub all_strong: usize,
}

impl std::ops::Add for Expected {
    type Output = Expected;

    /// Componentwise sum — module totals are the sums of their idioms.
    fn add(self, other: Expected) -> Expected {
        Expected {
            no_confine: self.no_confine + other.no_confine,
            confine: self.confine + other.confine,
            all_strong: self.all_strong + other.all_strong,
        }
    }
}

impl Expected {
    /// Spurious errors confine inference can potentially eliminate.
    pub fn potential(self) -> usize {
        self.no_confine - self.all_strong
    }

    /// Spurious errors confine inference actually eliminates.
    pub fn eliminated(self) -> usize {
        self.no_confine - self.confine
    }
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}",
            self.no_confine, self.confine, self.all_strong
        )
    }
}

/// One generated idiom: source items plus its expected signature.
#[derive(Debug, Clone)]
pub struct Idiom {
    /// Top-level Mini-C items (globals, structs, functions).
    pub source: String,
    /// Expected error triple.
    pub expect: Expected,
}

fn idiom(source: String, no_confine: usize, confine: usize, all_strong: usize) -> Idiom {
    Idiom {
        source,
        expect: Expected {
            no_confine,
            confine,
            all_strong,
        },
    }
}

// ---- Clean idioms (0/0/0) ---------------------------------------------------

/// A driver routine guarding shared state with a single static lock —
/// a single-object location, strongly updatable without any confine.
pub fn clean_scalar_pair(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
int {tag}_count;
extern void {tag}_io();
void {tag}_update() {{
    spin_lock(&{tag}_mu);
    {tag}_count = {tag}_count + 1;
    {tag}_io();
    spin_unlock(&{tag}_mu);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// The paper's Figure 1 pattern with a `restrict`-qualified parameter:
/// the callee works on a single-object copy of whatever lock it is given.
pub fn clean_restrict_helper(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[8];
extern void {tag}_work();
void {tag}_with(lock *restrict l) {{
    spin_lock(l);
    {tag}_work();
    spin_unlock(l);
}}
void {tag}_entry(int i) {{
    {tag}_with(&{tag}_locks[i]);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// Lock-free bookkeeping code (buffers, counters, checksums).
pub fn clean_math(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
int {tag}_buf[16];
int {tag}_len;
int {tag}_sum(int n) {{
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {{
        acc = acc + {tag}_buf[i];
    }}
    return acc;
}}
void {tag}_reset(int n) {{
    for (int i = 0; i < n; i = i + 1) {{
        {tag}_buf[i] = 0;
    }}
    {tag}_len = 0;
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// A device struct with a scalar lock guarding its state — balanced
/// branches under the lock.
pub fn clean_branchy(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_state_mu;
int {tag}_state;
extern void {tag}_tx();
extern void {tag}_rx();
void {tag}_irq(int kind) {{
    spin_lock(&{tag}_state_mu);
    if (kind == 1) {{
        {tag}_tx();
        {tag}_state = 1;
    }} else {{
        {tag}_rx();
        {tag}_state = 2;
    }}
    spin_unlock(&{tag}_state_mu);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// A hand-annotated driver using the C99-style `restrict` declaration:
/// already clean without inference.
pub fn clean_restrict_decl(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[8];
extern void {tag}_poll();
void {tag}_service(int i) {{
    restrict lock *l = &{tag}_locks[i];
    spin_lock(l);
    {tag}_poll();
    spin_unlock(l);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// An interrupt-handler shape: early return on a spurious interrupt, the
/// main path does guarded work — all under a scalar lock, all balanced.
pub fn clean_irq_early_return(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_irq_mu;
int {tag}_pending;
extern int {tag}_spurious();
extern void {tag}_ack();
void {tag}_isr() {{
    spin_lock(&{tag}_irq_mu);
    if ({tag}_spurious()) {{
        spin_unlock(&{tag}_irq_mu);
        return;
    }}
    {tag}_pending = {tag}_pending + 1;
    {tag}_ack();
    spin_unlock(&{tag}_irq_mu);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// A two-level helper chain: the leaf takes a `restrict` lock parameter,
/// the middle helper forwards it, the entry point passes an array element.
pub fn clean_helper_chain(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[8];
extern void {tag}_body();
void {tag}_leaf(lock *restrict l) {{
    spin_lock(l);
    {tag}_body();
    spin_unlock(l);
}}
void {tag}_mid(lock *restrict l, int times) {{
    for (int k = 0; k < times; k = k + 1) {{
        {tag}_leaf(l);
    }}
}}
void {tag}_entry(int i) {{
    {tag}_mid(&{tag}_locks[i], 2);
}}
"#
        ),
        0,
        0,
        0,
    )
}

// ---- Weak-update idioms (recoverable by confine) ----------------------------

/// `k` sequential lock/unlock pairs on one element of a per-device lock
/// array, in one function. Weak updates verify only the very first
/// acquire; confine inference recovers everything.
///
/// Signature: `(2k-1, 0, 0)`.
pub fn straight_pairs(tag: &str, k: usize) -> Idiom {
    assert!(k >= 1);
    let mut body = String::new();
    for step in 0..k {
        body.push_str(&format!(
            "    spin_lock(&{tag}_locks[i]);\n    {tag}_step{step}();\n    spin_unlock(&{tag}_locks[i]);\n"
        ));
    }
    let mut externs = String::new();
    for step in 0..k {
        externs.push_str(&format!("extern void {tag}_step{step}();\n"));
    }
    idiom(
        format!(
            r#"
lock {tag}_locks[16];
{externs}void {tag}_service(int i) {{
{body}}}
"#
        ),
        2 * k - 1,
        0,
        0,
    )
}

/// A lock/unlock pair inside a loop over the device array. The loop-head
/// join drives the weak state to ⊤, failing both sites; confine inference
/// recovers both.
///
/// Signature: `(2, 0, 0)`.
pub fn loop_pair(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[16];
extern void {tag}_flush();
void {tag}_flush_all(int n) {{
    for (int i = 0; i < n; i = i + 1) {{
        spin_lock(&{tag}_locks[i]);
        {tag}_flush();
        spin_unlock(&{tag}_locks[i]);
    }}
}}
"#
        ),
        2,
        0,
        0,
    )
}

/// `k` pairs through a device-struct field (`&d->mu`), field-based
/// aliasing conflating all instances.
///
/// Signature: `(2k-1, 0, 0)`.
pub fn struct_pairs(tag: &str, k: usize) -> Idiom {
    assert!(k >= 1);
    let mut body = String::new();
    for step in 0..k {
        body.push_str(&format!(
            "    spin_lock(&d->mu);\n    d->n = d->n + {step};\n    spin_unlock(&d->mu);\n"
        ));
    }
    idiom(
        format!(
            r#"
struct {tag}_dev {{ lock mu; int n; }};
struct {tag}_dev {tag}_devs[8];
void {tag}_touch(int i) {{
    struct {tag}_dev *d = &{tag}_devs[i];
{body}}}
"#
        ),
        2 * k - 1,
        0,
        0,
    )
}

/// A device-scan loop with an early `break` on the first hit — each
/// iteration locks one device struct's lock, through field-based
/// aliasing. Weak updates fail the loop-carried state; confine inference
/// covers the whole body including the break path.
///
/// Signature: `(3, 0, 0)`.
pub fn scan_loop(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
struct {tag}_dev {{ lock mu; int id; }};
struct {tag}_dev {tag}_devs[8];
extern void {tag}_claim();
void {tag}_find(int want, int n) {{
    for (int i = 0; i < n; i = i + 1) {{
        struct {tag}_dev *d = &{tag}_devs[i];
        spin_lock(&d->mu);
        if (d->id == want) {{
            {tag}_claim();
            spin_unlock(&d->mu);
            break;
        }}
        spin_unlock(&d->mu);
    }}
}}
"#
        ),
        3,
        0,
        0,
    )
}

// ---- Confine-resistant idioms (Figure 7 failure modes) ----------------------

/// The lock pointer is laundered through an incompatible cast before the
/// pair; the may-alias analysis loses track (taint) and confine inference
/// cannot verify the candidate. All-strong still verifies both sites.
///
/// Signature: `(1, 1, 0)`.
pub fn cast_pair(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[8];
int {tag}_cookie;
extern void {tag}_dma();
void {tag}_start(int i) {{
    {tag}_cookie = (int) (&{tag}_locks[i]);
    spin_lock(&{tag}_locks[i]);
    {tag}_dma();
    spin_unlock(&{tag}_locks[i]);
}}
"#
        ),
        1,
        1,
        0,
    )
}

/// Hand-over-hand acquisition of two elements of the same array: the two
/// names share one abstract location. The inner section (`j`) is still
/// confinable — its scope contains no stale-alias access — but the outer
/// one is not, and even all-strong updates cannot tell the elements
/// apart, so two sites stay unverifiable in every recovery mode.
///
/// Signature: `(3, 2, 2)`.
pub fn cross_elements(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_locks[8];
extern void {tag}_move();
void {tag}_transfer(int i, int j) {{
    spin_lock(&{tag}_locks[i]);
    spin_lock(&{tag}_locks[j]);
    {tag}_move();
    spin_unlock(&{tag}_locks[j]);
    spin_unlock(&{tag}_locks[i]);
}}
"#
        ),
        3,
        2,
        2,
    )
}

// ---- Genuine bugs (1/1/1) ----------------------------------------------------

/// A real double acquire on a scalar lock — reported in every mode.
pub fn double_acquire(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
extern void {tag}_cfg();
void {tag}_init() {{
    spin_lock(&{tag}_mu);
    {tag}_cfg();
    spin_lock(&{tag}_mu);
    spin_unlock(&{tag}_mu);
}}
"#
        ),
        1,
        1,
        1,
    )
}

/// A lock acquired on only one path before an unconditional release — the
/// classic forgotten-else bug.
pub fn unbalanced_branch(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
extern void {tag}_slow();
void {tag}_maybe(int c) {{
    if (c) {{
        spin_lock(&{tag}_mu);
        {tag}_slow();
    }}
    spin_unlock(&{tag}_mu);
}}
"#
        ),
        1,
        1,
        1,
    )
}

// ---- Adversarial idioms (the differential fuzzer's catalog) -----------------
//
// These shapes stress the places where static lock state and dynamic
// lock state can drift apart: multiple locks per object, conditional
// acquire/release correlation, interrupt re-entry, interprocedural
// handoff, aliased release, and recursion. Each still carries an exact
// verified triple so it can also ride in calibrated corpora, but its
// first job is feeding `localias fuzz`, where the interpreter decides
// the ground truth independently of these numbers.

/// A reader/writer lock modeled as a two-lock struct: the write side
/// takes both, the read side only the reader gate. Balanced on every
/// path and dynamically silent; field-based aliasing makes the struct's
/// lock fields weakly-updatable, so three release sites need confine
/// inference to verify.
///
/// Signature: `(3, 0, 0)`.
pub fn rwlock_pair(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
struct {tag}_rw {{ lock r; lock w; }};
struct {tag}_rw {tag}_gate;
int {tag}_shared;
extern void {tag}_publish();
int {tag}_read() {{
    spin_lock(&{tag}_gate.r);
    int v = {tag}_shared;
    spin_unlock(&{tag}_gate.r);
    return v;
}}
void {tag}_write(int v) {{
    spin_lock(&{tag}_gate.r);
    spin_lock(&{tag}_gate.w);
    {tag}_shared = v;
    {tag}_publish();
    spin_unlock(&{tag}_gate.w);
    spin_unlock(&{tag}_gate.r);
}}
"#
        ),
        3,
        0,
        0,
    )
}

/// A broken rwlock downgrade: the writer releases the write lock, then
/// the "downgrade" path releases it *again* before dropping the reader
/// gate. A genuine conditional double release — reported in every mode
/// (plus two weak-update release sites confine inference recovers), and
/// dynamically faulting whenever the downgrade path runs.
///
/// Signature: `(3, 1, 1)`.
pub fn rwlock_bad_downgrade(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
struct {tag}_rw {{ lock r; lock w; }};
struct {tag}_rw {tag}_gate;
int {tag}_shared;
void {tag}_write_downgrade(int d) {{
    spin_lock(&{tag}_gate.r);
    spin_lock(&{tag}_gate.w);
    {tag}_shared = d;
    spin_unlock(&{tag}_gate.w);
    if (d) {{
        spin_unlock(&{tag}_gate.w);
    }}
    spin_unlock(&{tag}_gate.r);
}}
"#
        ),
        3,
        1,
        1,
    )
}

/// The trylock idiom: acquisition guarded by a contention probe, release
/// guarded by the matching flag. Dynamically the two conditions always
/// agree, so execution is balanced; the flow-sensitive checker cannot
/// correlate the two branches and reports the release in every mode — a
/// pure false-positive probe (static noise, dynamic silence).
pub fn trylock_flagged(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
int {tag}_stat;
extern int {tag}_contended();
void {tag}_try_update(int v) {{
    int got = 0;
    if ({tag}_contended() == 0) {{
        spin_lock(&{tag}_mu);
        got = 1;
    }}
    if (got) {{
        {tag}_stat = v;
        spin_unlock(&{tag}_mu);
    }}
}}
"#
        ),
        1,
        1,
        1,
    )
}

/// Interrupt-context re-entry: an interrupt handler acquires the lock
/// its interrupted context already holds (modeled as a direct call while
/// holding). The checker sees the handler's entry requirement clash with
/// the held state at the call site; the interpreter observes the double
/// acquire (and the cascading unheld release). Under confine inference
/// the handler's pair lives in a confine scope, which hides its entry
/// requirement from the caller — one error instead of two.
///
/// Signature: `(2, 1, 2)`.
pub fn irq_reentrant_acquire(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_irq_mu;
int {tag}_events;
void {tag}_isr() {{
    spin_lock(&{tag}_irq_mu);
    {tag}_events = {tag}_events + 1;
    spin_unlock(&{tag}_irq_mu);
}}
void {tag}_top_half(int pending) {{
    spin_lock(&{tag}_irq_mu);
    {tag}_events = 0;
    if (pending) {{
        {tag}_isr();
    }}
    spin_unlock(&{tag}_irq_mu);
}}
"#
        ),
        2,
        1,
        2,
    )
}

/// Lock handoff through a struct field across a call boundary: `begin`
/// returns with the device lock held, `end` releases it. The `txn`
/// entry is balanced at run time, but `end` *alone* releases an unheld
/// lock — dynamically and statically (its entry state assumes unlocked),
/// so one error survives even all-strong updates; field-based weak
/// updates add a second, recoverable only by strong updates.
///
/// Signature: `(2, 2, 1)`.
pub fn handoff_struct_field(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
struct {tag}_dev {{ lock mu; int state; }};
struct {tag}_dev {tag}_dev0;
void {tag}_begin() {{
    spin_lock(&{tag}_dev0.mu);
    {tag}_dev0.state = 1;
}}
void {tag}_end() {{
    {tag}_dev0.state = 0;
    spin_unlock(&{tag}_dev0.mu);
}}
void {tag}_txn(int v) {{
    {tag}_begin();
    {tag}_dev0.state = v;
    {tag}_end();
}}
"#
        ),
        2,
        2,
        1,
    )
}

/// Release via an escaping alias: the lock's address escapes to a global
/// before a restrict scope acquires through the scoped name, and the
/// release after the scope goes through the stale global. The copy-out
/// at scope exit hands the held state back to the original location, so
/// the checker can verify the aliased release — clean, and balanced at
/// run time.
pub fn escaping_alias_release(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
lock *{tag}_saved;
extern void {tag}_work();
void {tag}_handoff() {{
    {tag}_saved = &{tag}_mu;
    restrict l = &{tag}_mu {{
        spin_lock(l);
        {tag}_work();
    }}
    spin_unlock({tag}_saved);
}}
"#
        ),
        0,
        0,
        0,
    )
}

/// The forgotten-error-path bug: release, then release again on the
/// error path. Reported in every mode; dynamically faults whenever the
/// error path runs.
pub fn conditional_double_release(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
extern int {tag}_commit();
void {tag}_finish() {{
    spin_lock(&{tag}_mu);
    int err = {tag}_commit();
    spin_unlock(&{tag}_mu);
    if (err == 0) {{
        spin_unlock(&{tag}_mu);
    }}
}}
"#
        ),
        1,
        1,
        1,
    )
}

/// The recursion-havoc shape that surfaced the v3 soundness fix: a
/// mutually recursive clique acquires a lock the non-recursive tail of
/// its partner then re-acquires. Before v3 the checker reported nothing
/// (havoc only topped *touched* locations, and `mu` was untouched at
/// the call site); the interpreter double-acquires on any entry with
/// `n >= 1`. See `crates/cqual/tests/fuzz_regressions.rs`.
pub fn recursive_relock(tag: &str) -> Idiom {
    idiom(
        format!(
            r#"
lock {tag}_mu;
void {tag}_a(int n) {{
    if (n) {{
        {tag}_b(n - 1);
    }}
    spin_lock(&{tag}_mu);
    spin_unlock(&{tag}_mu);
}}
void {tag}_b(int n) {{
    {tag}_a(n);
    spin_lock(&{tag}_mu);
}}
"#
        ),
        1,
        1,
        1,
    )
}

/// Decomposes an eliminated-error quota into weak-update idioms: loop
/// pairs contribute 2, straight pairs `2k-1` (odd). Any `q ≥ 1` is
/// representable; pair counts are capped for readable functions.
pub fn weak_update_idioms(tag: &str, mut q: usize) -> Vec<Idiom> {
    let mut out = Vec::new();
    let mut n = 0usize;
    while q > 0 {
        let sub = format!("{tag}_w{n}");
        n += 1;
        if q.is_multiple_of(2) {
            out.push(loop_pair(&sub));
            q -= 2;
        } else if q >= 3 && n % 4 == 1 {
            out.push(scan_loop(&sub));
            q -= 3;
        } else {
            let k = q.div_ceil(2).min(8);
            if n.is_multiple_of(3) {
                out.push(struct_pairs(&sub, k));
            } else {
                out.push(straight_pairs(&sub, k));
            }
            q -= 2 * k - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_arithmetic() {
        let e = Expected {
            no_confine: 5,
            confine: 2,
            all_strong: 1,
        };
        assert_eq!(e.potential(), 4);
        assert_eq!(e.eliminated(), 3);
        let sum = e + Expected {
            no_confine: 1,
            confine: 1,
            all_strong: 1,
        };
        assert_eq!(sum.no_confine, 6);
        assert_eq!(e.to_string(), "5/2/1");
    }

    #[test]
    fn weak_update_decomposition_hits_quota() {
        for q in 1..=60 {
            let idioms = weak_update_idioms("t", q);
            let total: usize = idioms.iter().map(|i| i.expect.no_confine).sum();
            assert_eq!(total, q, "quota {q}");
            assert!(idioms
                .iter()
                .all(|i| i.expect.confine == 0 && i.expect.all_strong == 0));
        }
    }

    #[test]
    fn idiom_sources_parse() {
        let samples = [
            clean_scalar_pair("a"),
            clean_restrict_helper("b"),
            clean_math("c"),
            clean_branchy("d"),
            clean_restrict_decl("r"),
            clean_irq_early_return("q"),
            clean_helper_chain("h"),
            straight_pairs("e", 3),
            loop_pair("f"),
            scan_loop("s"),
            struct_pairs("g", 2),
            cast_pair("h"),
            cross_elements("i"),
            double_acquire("j"),
            unbalanced_branch("k"),
        ];
        for (n, s) in samples.iter().enumerate() {
            localias_ast::parse_module("m", &s.source)
                .unwrap_or_else(|e| panic!("idiom {n} failed to parse: {e}\n{}", s.source));
        }
    }

    #[test]
    fn adversarial_triples_match_the_real_analyses() {
        use localias_core::SharedAnalysis;
        use localias_cqual::check_modes;
        let samples = [
            ("rwlock_pair", rwlock_pair("t")),
            ("rwlock_bad_downgrade", rwlock_bad_downgrade("t")),
            ("trylock_flagged", trylock_flagged("t")),
            ("irq_reentrant_acquire", irq_reentrant_acquire("t")),
            ("handoff_struct_field", handoff_struct_field("t")),
            ("escaping_alias_release", escaping_alias_release("t")),
            (
                "conditional_double_release",
                conditional_double_release("t"),
            ),
            ("recursive_relock", recursive_relock("t")),
        ];
        for (name, s) in &samples {
            let m = localias_ast::parse_module("m", &s.source)
                .unwrap_or_else(|e| panic!("{name} failed to parse: {e}\n{}", s.source));
            let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&m))
                .0
                .map(|r| r.error_count());
            let got = (nc, cf, st);
            let want = (s.expect.no_confine, s.expect.confine, s.expect.all_strong);
            assert_eq!(got, want, "{name} triple");
        }
    }
}
