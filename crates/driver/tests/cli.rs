//! End-to-end tests of the `localias` CLI binary.

use std::process::Command;

fn localias(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_localias"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("localias-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path
}

const FIG1: &str = r#"
lock locks[8];
extern void work();
void do_with_lock(lock *restrict l) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
void foo(int i) { do_with_lock(&locks[i]); }
"#;

#[test]
fn usage_without_args() {
    let (_, err, ok) = localias(&[]);
    assert!(!ok);
    assert!(err.contains("usage"));
}

#[test]
fn parse_pretty_prints() {
    let p = write_temp("fig1.mc", FIG1);
    let (out, _, ok) = localias(&["parse", p.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("lock* restrict l"), "{out}");
    assert!(out.contains("spin_lock"));
}

#[test]
fn check_reports_ok() {
    let p = write_temp("fig1b.mc", FIG1);
    let (out, _, ok) = localias(&["check", p.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("restrict l") && out.contains(": ok"), "{out}");
    assert!(out.contains("all annotations check"), "{out}");
}

#[test]
fn check_reports_rejection() {
    let p = write_temp(
        "bad.mc",
        "void f(int *q) { restrict p = q { *p = 1; *q = 2; } }",
    );
    let (out, _, ok) = localias(&["check", p.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("REJECTED"), "{out}");
}

#[test]
fn locks_modes() {
    let p = write_temp(
        "arr.mc",
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let (out, _, ok) = localias(&["locks", p.to_str().unwrap(), "noconfine"]);
    assert!(ok);
    assert!(out.contains("1 of 2 lock sites"), "{out}");
    let (out, _, _) = localias(&["locks", p.to_str().unwrap(), "confine"]);
    assert!(out.contains("0 of 2 lock sites"), "{out}");
    let (_, err, ok) = localias(&["locks", p.to_str().unwrap(), "bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown mode"));
}

#[test]
fn infer_lists_confines() {
    let p = write_temp(
        "inf.mc",
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let (out, _, ok) = localias(&["infer", p.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("CONFINED"), "{out}");
}

#[test]
fn run_executes_and_reports_faults() {
    let p = write_temp(
        "buggy.mc",
        r#"
        lock mu;
        void f() {
            spin_lock(&mu);
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    let (out, _, ok) = localias(&["run", p.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("dynamic lock fault"), "{out}");

    let p = write_temp("clean.mc", FIG1);
    let (out, _, ok) = localias(&["run", p.to_str().unwrap(), "3"]);
    assert!(ok, "{out}");
    assert!(out.contains("no dynamic lock faults"), "{out}");
}

#[test]
fn experiment_flag_surface_is_validated() {
    // All of these fail during argument parsing, before any sweep runs.
    let (_, err, ok) = localias(&["experiment", "--cache"]);
    assert!(!ok);
    assert!(err.contains("--cache requires"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--cache", "d", "--no-cache"]);
    assert!(!ok);
    assert!(err.contains("mutually exclusive"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--modules", "0"]);
    assert!(!ok);
    assert!(err.contains("--modules must be at least 1"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--jobs", "many"]);
    assert!(!ok);
    assert!(err.contains("bad thread count"), "{err}");

    let (_, err, ok) = localias(&["experiment", "notaseed"]);
    assert!(!ok);
    assert!(err.contains("bad seed"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, err, ok) = localias(&["check", "/nonexistent/definitely.mc"]);
    assert!(!ok);
    assert!(err.contains("localias:"));
}

#[test]
fn diagnostics_carry_line_numbers() {
    let p = write_temp(
        "lines.mc",
        "lock locks[8];\nextern void work();\nvoid f(int i) {\n    spin_lock(&locks[i]);\n    work();\n    spin_unlock(&locks[i]);\n}\n",
    );
    let (out, _, ok) = localias(&["locks", p.to_str().unwrap(), "noconfine"]);
    assert!(ok, "{out}");
    assert!(
        out.contains("(line 6:"),
        "the failing unlock is on line 6: {out}"
    );

    let p = write_temp(
        "lines2.mc",
        "void f(int *q) {\n    restrict p = q {\n        *p = 1;\n        *q = 2;\n    }\n}\n",
    );
    let (out, _, _) = localias(&["check", p.to_str().unwrap()]);
    assert!(out.contains("(line 2:"), "the restrict is on line 2: {out}");
}

/// A two-function module: `helper` wraps a lock pair, `caller` uses it.
const WATCH_BASE: &str = "lock locks[8];\nextern void work();\nvoid helper(int i) {\n    spin_lock(&locks[i]);\n    work();\n    spin_unlock(&locks[i]);\n}\nvoid caller(int i) { helper(i); }\n";

/// Same module with `caller`'s body edited (an extra call).
const WATCH_EDIT: &str = "lock locks[8];\nextern void work();\nvoid helper(int i) {\n    spin_lock(&locks[i]);\n    work();\n    spin_unlock(&locks[i]);\n}\nvoid caller(int i) { work(); helper(i); }\n";

#[test]
fn watch_single_iteration_prints_counts_and_exits() {
    let p = write_temp("watch1.mc", WATCH_BASE);
    let (out, err, ok) = localias(&["watch", p.to_str().unwrap(), "--iterations", "1"]);
    assert!(ok, "{out}{err}");
    assert!(
        out.contains("[1] NoConfine 1, Confine 0, AllStrong 0 — "),
        "{out}"
    );
}

#[test]
fn watch_rejects_unknown_flags() {
    let (_, err, ok) = localias(&["watch", "nosuch.mc", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");
}

/// `experiment` and `watch` follow an unknown flag with their usage
/// text, as every other subcommand does.
#[test]
fn experiment_and_watch_print_usage_after_an_unknown_flag() {
    let p = write_temp("watch-usage.mc", WATCH_BASE);
    let p = p.to_str().unwrap();
    for (args, usage) in [
        (&["experiment", "--help"][..], "usage: localias experiment "),
        (&["watch", p, "--bogus"][..], "usage: localias watch "),
    ] {
        let (_, err, ok) = localias(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains(usage), "{args:?}: {err}");
    }
}

/// Removed flags are unknown and gone from the usage text: the old
/// wave-thread flag (the lock checker is sequential) from both commands
/// that took it, `watch --verify` (every analysis is already a check
/// from scratch), `experiment --quiet` (no diagnostic it could silence),
/// and the partitioned sweep and extra trace files (one process per
/// sweep, one artifact per run). Their subcommands print the usage
/// text.
#[test]
fn removed_flags_are_unknown() {
    let p = write_temp("watch-intra.mc", WATCH_BASE);
    let (_, err, ok) = localias(&["watch", p.to_str().unwrap(), "--intra-jobs", "2"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--intra-jobs`"), "{err}");

    let (_, err, ok) = localias(&["watch", p.to_str().unwrap(), "--verify"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--verify`"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--intra-jobs", "2"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--intra-jobs`"), "{err}");

    let (_, err, ok) = localias(&["experiment", "--alias", "andersen"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--alias`"), "{err}");

    for (args, flag) in [
        (&["experiment", "--quiet"][..], "--quiet"),
        (&["experiment", "-q"][..], "-q"),
        (&["experiment", "--partition", "0/2"][..], "--partition"),
        (&["experiment", "--cache-shards", "4"][..], "--cache-shards"),
        (&["experiment", "--trace-out", "F"][..], "--trace-out"),
        (&["experiment", "--trace-chrome", "F"][..], "--trace-chrome"),
        (&["scale", "--partitions", "1,2"][..], "--partitions"),
    ] {
        let (_, err, ok) = localias(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }

    let (_, usage, _) = localias(&[]);
    for cmd in ["bench-merge", "tracecheck"] {
        let out = Command::new(env!("CARGO_BIN_EXE_localias"))
            .arg(cmd)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), usage, "{cmd}");
    }

    for gone in [
        "--intra-jobs",
        "--verify",
        "--alias",
        "both alias backends",
        "--partition",
        "bench-merge",
        "--cache-shards",
        "--trace-out",
        "--trace-chrome",
        "tracecheck",
    ] {
        assert!(!usage.contains(gone), "{gone}: {usage}");
    }
}

#[test]
fn fuzz_smoke_is_clean_and_deterministic() {
    let dir = std::env::temp_dir().join("localias-cli-tests/fuzz-repro");
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "fuzz",
        "--iterations",
        "60",
        "--seed",
        "42",
        "--stream",
        "--repro-dir",
    ];
    let mut with_dir: Vec<&str> = args.to_vec();
    let dir_s = dir.to_str().unwrap().to_string();
    with_dir.push(&dir_s);
    let (out, err, ok) = localias(&with_dir);
    assert!(ok, "clean checker must survive the smoke: {err}");
    assert!(out.contains("divergences: 0"), "{out}");
    assert!(
        out.contains("fuzz0 "),
        "--stream prints verdict lines: {out}"
    );
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 0, "no repro modules on a clean run");
    // Byte-identical replay, seed-sensitive.
    let (out2, _, _) = localias(&with_dir);
    assert_eq!(out, out2);
    let (out3, _, ok3) = localias(&["fuzz", "--iterations", "60", "--seed", "7", "--stream"]);
    assert!(ok3);
    assert_ne!(out, out3);
}

/// Each evaluation subcommand parses only its own flags: a flag that
/// another subcommand takes is an error here, never silently ignored.
#[test]
fn subcommands_reject_flags_they_do_not_use() {
    for args in [
        &["precision", "--bench-out", "x.json"][..],
        &["fuzz", "--no-cache"][..],
        &["fuzz", "--jobs", "2"][..],
        &["scale", "--bin", "x"][..],
        &["scale", "--cache", "d"][..],
    ] {
        let (_, err, ok) = localias(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(err.contains("unknown"), "{args:?}: {err}");
    }
    // A second positional is an error, never a silent overwrite of the
    // first (all of these fail before any sweep or write).
    let dir = std::env::temp_dir().join("localias-cli-tests/corpus-extra");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    for (args, extra) in [
        (&["scale", "1", "2", "--sizes", "20"][..], "2"),
        (&["corpus", dir_s, "1", "extra", "junk"][..], "extra"),
    ] {
        let (_, err, ok) = localias(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(
            err.contains(&format!("unexpected argument `{extra}`")),
            "{args:?}: {err}"
        );
    }
    assert!(!dir.exists(), "a rejected corpus command wrote {dir_s}");

    // The file-based subcommands take the input file and nothing they
    // do not use: `locks` one optional mode, `run` one optional number,
    // `infer` its `--general` flag on either side of the file.
    let p = write_temp("strays.mc", FIG1);
    let p = p.to_str().unwrap();
    for (args, want) in [
        (&["parse", p, "--bogus"][..], "unknown flag `--bogus`"),
        (
            &["check", p, "extra", "junk"][..],
            "unexpected argument `extra`",
        ),
        (&["infer", p, "--bogus"][..], "unknown flag `--bogus`"),
        (&["infer", p, "extra"][..], "unexpected argument `extra`"),
        (&["locks", p, "confine", "x"][..], "unexpected argument `x`"),
        (&["locks", p, "--mode"][..], "unknown flag `--mode`"),
        (&["run", p, "3", "4"][..], "unexpected argument `4`"),
        (&["run", p, "--fuel"][..], "unknown flag `--fuel`"),
    ] {
        let (_, err, ok) = localias(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(err.contains(want), "{args:?}: {err}");
    }
    for args in [
        &["infer", "--general", p][..],
        &["infer", p, "--general"][..],
        &["locks", p, "confine"][..],
        &["run", p, "-3"][..],
    ] {
        let (out, err, ok) = localias(args);
        assert!(ok, "{args:?} was rejected: {err}");
        assert!(out.starts_with("module strays"), "{args:?}: {out}");
    }
    let (_, err, _) = localias(&[]);
    for cmd in ["scale ", "precision "] {
        assert!(
            err.lines().any(|l| l.starts_with(cmd)),
            "{cmd}missing:\n{err}"
        );
    }
}

#[test]
fn fuzz_writes_its_artifact() {
    let out_path = std::env::temp_dir().join("localias-cli-tests/fuzz-artifact.json");
    let _ = std::fs::remove_file(&out_path);
    let out_s = out_path.to_str().unwrap();
    let args = ["fuzz", "--iterations", "20", "--seed", "42"];
    let (plain, _, ok) = localias(&args);
    assert!(ok, "{plain}");
    let (out, err, ok) = localias(&[&args[..], &["--bench-out", out_s]].concat());
    assert!(ok, "{err}");
    assert_eq!(out, format!("{plain}wrote {out_s}\n"));
    let text = std::fs::read_to_string(&out_path).unwrap();
    let doc = localias_bench::json::parse(&text).expect("artifact parses");
    let field = |k: &str| doc.get(k).cloned();
    assert_eq!(
        field("schema").as_ref().and_then(|v| v.as_str()),
        Some("localias-bench-fuzz/v4")
    );
    assert_eq!(field("iterations").and_then(|v| v.as_u64()), Some(20));
}

#[test]
fn fuzz_rejects_bad_flags() {
    let (_, err, ok) = localias(&["fuzz", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown fuzz option"), "{err}");
    let (_, err, ok) = localias(&["fuzz", "--iterations"]);
    assert!(!ok);
    assert!(err.contains("--iterations needs a value"), "{err}");
    let (_, err, ok) = localias(&["fuzz", "--seed", "notanumber"]);
    assert!(!ok);
    assert!(err.contains("bad --seed value"), "{err}");
}

/// Runs `localias watch FILE --iterations 2 --poll-ms 25` while `edit`
/// saves over the file (after the cold pass has had time to finish), and
/// returns what the watcher printed.
fn watch_two_iterations(path: &std::path::Path, edit: impl FnOnce()) -> String {
    use std::io::Read as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_localias"))
        .args([
            "watch",
            path.to_str().unwrap(),
            "--iterations",
            "2",
            "--poll-ms",
            "25",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    std::thread::sleep(std::time::Duration::from_millis(400));
    edit();
    let status = child.wait().expect("watch exits after 2 iterations");
    let mut out = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    assert!(status.success(), "{out}");
    out
}

#[test]
fn watch_picks_up_an_edit_and_rechecks() {
    // Rewrite a file that already exists, as an earlier run leaves it:
    // saving over a freshly rewritten file is what exposes a watcher to
    // the empty window of a truncating save.
    write_temp("watch2.mc", WATCH_EDIT);
    let p = write_temp("watch2.mc", WATCH_BASE);
    // Save an edit touching only `caller`.
    let out = watch_two_iterations(&p, || std::fs::write(&p, WATCH_EDIT).unwrap());
    // The extra call in `caller` changes no verdict.
    for line in ["[1] ", "[2] "] {
        assert!(
            out.contains(&format!("{line}NoConfine 1, Confine 0, AllStrong 0 — ")),
            "{out}"
        );
    }
    assert!(!out.contains("source unchanged"), "{out}");
}

/// A save caught between truncation and write reads as an empty file:
/// the watcher must wait for the content, not report the empty module
/// as the edit.
#[test]
fn watch_waits_out_a_truncated_save() {
    let p = write_temp("watch3.mc", WATCH_BASE);
    let out = watch_two_iterations(&p, || {
        std::fs::File::create(&p).unwrap(); // truncates to empty
        std::thread::sleep(std::time::Duration::from_millis(200));
        std::fs::write(&p, WATCH_EDIT).unwrap();
    });
    for line in ["[1] ", "[2] "] {
        assert!(
            out.contains(&format!("{line}NoConfine 1, Confine 0, AllStrong 0 — ")),
            "{out}"
        );
    }
    assert!(!out.contains("parse error"), "{out}");
}
