//! `localias` — command-line interface to the local non-aliasing
//! analyses.
//!
//! [`COMMANDS`] lists every subcommand with its usage line, summary and
//! handler; `localias` without a known subcommand prints it. Each usage
//! line is also the grammar its arguments are parsed by ([`args`]).
//!
//! `experiment` keeps an incremental result cache (default
//! `.localias-cache/`): modules whose source is unchanged since the last
//! sweep are served from the store instead of being re-analyzed. The
//! store is one file, `store.jsonl`, persisted merge-on-write under one
//! lock, so concurrent sweeps sharing a cache directory never lose each
//! other's entries.
//!
//! `--profile` prints per-phase time and latency-percentile tables to
//! stderr and embeds the trace in the `--bench-out` report's `profile`
//! block. Latency histograms are always collected — every `--bench-out`
//! report carries a `hist` block with exact p50/p90/p95/p99
//! percentiles.

mod args;

use args::Args;
use localias_ast::span::LineMap;
use localias_ast::{parse_module, pretty, Module, NodeId};
use localias_cqual::{check_locks, IncrementalSession, Mode, MODES};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

/// One subcommand: how it is called, what it does, and its handler.
struct Command {
    name: &'static str,
    /// The usage line after the name, which [`Args::parse`] reads as the
    /// grammar of the subcommand's arguments.
    usage: &'static str,
    /// What the subcommand does, for the top-level usage.
    summary: &'static str,
    run: fn(&Args) -> Result<String, String>,
}

/// Every subcommand, in the order the top-level usage lists them.
const COMMANDS: &[Command] = &[
    Command {
        name: "parse",
        usage: "<file.mc>",
        summary: "parse and pretty-print a module",
        run: cmd_parse,
    },
    Command {
        name: "check",
        usage: "<file.mc>",
        summary: "check explicit restrict/confine annotations",
        run: cmd_check,
    },
    Command {
        name: "infer",
        usage: "<file.mc> [--general]",
        summary: "run restrict and confine inference",
        run: cmd_infer,
    },
    Command {
        name: "locks",
        usage: "<file.mc> [noconfine|confine|allstrong]",
        summary: "lock checking in one mode (default noconfine)",
        run: cmd_locks,
    },
    Command {
        name: "run",
        usage: "<file.mc> [arg]",
        summary: "execute every function with the number arg (default 1;\n\
                  restrict = copy-and-poison)",
        run: cmd_run,
    },
    Command {
        name: "fuzz",
        usage: "[--iterations N] [--seed S] [--repro-dir DIR] [--stream] \
                [--bench-out FILE] [--profile]",
        summary: "differential soundness fuzzing: generated modules run through the\n\
                  interpreter (ground truth) and all three checker modes; any\n\
                  missed real fault fails the run, shrunk to a minimal repro\n\
                  module under --repro-dir (--stream prints the per-module verdict\n\
                  lines; --bench-out writes the localias-bench-fuzz/v4 artifact)",
        run: cmd_fuzz,
    },
    Command {
        name: "watch",
        usage: "<file.mc> [--iterations N] [--poll-ms MS] [--quiet]",
        summary: "re-run the three lock checks on the whole module on every save\n\
                  (--iterations exits after N analyses, for scripting)",
        run: cmd_watch,
    },
    Command {
        name: "corpus",
        usage: "<dir> [SEED]",
        summary: "write the synthetic driver corpus to <dir>",
        run: cmd_corpus,
    },
    Command {
        name: "experiment",
        usage: "[SEED] [--jobs|-j N] [--cache DIR | --no-cache] [--modules N] \
                [--bench-out FILE] [--profile]",
        summary: "run the full Section 7 experiment in parallel, incrementally via\n\
                  the result cache (one store file under .localias-cache/ by\n\
                  default; only changed modules re-analyze, and concurrent sweeps\n\
                  sharing the dir merge instead of clobber). --modules N streams\n\
                  an N-module corpus instead of the paper's 589; a whole-corpus\n\
                  sweep also prints the §7 paper-vs-measured table, Figure 6 and\n\
                  Figure 7",
        run: cmd_experiment,
    },
    Command {
        name: "scale",
        usage: "[SEED] [--sizes N,N,...] [--jobs|-j N] [--bench-out FILE]",
        summary: "modules/s and peak RSS vs corpus size (default sizes\n\
                  1000,5000,20000,50000); each size sweeps in an experiment child\n\
                  process over a cold cache (localias-bench-scale/v4 artifact)",
        run: cmd_scale,
    },
    Command {
        name: "precision",
        usage: "[SEED]",
        summary: "§8 headroom: pointer-local pairs unification (Steensgaard)\n\
                  conflates and inclusion (Andersen) separates, over 400 random\n\
                  modules",
        run: cmd_precision,
    },
    Command {
        name: "bench-diff",
        usage: "<OLD.json> <NEW.json> [--threshold PCT] [--json FILE]",
        summary: "compare two bench artifacts of the same schema family metric by\n\
                  metric (throughput, phase times, histogram percentiles, cache\n\
                  hit and FP rates); exits non-zero when any metric regresses\n\
                  past the threshold (default 10%)",
        run: cmd_bench_diff,
    },
];

/// The top-level usage: every subcommand's usage line and summary.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut out = format!("usage: localias <{}> [args]\n", names.join("|"));
    for c in COMMANDS {
        let _ = write!(out, "\n{} {}", c.name, c.usage);
        for line in c.summary.lines() {
            let _ = write!(out, "\n    {line}");
        }
    }
    out
}

/// Formats `node`'s position as `line:col`, when known.
fn at(m: &Module, lines: &LineMap, node: NodeId) -> String {
    let span = m.span_of(node);
    if span == localias_ast::Span::DUMMY {
        return String::new();
    }
    let (line, col) = lines.location(span.lo);
    format!(" (line {line}:{col})")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match Args::parse(cmd.name, cmd.usage, &args[1..]).and_then(|a| (cmd.run)(&a)) {
        Ok(out) => {
            print_out(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("localias: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` to stdout, the one path every handler's output and the
/// `watch` and `scale` progress lines take. A reader that closed the
/// pipe (`localias parse big.mc | head -1`) ends the process quietly
/// with success; any other write error ends it with a message.
fn print_out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush());
    let Err(e) = written else { return };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("localias: stdout: {e}");
    std::process::exit(1);
}

fn load(path: &str) -> Result<(String, Module, LineMap), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module")
        .to_string();
    let module = parse_module(&name, &src).map_err(|e| format!("{path}: {e}"))?;
    let lines = LineMap::new(&src);
    Ok((name, module, lines))
}

fn cmd_parse(args: &Args) -> Result<String, String> {
    let (_, m, _) = load(args.required(0))?;
    Ok(pretty::print_module(&m))
}

fn cmd_check(args: &Args) -> Result<String, String> {
    let (name, m, lines) = load(args.required(0))?;
    let a = localias_core::check(&m);
    let mut out = String::new();
    let _ = writeln!(out, "module {name}:");
    for e in &a.state.mismatches {
        let _ = writeln!(out, "  type error: {e}");
    }
    for d in &a.diags {
        let _ = writeln!(out, "  error: {d}");
    }
    for r in &a.restricts {
        let pos = at(&m, &lines, r.at);
        if r.ok() {
            let _ = writeln!(out, "  restrict {}{pos}: ok", r.name);
        } else {
            for reason in &r.reasons {
                let _ = writeln!(out, "  restrict {}{pos}: REJECTED — {reason}", r.name);
            }
        }
    }
    for c in a.confines.iter().filter(|c| c.explicit) {
        let pos = match c.site {
            localias_core::ConfineSite::Stmt(id) => at(&m, &lines, id),
            localias_core::ConfineSite::Range { block, .. } => at(&m, &lines, block),
        };
        if c.ok() {
            let _ = writeln!(out, "  confine {}{pos}: ok", c.expr);
        } else {
            for reason in &c.reasons {
                let _ = writeln!(out, "  confine {}{pos}: REJECTED — {reason}", c.expr);
            }
        }
    }
    if a.clean() {
        let _ = writeln!(out, "  all annotations check");
    }
    Ok(out)
}

fn cmd_infer(args: &Args) -> Result<String, String> {
    let (name, m, _lines) = load(args.required(0))?;
    let mut out = String::new();
    let _ = writeln!(out, "module {name}:");

    let ra = localias_core::infer_restricts(&m);
    for c in &ra.candidates {
        let verdict = if c.restricted { "restrict" } else { "let" };
        let _ = writeln!(out, "  binding {} ({}): {verdict}", c.name, c.at);
    }

    let a = if args.flag("--general") {
        localias_core::infer_confines_general(&m)
    } else {
        localias_core::infer_confines(&m)
    };
    let outermost = a.outermost_confines(&m);
    for (i, c) in a.confines.iter().enumerate() {
        // Explicit confines sit at a statement; `check` reports them.
        let localias_core::ConfineSite::Range { block, start, end } = c.site else {
            continue;
        };
        let verdict = if outermost.contains(&i) {
            "CONFINED (outermost)"
        } else if c.ok() {
            "confinable (inner)"
        } else {
            "rejected"
        };
        let _ = writeln!(
            out,
            "  confine? {} @ block {block} stmts {start}..={end}: {verdict}",
            c.expr
        );
        for reason in &c.reasons {
            let _ = writeln!(out, "      reason: {reason}");
        }
    }
    Ok(out)
}

fn cmd_locks(args: &Args) -> Result<String, String> {
    let mode = match args.positional(1) {
        None | Some("noconfine") => Mode::NoConfine,
        Some("confine") => Mode::Confine,
        Some("allstrong") => Mode::AllStrong,
        Some(other) => return Err(args.reject(format!("unknown mode `{other}`"))),
    };
    let (name, m, lines) = load(args.required(0))?;
    let r = check_locks(&m, mode);
    let mut out = String::new();
    let _ = writeln!(out, "module {name} ({mode:?}): {r}");
    for e in &r.errors {
        let pos = at(&m, &lines, e.site);
        let _ = writeln!(out, "  {e}{pos}");
    }
    Ok(out)
}

fn cmd_run(args: &Args) -> Result<String, String> {
    let arg: i64 = args.positional_number(1)?.unwrap_or(1);
    let (name, m, _lines) = load(args.required(0))?;
    let mut out = String::new();
    let mut interp = localias_interp::Interp::new(&m, 1_000_000);
    match interp.run_all(arg) {
        Ok(()) => {
            let _ = writeln!(out, "module {name}: ran all functions with arg {arg}");
        }
        Err(e) => {
            let _ = writeln!(out, "module {name}: runtime error: {e}");
        }
    }
    for fault in &interp.lock_faults {
        let _ = writeln!(out, "  dynamic lock fault: {fault:?}");
    }
    if interp.lock_faults.is_empty() {
        let _ = writeln!(out, "  no dynamic lock faults");
    }
    Ok(out)
}

/// `localias fuzz` — differential soundness fuzzing with the
/// interpreter as oracle (see `localias_bench::fuzz`).
///
/// Exits non-zero if any generated module exhibits a soundness
/// divergence: a dynamic lock fault the checker missed under some
/// mode, or a Theorem-1 restrict violation in a check-clean
/// module. Divergent modules are shrunk to 1-minimal counterexamples
/// and written under `--repro-dir` (so an empty repro dir after a run
/// is the machine-checkable "all clean" signal `scripts/check.sh`
/// gates on). `--bench-out` writes the run's `localias-bench-fuzz/v4`
/// artifact and `--profile` prints the obs tables to stderr.
fn cmd_fuzz(args: &Args) -> Result<String, String> {
    let defaults = localias_bench::fuzz::FuzzConfig::default();
    let cfg = localias_bench::fuzz::FuzzConfig {
        iterations: args.number("--iterations")?.unwrap_or(defaults.iterations),
        seed: args.number("--seed")?.unwrap_or(defaults.seed),
        ..defaults
    };
    let repro_dir = args.value("--repro-dir");
    let bench_out = args.value("--bench-out");
    let profile = args.flag("--profile");
    let traced = bench_out.is_some() || profile;
    if traced {
        localias_bench::init_obs(profile);
    }
    let t0 = std::time::Instant::now();
    let report = localias_bench::fuzz::run_fuzz(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    if let Some(dir) = repro_dir {
        localias_bench::fuzz::write_repros(std::path::Path::new(dir), cfg.seed, &report)?;
    }
    let mut out = String::new();
    if args.flag("--stream") {
        out.push_str(&report.stream);
    }
    let _ = write!(out, "seed {}: {}", cfg.seed, report.summary());
    if traced {
        let obs_report = localias_bench::finish_obs(profile);
        if let Some(path) = bench_out {
            let json = localias_bench::fuzz::artifact_json(&cfg, &report, wall, &obs_report);
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "wrote {path}");
        }
    }
    if report.clean() {
        Ok(out)
    } else {
        print_out(&out);
        let wrote = match repro_dir {
            Some(dir) => format!("; repro modules written under {dir}/"),
            None => String::new(),
        };
        Err(format!(
            "fuzz: {} soundness divergence(s){wrote}",
            report.divergences.len()
        ))
    }
}

/// `localias watch FILE` — an edit→report loop over one module.
///
/// Holds an [`IncrementalSession`], re-analyzing the file whenever its
/// mtime or length changes. Each analysis checks the whole module and
/// prints one line: the per-mode error counts and the time it took, or
/// "source unchanged" when the saved text is byte-identical to the last
/// one. An empty read is a save still in progress (the editor has
/// truncated the file but not yet written it): it is not analyzed and
/// the loop polls on. `--iterations N` exits after N analyses (the
/// first included), which is how scripts and tests drive the loop;
/// without it the command polls until killed.
fn cmd_watch(args: &Args) -> Result<String, String> {
    let max_iters: u64 = args.number("--iterations")?.unwrap_or(u64::MAX);
    let poll_ms: u64 = args.number("--poll-ms")?.unwrap_or(200).max(1);
    let quiet = args.flag("--quiet");
    let path = args.required(0);
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module")
        .to_string();

    let fingerprint = |p: &str| -> Option<(std::time::SystemTime, u64)> {
        let meta = std::fs::metadata(p).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    };

    let mut session = IncrementalSession::new(&name, 1);
    let mut done = 0u64;
    let mut last_fp = fingerprint(path);
    let mut first = true;
    while done < max_iters {
        if !first {
            // Block until the file visibly changes (mtime or length).
            loop {
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                let cur = fingerprint(path);
                if cur != last_fp {
                    last_fp = cur;
                    break;
                }
            }
        }
        first = false;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if src.is_empty() {
            continue; // a save in progress: truncated, not yet written
        }
        done += 1;
        let t0 = std::time::Instant::now();
        let out = match session.analyze(&src) {
            Ok(out) => out,
            Err(e) => {
                // A half-saved file is normal in a watch loop: report and
                // keep polling (the session state is untouched).
                print_out(&format!("[{done}] parse error: {e}\n"));
                continue;
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let counts: Vec<String> = MODES
            .iter()
            .zip(&out.reports)
            .map(|(m, r)| format!("{m:?} {}", r.error_count()))
            .collect();
        let unchanged = if out.stats.module_hit {
            "source unchanged, "
        } else {
            ""
        };
        let mut lines = format!("[{done}] {} — {unchanged}{ms:.1} ms\n", counts.join(", "));
        if !quiet {
            for (mode, report) in MODES.iter().zip(&out.reports) {
                for e in &report.errors {
                    let _ = writeln!(lines, "    [{mode:?}] {e}");
                }
            }
        }
        print_out(&lines);
    }
    Ok(String::new())
}

fn cmd_corpus(args: &Args) -> Result<String, String> {
    let seed = args
        .positional_number(1)?
        .unwrap_or(localias_corpus::DEFAULT_SEED);
    let dir = args.required(0);
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let corpus = localias_corpus::generate(seed);
    for m in &corpus {
        let path = format!("{dir}/{}.mc", m.name);
        std::fs::write(&path, &m.source).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!("wrote {} modules to {dir}\n", corpus.len()))
}

fn cmd_experiment(args: &Args) -> Result<String, String> {
    let seed = args
        .positional_number(0)?
        .unwrap_or(localias_corpus::DEFAULT_SEED);
    let jobs = args.number("--jobs")?.unwrap_or(0);
    let modules: Option<usize> = args.number("--modules")?;
    if modules == Some(0) {
        return Err(args.reject("--modules must be at least 1"));
    }
    let cache = match (args.value("--cache"), args.flag("--no-cache")) {
        (Some(_), true) => {
            return Err(args.reject("--cache and --no-cache are mutually exclusive"));
        }
        (_, true) => localias_bench::CachePolicy::Disabled,
        (dir, false) => localias_bench::CachePolicy::dir(dir.unwrap_or(".localias-cache")),
    };
    let profile = args.flag("--profile");
    localias_bench::init_obs(profile);

    let stream = match modules {
        Some(n) => localias_bench::CorpusStream::new(seed, n),
        None => localias_bench::CorpusStream::paper(seed),
    };
    let (results, mut bench) = localias_bench::measure_stream_with_cache(&stream, jobs, &cache);
    let report = localias_bench::finish_obs(profile);
    bench.profile = report.trace;
    bench.hist = report.hists;
    let [clean, real, full, partial] = localias_bench::category_counts(&results);

    let mut out = String::new();
    let _ = writeln!(out, "{} modules (seed {seed}):", results.len());
    let _ = writeln!(out, "  error-free without confine:        {clean}");
    let _ = writeln!(out, "  errors unrelated to weak updates:  {real}");
    let _ = writeln!(out, "  fully recovered by confine:        {full}");
    let _ = writeln!(out, "  partially recovered (Figure 7):    {partial}");
    if bench.potential > 0 {
        let _ = writeln!(
            out,
            "  spurious errors: {} of {} eliminated ({:.0}%)",
            bench.eliminated,
            bench.potential,
            100.0 * bench.eliminated as f64 / bench.potential as f64
        );
    }
    let _ = writeln!(
        out,
        "  analyzed in {:.2?} on {} thread{} ({:.0} modules/s)",
        bench.wall,
        bench.threads,
        if bench.threads == 1 { "" } else { "s" },
        bench.modules_per_sec()
    );
    if let Some(c) = &bench.cache {
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses (dir {}, load {:.2?}, store {:.2?})",
            c.hits, c.misses, c.dir, c.load, c.store
        );
    }
    if let Some(path) = args.value("--bench-out") {
        std::fs::write(path, bench.to_json()).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "  wrote {path}");
    }
    if modules.is_none() {
        out.push_str(&localias_bench::paper::render(&results, seed));
    }
    Ok(out)
}

/// `localias scale` — modules/s and peak RSS vs. corpus size. Each size
/// sweeps in a child process of this binary (see
/// `localias_bench::scale`); the `localias-bench-scale/v4` report goes
/// to `--bench-out`, or to stdout.
fn cmd_scale(args: &Args) -> Result<String, String> {
    let mut cfg = localias_bench::scale::ScaleConfig::default();
    if let Some(list) = args.value("--sizes") {
        cfg.sizes = list
            .split(',')
            .map(|s| args.parse_number("--sizes", s.trim()))
            .collect::<Result<_, _>>()?;
        // A repeated size would sweep twice into one `points` entry.
        let sizes = &cfg.sizes;
        let repeated = (0..sizes.len()).any(|i| sizes[..i].contains(&sizes[i]));
        if sizes.contains(&0) || repeated {
            let msg = format!("--sizes: entries must be positive and distinct (got `{list}`)");
            return Err(args.reject(msg));
        }
    }
    cfg.jobs = args.number("--jobs")?.unwrap_or(cfg.jobs);
    cfg.seed = args.positional_number(0)?.unwrap_or(cfg.seed);
    let exe = std::env::current_exe().map_err(|e| format!("localias binary: {e}"))?;
    let report = localias_bench::scale::run(&cfg, &exe, |point| print_out(&format!("{point}\n")))?;
    match args.value("--bench-out") {
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {path}\n"))
        }
        None => Ok(report),
    }
}

/// `localias precision [SEED]` — the §8 headroom study.
fn cmd_precision(args: &Args) -> Result<String, String> {
    let seed = args
        .positional_number(0)?
        .unwrap_or(localias_corpus::DEFAULT_SEED);
    Ok(localias_bench::precision::PrecisionStudy::run(seed).render())
}

/// `localias bench-diff OLD.json NEW.json` — the perf-regression gate.
///
/// Exits 0 when no metric moved past the threshold in its worse
/// direction, and 1 on any regression (so scripts can gate on it) or
/// on a usage or I/O error. `--json FILE` additionally writes the
/// machine-readable `localias-bench-diff/v2` report.
fn cmd_bench_diff(args: &Args) -> Result<String, String> {
    let threshold = match args.value("--threshold") {
        Some(pct) => args.parse_number("--threshold", pct.trim_end_matches('%'))?,
        None => localias_bench::DEFAULT_THRESHOLD_PCT,
    };
    let (old_path, new_path) = (args.required(0), args.required(1));
    let old_text = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new_text = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let report = localias_bench::diff_benches(&old_text, &new_text, threshold)?;
    if let Some(path) = args.value("--json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    print_out(&report.render_table());
    if report.regressions().is_empty() {
        Ok(String::new())
    } else {
        // The table already names the regressed metrics; exit non-zero
        // through the shared error path with a one-line verdict.
        Err(format!(
            "bench-diff: {} metric(s) regressed past {threshold}% ({old_path} -> {new_path})",
            report.regressions().len()
        ))
    }
}
