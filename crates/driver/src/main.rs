//! `localias` — command-line interface to the local non-aliasing
//! analyses.
//!
//! ```text
//! localias parse   <file.mc>          # parse & pretty-print
//! localias check   <file.mc>          # check explicit restrict/confine annotations
//! localias infer   <file.mc>          # restrict + confine inference
//! localias locks   <file.mc> [mode]   # flow-sensitive lock checking
//! localias run     <file.mc> [arg]    # execute under the §3.2 semantics
//! localias fuzz    [--iterations N] [--seed S] [--fuel N] [--repro-dir DIR]
//!                  [--no-shrink] [--stream] [--bench-out FILE] [--profile]
//!                                     # differential soundness fuzzing
//! localias watch   <file.mc> [--iterations N] [--poll-ms MS] [--quiet]
//!                                     # re-check the module on every save
//! localias corpus  <dir> [seed]       # dump the synthetic driver corpus
//! localias experiment [seed] [--jobs N]
//!                    [--cache DIR | --no-cache] [--cache-shards N]
//!                    [--modules N] [--partition I/N]
//!                    [--bench-out FILE] [--trace-out FILE]
//!                    [--trace-chrome FILE] [--profile] [--quiet]
//!                                     # run the full Section 7 experiment;
//!                                     # a whole-corpus sweep also prints the
//!                                     # §7 table, Figure 6 and Figure 7
//! localias scale   [seed] [--sizes N,..] [--partitions N,..] [--jobs N]
//!                  [--bench-out FILE] # modules/s and peak RSS vs corpus size
//! localias precision [seed]           # §8: unification vs inclusion aliasing
//! localias bench-merge <part.json>... [--out FILE]
//!                                     # union per-partition bench reports
//! localias bench-diff <old.json> <new.json> [--threshold PCT] [--json FILE]
//!                                     # perf-regression gate over two artifacts
//! localias tracecheck <trace.jsonl> [--chrome OUT.json]
//!                                     # validate a localias-trace file
//! ```
//!
//! `experiment` keeps an incremental result cache (default
//! `.localias-cache/`): modules whose source is unchanged since the last
//! sweep are served from the store instead of being re-analyzed. The
//! store is sharded (`--cache-shards N` files, default 16) and persisted
//! merge-on-write under per-shard locks, so concurrent sweeps sharing a
//! cache directory never lose each other's entries.
//!
//! `--trace-out` writes a `localias-trace/v2` JSON-lines trace of the
//! run (per-phase spans + latency histograms + pipeline counters),
//! `--trace-chrome` a Chrome trace-event file of the same run, and
//! `--profile` prints per-phase time and latency-percentile tables to
//! stderr; all three also embed the trace in the `--bench-out` report's
//! `profile` block. Latency histograms are always collected — every
//! `--bench-out` report carries a `hist` block with exact
//! p50/p90/p95/p99 percentiles. `--quiet` silences informational
//! diagnostics (warnings still print); `LOCALIAS_LOG` overrides the
//! level (`off|error|warn|info|debug`).
//!
//! Modes for `locks`: `noconfine` (default), `confine`, `allstrong`.

use localias_ast::span::LineMap;
use localias_ast::{parse_module, pretty, Module, NodeId};
use localias_cqual::{check_locks, IncrementalSession, Mode, MODES};
use std::fmt::Write as _;
use std::process::ExitCode;

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
    let result = match args.first().map(String::as_str) {
        Some("parse") => cmd_parse(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("locks") => cmd_locks(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("scale") => cmd_scale(&args[1..]),
        Some("precision") => cmd_precision(&args[1..]),
        Some("bench-merge") => cmd_bench_merge(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("tracecheck") => cmd_tracecheck(&args[1..]),
        _ => {
            eprintln!(
                "usage: localias <parse|check|infer|locks|run|fuzz|watch|corpus|experiment|scale|precision|bench-merge|bench-diff|tracecheck> [args]\n\
                 \n\
                 parse   <file.mc>          parse and pretty-print a module\n\
                 check   <file.mc>          check explicit restrict/confine annotations\n\
                 infer   <file.mc> [--general]  run restrict and confine inference\n\
                 locks   <file.mc> [mode]   lock checking (noconfine|confine|allstrong)\n\
                 run     <file.mc> [arg]    execute every function (restrict = copy-and-poison)\n\
                 fuzz    [--iterations N] [--seed S] [--fuel N] [--repro-dir DIR]\n\
                 \x20                          [--no-shrink] [--stream] [--bench-out FILE] [--profile]\n\
                 \x20                          differential soundness fuzzing: generated modules\n\
                 \x20                          run through the interpreter (ground truth) and all\n\
                 \x20                          three checker modes; any\n\
                 \x20                          missed real fault fails the run, shrunk to a minimal\n\
                 \x20                          repro module under --repro-dir (--stream prints the\n\
                 \x20                          per-module verdict lines; --bench-out writes the\n\
                 \x20                          localias-bench-fuzz/v4 artifact)\n\
                 watch   <file.mc> [--iterations N] [--poll-ms MS] [--quiet]\n\
                 \x20                          re-run the three lock checks on the whole module\n\
                 \x20                          on every save (--iterations exits after N\n\
                 \x20                          analyses, for scripting)\n\
                 corpus  <dir> [seed]       write the synthetic driver corpus to <dir>\n\
                 experiment [seed] [--jobs N] [--cache DIR | --no-cache]\n\
                 \x20                          [--cache-shards N] [--modules N] [--partition I/N]\n\
                 \x20                          [--bench-out FILE] [--trace-out FILE]\n\
                 \x20                          [--trace-chrome FILE] [--profile] [--quiet]\n\
                 \x20                          run the full Section 7 experiment in parallel,\n\
                 \x20                          incrementally via the sharded result cache\n\
                 \x20                          (default .localias-cache/, 16 shards; only\n\
                 \x20                          changed modules re-analyze, and concurrent\n\
                 \x20                          sweeps sharing the dir merge instead of clobber).\n\
                 \x20                          --modules N streams an N-module corpus instead\n\
                 \x20                          of the paper's 589; --partition I/N sweeps only\n\
                 \x20                          slice I of N (run one process per slice over a\n\
                 \x20                          shared cache, then bench-merge the reports). A\n\
                 \x20                          whole-corpus sweep (neither flag) also prints the\n\
                 \x20                          §7 paper-vs-measured table, Figure 6 and Figure 7\n\
                 scale   [seed] [--sizes N,N,...] [--partitions N,N,...] [--jobs N]\n\
                 \x20                          [--bench-out FILE]\n\
                 \x20                          modules/s and peak RSS vs corpus size (default\n\
                 \x20                          sizes 1000,5000,20000,50000, partitions 1,2); each\n\
                 \x20                          point sweeps in experiment child processes over a\n\
                 \x20                          cold cache (localias-bench-scale/v3 artifact)\n\
                 precision [seed]           §8 headroom: pointer-local pairs unification\n\
                 \x20                          (Steensgaard) conflates and inclusion (Andersen)\n\
                 \x20                          separates, over 400 random modules\n\
                 bench-merge <part.json>... [--out FILE]\n\
                 \x20                          union per-partition --bench-out reports from a\n\
                 \x20                          --partition i/N sweep into one artifact equal to\n\
                 \x20                          a single-process sweep (stdout unless --out)\n\
                 bench-diff <OLD.json> <NEW.json> [--threshold PCT] [--json FILE]\n\
                 \x20                          compare two bench artifacts of the same schema\n\
                 \x20                          family metric by metric (throughput, phase times,\n\
                 \x20                          histogram percentiles, cache hit and FP rates);\n\
                 \x20                          exits non-zero when any metric regresses past the\n\
                 \x20                          threshold (default 10%)\n\
                 tracecheck <trace.jsonl> [--chrome OUT.json]\n\
                 \x20                          validate a localias-trace/v1|v2 JSON-lines file\n\
                 \x20                          (as written by --trace-out), summarize it, and\n\
                 \x20                          optionally convert it to a Chrome trace-event\n\
                 \x20                          file (chrome://tracing, Perfetto)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("localias: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(args: &[String]) -> Result<(String, Module, LineMap), String> {
    let path = args.first().ok_or("missing input file")?;
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

fn cmd_parse(args: &[String]) -> Result<String, String> {
    let (_, m, _) = load(args)?;
    Ok(pretty::print_module(&m))
}

fn cmd_check(args: &[String]) -> Result<String, String> {
    let (name, m, lines) = load(args)?;
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

fn cmd_infer(args: &[String]) -> Result<String, String> {
    let (name, m, _lines) = load(args)?;
    let general = args.iter().any(|a| a == "--general");
    let mut out = String::new();
    let _ = writeln!(out, "module {name}:");

    let ra = localias_core::infer_restricts(&m);
    for c in &ra.candidates {
        let verdict = if c.restricted { "restrict" } else { "let" };
        let _ = writeln!(out, "  binding {} ({}): {verdict}", c.name, c.at);
    }

    let inf = if general {
        localias_core::infer_confines_general(&m)
    } else {
        localias_core::infer_confines(&m)
    };
    for (i, cand) in inf.candidates.iter().enumerate() {
        let chosen = inf.chosen.contains(&i);
        let outcome = &inf.analysis.confines[i];
        let verdict = if chosen {
            "CONFINED (outermost)"
        } else if outcome.ok() {
            "confinable (inner)"
        } else {
            "rejected"
        };
        let _ = writeln!(
            out,
            "  confine? {} @ block {} stmts {}..={}: {verdict}",
            cand.key, cand.block, cand.start, cand.end
        );
        for reason in &outcome.reasons {
            let _ = writeln!(out, "      reason: {reason}");
        }
    }
    Ok(out)
}

fn cmd_locks(args: &[String]) -> Result<String, String> {
    let (name, m, lines) = load(args)?;
    let mode = match args.get(1).map(String::as_str) {
        None | Some("noconfine") => Mode::NoConfine,
        Some("confine") => Mode::Confine,
        Some("allstrong") => Mode::AllStrong,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    let r = check_locks(&m, mode);
    let mut out = String::new();
    let _ = writeln!(out, "module {name} ({mode:?}): {r}");
    for e in &r.errors {
        let pos = at(&m, &lines, e.site);
        let _ = writeln!(out, "  {e}{pos}");
    }
    Ok(out)
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let (name, m, _lines) = load(args)?;
    let arg: i64 = match args.get(1) {
        Some(s) => s.parse().map_err(|_| format!("bad argument `{s}`"))?,
        None => 1,
    };
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
fn cmd_fuzz(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias fuzz [--iterations N] [--seed S] \
         [--fuel N] [--repro-dir DIR] [--no-shrink] [--stream] \
         [--bench-out FILE] [--profile]";
    let mut cfg = localias_bench::fuzz::FuzzConfig::default();
    let mut repro_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut stream = false;
    let mut profile = false;
    let mut i = 0;
    let path = |args: &[String], i: usize, what: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{what} needs a value\n{USAGE}"))
    };
    let num = |args: &[String], i: usize, what: &str| -> Result<u64, String> {
        args.get(i + 1)
            .ok_or(format!("{what} needs a value\n{USAGE}"))?
            .parse::<u64>()
            .map_err(|_| format!("bad {what} value\n{USAGE}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--iterations" => {
                cfg.iterations = num(args, i, "--iterations")?;
                i += 2;
            }
            "--seed" => {
                cfg.seed = num(args, i, "--seed")?;
                i += 2;
            }
            "--fuel" => {
                cfg.fuel = num(args, i, "--fuel")?;
                i += 2;
            }
            "--repro-dir" => {
                repro_dir = Some(path(args, i, "--repro-dir")?);
                i += 2;
            }
            "--bench-out" => {
                bench_out = Some(path(args, i, "--bench-out")?);
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--no-shrink" => {
                cfg.shrink = false;
                i += 1;
            }
            "--stream" => {
                stream = true;
                i += 1;
            }
            other => return Err(format!("unknown fuzz option `{other}`\n{USAGE}")),
        }
    }
    // The experiment's obs defaults, with this command's --profile.
    let obs_opts = localias_bench::CliOpts {
        profile,
        ..localias_bench::CliOpts::parse(std::iter::empty())?
    };
    let traced = bench_out.is_some() || profile;
    if traced {
        localias_bench::init_obs(&obs_opts);
    }
    let t0 = std::time::Instant::now();
    let report = localias_bench::fuzz::run_fuzz(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    if let Some(dir) = &repro_dir {
        localias_bench::fuzz::write_repros(std::path::Path::new(dir), cfg.seed, &report)?;
    }
    let mut out = String::new();
    if stream {
        out.push_str(&report.stream);
    }
    let _ = write!(out, "seed {}: {}", cfg.seed, report.summary());
    if traced {
        let obs_report = localias_bench::finish_obs(&obs_opts)?;
        if let Some(path) = &bench_out {
            let json = localias_bench::fuzz::artifact_json(&cfg, &report, wall, &obs_report);
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "wrote {path}");
        }
    }
    if report.clean() {
        Ok(out)
    } else {
        print!("{out}");
        let wrote = match &repro_dir {
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
/// one. `--iterations N` exits after N analyses (the first included),
/// which is how scripts and tests drive the loop; without it the
/// command polls until killed.
fn cmd_watch(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias watch <file.mc> [--iterations N] \
         [--poll-ms MS] [--quiet]";
    let mut path: Option<String> = None;
    let mut iterations: Option<u64> = None;
    let mut poll_ms: u64 = 200;
    let mut quiet = false;
    let mut it = args.iter();
    let parse_num = |flag: &str, val: Option<&String>| -> Result<u64, String> {
        let val = val.ok_or_else(|| format!("{flag} requires a number"))?;
        val.parse()
            .map_err(|_| format!("bad count `{val}` for {flag}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iterations" => iterations = Some(parse_num(a, it.next())?),
            "--poll-ms" => poll_ms = parse_num(a, it.next())?.max(1),
            "--quiet" => quiet = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            p if path.is_none() => path = Some(p.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
    let path = path.ok_or(USAGE)?;
    let name = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module")
        .to_string();

    let fingerprint = |p: &str| -> Option<(std::time::SystemTime, u64)> {
        let meta = std::fs::metadata(p).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    };

    let mut session = IncrementalSession::new(&name, 1);
    let max_iters = iterations.unwrap_or(u64::MAX);
    let mut done = 0u64;
    let mut last_fp = fingerprint(&path);
    while done < max_iters {
        if done > 0 {
            // Block until the file visibly changes (mtime or length).
            loop {
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                let cur = fingerprint(&path);
                if cur != last_fp {
                    last_fp = cur;
                    break;
                }
            }
        }
        done += 1;
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let t0 = std::time::Instant::now();
        let out = match session.analyze(&src) {
            Ok(out) => out,
            Err(e) => {
                // A half-saved file is normal in a watch loop: report and
                // keep polling (the session state is untouched).
                println!("[{done}] parse error: {e}");
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
        println!("[{done}] {} — {unchanged}{ms:.1} ms", counts.join(", "));
        if !quiet {
            for (mode, report) in MODES.iter().zip(&out.reports) {
                for e in &report.errors {
                    println!("    [{mode:?}] {e}");
                }
            }
        }
    }
    Ok(String::new())
}

fn cmd_corpus(args: &[String]) -> Result<String, String> {
    let dir = args.first().ok_or("missing output directory")?;
    let seed = match args.get(1) {
        Some(s) => s.parse().map_err(|_| format!("bad seed `{s}`"))?,
        None => localias_corpus::DEFAULT_SEED,
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let corpus = localias_corpus::generate(seed);
    for m in &corpus {
        let path = format!("{dir}/{}.mc", m.name);
        std::fs::write(&path, &m.source).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!("wrote {} modules to {dir}\n", corpus.len()))
}

fn cmd_experiment(args: &[String]) -> Result<String, String> {
    let opts = localias_bench::CliOpts::parse(args.iter().cloned())?;
    localias_bench::init_obs(&opts);
    let seed = opts.seed_or_default();

    let stream = match opts.modules {
        Some(n) => localias_bench::CorpusStream::new(seed, n),
        None => localias_bench::CorpusStream::paper(seed),
    };
    let range = match opts.partition {
        Some((index, count)) => stream.partition(index, count),
        None => 0..stream.len(),
    };
    let (results, mut bench) =
        localias_bench::measure_stream_with_cache(&stream, range, opts.jobs, &opts.cache);
    if let Some((index, count)) = opts.partition {
        // Partition artifacts carry their per-module rows so bench-merge
        // can reassemble the full sweep without re-analyzing anything.
        bench.partition = Some(localias_bench::PartitionInfo {
            index,
            count,
            total: stream.len(),
        });
        bench.results = Some(results.clone());
    }
    let report = localias_bench::finish_obs(&opts)?;
    bench.profile = report.trace;
    bench.hist = report.hists;
    let [clean, real, full, partial] = localias_bench::category_counts(&results);
    let whole_corpus = opts.modules.is_none() && opts.partition.is_none();

    let mut out = String::new();
    match opts.partition {
        Some((index, count)) => {
            let _ = writeln!(
                out,
                "{} modules — partition {index}/{count} of {} (seed {seed}):",
                results.len(),
                stream.len()
            );
        }
        None => {
            let _ = writeln!(out, "{} modules (seed {seed}):", results.len());
        }
    }
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
    if let Some(path) = opts.bench_out {
        std::fs::write(&path, bench.to_json()).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "  wrote {path}");
    }
    if let Some(path) = &opts.trace_out {
        let _ = writeln!(out, "  wrote {path}");
    }
    if let Some(path) = &opts.trace_chrome {
        let _ = writeln!(out, "  wrote {path}");
    }
    if whole_corpus {
        out.push_str(&localias_bench::paper::render(&results, seed));
    }
    Ok(out)
}

/// `localias scale` — modules/s and peak RSS vs. corpus size. Each
/// grid point sweeps in child processes of this binary (see
/// `localias_bench::scale`); the `localias-bench-scale/v3` report goes
/// to `--bench-out`, or to stdout.
fn cmd_scale(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias scale [SEED] [--sizes N,N,...] \
         [--partitions N,N,...] [--jobs N] [--bench-out FILE]";
    let list = |val: &str, flag: &str| -> Result<Vec<usize>, String> {
        let out = val
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| format!("{flag}: bad list `{val}` (expected N,N,...)"))?;
        if out.is_empty() || out.contains(&0) {
            return Err(format!("{flag}: entries must be positive (got `{val}`)"));
        }
        Ok(out)
    };
    let mut cfg = localias_bench::scale::ScaleConfig::default();
    let mut bench_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("{a} requires a value\n{USAGE}"))
        };
        match a.as_str() {
            "--sizes" => cfg.sizes = list(val()?, a)?,
            "--partitions" => cfg.partitions = list(val()?, a)?,
            "--jobs" | "-j" => {
                let v = val()?;
                cfg.jobs = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--bench-out" => bench_out = Some(val()?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            seed => cfg.seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?,
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("localias binary: {e}"))?;
    let report = localias_bench::scale::run(&cfg, &exe, |point| println!("{point}"))?;
    match bench_out {
        Some(path) => {
            std::fs::write(&path, report).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {path}\n"))
        }
        None => Ok(report),
    }
}

/// `localias precision [SEED]` — the §8 headroom study.
fn cmd_precision(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias precision [SEED]";
    let mut seed: Option<u64> = None;
    for a in args {
        match a.as_str() {
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            s if seed.is_none() => seed = Some(s.parse().map_err(|_| format!("bad seed `{s}`"))?),
            extra => return Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
    let seed = seed.unwrap_or(localias_corpus::DEFAULT_SEED);
    Ok(localias_bench::precision::PrecisionStudy::run(seed).render())
}

/// `localias bench-diff OLD.json NEW.json` — the perf-regression gate.
///
/// Exits 0 when no metric moved past the threshold in its worse
/// direction, 1 on any regression (so scripts can gate on it), and 2 on
/// usage or I/O errors. `--json FILE` additionally writes the
/// machine-readable `localias-bench-diff/v2` report.
fn cmd_bench_diff(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias bench-diff <OLD.json> <NEW.json> \
         [--threshold PCT] [--json FILE]";
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = localias_bench::DEFAULT_THRESHOLD_PCT;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let val = it
                    .next()
                    .ok_or(format!("--threshold requires a percent\n{USAGE}"))?;
                threshold = val
                    .trim_end_matches('%')
                    .parse()
                    .map_err(|_| format!("bad threshold `{val}`\n{USAGE}"))?;
            }
            "--json" => {
                json_out = Some(
                    it.next()
                        .ok_or(format!("--json requires a file path\n{USAGE}"))?
                        .clone(),
                );
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            path => paths.push(path.to_string()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(format!("expected exactly two artifacts\n{USAGE}"));
    };
    let old_text = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new_text = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let report = localias_bench::diff_benches(&old_text, &new_text, threshold)?;
    if let Some(path) = json_out {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", report.render_table());
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

fn cmd_bench_merge(args: &[String]) -> Result<String, String> {
    let mut inputs: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" | "-o" => {
                if out_path.is_some() {
                    return Err("--out given more than once".into());
                }
                out_path = Some(it.next().ok_or("--out requires a file path")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() {
        return Err("usage: localias bench-merge <part.json>... [--out FILE] — \
             give one --bench-out report per --partition i/N process"
            .into());
    }
    let docs = inputs
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| (path.clone(), text))
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = localias_bench::merge_partitions(&docs)?;
    let rendered = merged.to_json();
    let mut out = String::new();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(
                out,
                "merged {} partitions ({} modules, seed {}) into {path}",
                inputs.len(),
                merged.modules,
                merged.seed
            );
        }
        None => out.push_str(&rendered),
    }
    Ok(out)
}

/// `localias tracecheck FILE [--chrome OUT.json]` — validates a
/// `localias-trace/v1|v2` JSON-lines file; `--chrome` additionally
/// converts it to a Chrome trace-event file (load via
/// `chrome://tracing` or Perfetto).
fn cmd_tracecheck(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: localias tracecheck <trace.jsonl> [--chrome OUT.json]";
    let mut path: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chrome" => {
                chrome_out = Some(
                    it.next()
                        .ok_or(format!("--chrome requires a file path\n{USAGE}"))?
                        .clone(),
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            p if path.is_none() => path = Some(p.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
    let path = path.ok_or(format!("missing trace file\n{USAGE}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let summary = localias_obs::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: valid {} ({} span path{}, {} histogram{}, {} counter{})",
        localias_obs::SCHEMA,
        summary.spans,
        if summary.spans == 1 { "" } else { "s" },
        summary.hists.len(),
        if summary.hists.len() == 1 { "" } else { "s" },
        summary.counters.len(),
        if summary.counters.len() == 1 { "" } else { "s" },
    );
    for h in &summary.hists {
        let _ = writeln!(
            out,
            "  {} = {} samples, p50 {}, p99 {}",
            h.name,
            h.count,
            localias_obs::fmt_ns(h.percentile(50)),
            localias_obs::fmt_ns(h.percentile(99)),
        );
    }
    for (name, value) in &summary.counters {
        let _ = writeln!(out, "  {name} = {value}");
    }
    if let Some(chrome_path) = chrome_out {
        let chrome =
            localias_obs::chrome_trace(&summary.span_rows, &summary.counters, &summary.hists);
        std::fs::write(&chrome_path, chrome).map_err(|e| format!("{chrome_path}: {e}"))?;
        let _ = writeln!(out, "  wrote {chrome_path}");
    }
    Ok(out)
}
