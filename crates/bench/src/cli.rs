//! Command-line parsing for `localias experiment`:
//!
//! ```text
//! [SEED] [--jobs N | -j N]
//! [--cache DIR | --no-cache] [--cache-shards N] [--modules N]
//! [--partition I/N] [--bench-out FILE] [--trace-out FILE]
//! [--trace-chrome FILE] [--profile] [--quiet | -q]
//! ```
//!
//! Conflicting cache flags (`--no-cache` together with `--cache` or
//! `--cache-shards`) are rejected up front, in either order, rather than
//! resolving by flag position — and `--partition` (which cooperates
//! through the shared cache) conflicts with `--no-cache` the same way.

use crate::cache::{CachePolicy, DEFAULT_SHARDS, MAX_SHARDS};
use localias_corpus::DEFAULT_SEED;
use std::path::PathBuf;

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct CliOpts {
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Corpus seed, when given positionally.
    pub seed: Option<u64>,
    /// Result-cache policy (default: enabled under `.localias-cache/`,
    /// partitioned into [`DEFAULT_SHARDS`] shard files).
    pub cache: CachePolicy,
    /// Where to write the machine-readable bench report, if anywhere.
    pub bench_out: Option<String>,
    /// Where to write the `localias-trace/v2` JSON-lines trace, if
    /// anywhere. Giving this installs the obs sinks.
    pub trace_out: Option<String>,
    /// Where to write the Chrome trace-event timeline (opens in
    /// Perfetto / `chrome://tracing`), if anywhere. Also installs the
    /// obs sinks.
    pub trace_chrome: Option<String>,
    /// Print the human per-phase profile table to stderr after the run.
    /// Also installs the obs sinks.
    pub profile: bool,
    /// Silence informational diagnostics (warnings still print).
    pub quiet: bool,
    /// Corpus size override (`--modules N`): sweep an `N`-module stream
    /// instead of the paper's 589.
    pub modules: Option<usize>,
    /// Partitioned sweep (`--partition I/N`): this process covers
    /// contiguous slice `I` of `N` disjoint slices of the seeded stream.
    pub partition: Option<(usize, usize)>,
}

impl CliOpts {
    /// Parses an argument list (without the program name).
    pub fn parse<I>(args: I) -> Result<CliOpts, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut jobs: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut cache_dir: Option<String> = None;
        let mut cache_shards: Option<usize> = None;
        let mut no_cache = false;
        let mut bench_out: Option<String> = None;
        let mut trace_out: Option<String> = None;
        let mut trace_chrome: Option<String> = None;
        let mut profile = false;
        let mut quiet = false;
        let mut modules: Option<usize> = None;
        let mut partition: Option<(usize, usize)> = None;

        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" | "-j" => {
                    if jobs.is_some() {
                        return Err(format!("{a} given more than once"));
                    }
                    let val = value_of(&mut it, &a, "a thread count")?;
                    jobs = Some(
                        val.parse()
                            .map_err(|_| format!("bad thread count `{val}`"))?,
                    );
                }
                "--cache" => {
                    if cache_dir.is_some() {
                        return Err("--cache given more than once".into());
                    }
                    cache_dir = Some(value_of(&mut it, &a, "a directory")?);
                }
                "--cache-shards" => {
                    if cache_shards.is_some() {
                        return Err("--cache-shards given more than once".into());
                    }
                    let val = value_of(&mut it, &a, "a shard count")?;
                    let n: usize = val
                        .parse()
                        .map_err(|_| format!("bad shard count `{val}`"))?;
                    if !(1..=MAX_SHARDS).contains(&n) {
                        return Err(format!(
                            "--cache-shards must be between 1 and {MAX_SHARDS} (got {n})"
                        ));
                    }
                    cache_shards = Some(n);
                }
                "--no-cache" => no_cache = true,
                "--modules" => {
                    if modules.is_some() {
                        return Err("--modules given more than once".into());
                    }
                    let val = value_of(&mut it, &a, "a module count")?;
                    let n: usize = val
                        .parse()
                        .map_err(|_| format!("bad module count `{val}`"))?;
                    if n == 0 {
                        return Err("--modules must be at least 1".into());
                    }
                    modules = Some(n);
                }
                "--partition" => {
                    if partition.is_some() {
                        return Err("--partition given more than once".into());
                    }
                    let val = value_of(&mut it, &a, "a slice spec I/N")?;
                    partition = Some(parse_partition(&val)?);
                }
                "--bench-out" => {
                    if bench_out.is_some() {
                        return Err("--bench-out given more than once".into());
                    }
                    bench_out = Some(value_of(&mut it, &a, "a file path")?);
                }
                "--trace-out" => {
                    if trace_out.is_some() {
                        return Err("--trace-out given more than once".into());
                    }
                    trace_out = Some(value_of(&mut it, &a, "a file path")?);
                }
                "--trace-chrome" => {
                    if trace_chrome.is_some() {
                        return Err("--trace-chrome given more than once".into());
                    }
                    trace_chrome = Some(value_of(&mut it, &a, "a file path")?);
                }
                "--profile" => profile = true,
                "--quiet" | "-q" => quiet = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                positional => {
                    if seed.is_some() {
                        return Err(format!("unexpected extra argument `{positional}`"));
                    }
                    seed = Some(
                        positional
                            .parse()
                            .map_err(|_| format!("bad seed `{positional}`"))?,
                    );
                }
            }
        }

        // Value validation and conflicts are checked after the whole
        // argument list is read, so rejection cannot depend on flag order.
        if no_cache && cache_dir.is_some() {
            return Err("--cache and --no-cache are mutually exclusive".into());
        }
        if no_cache && cache_shards.is_some() {
            return Err("--cache-shards and --no-cache are mutually exclusive".into());
        }
        if no_cache && partition.is_some() {
            // Partitioned processes cooperate through the shared on-disk
            // cache; without it the merge step has nothing to union over.
            return Err("--partition and --no-cache are mutually exclusive".into());
        }
        let cache = if no_cache {
            CachePolicy::Disabled
        } else {
            CachePolicy::Dir {
                dir: cache_dir
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from(".localias-cache")),
                shards: cache_shards.unwrap_or(DEFAULT_SHARDS),
            }
        };
        Ok(CliOpts {
            jobs: jobs.unwrap_or(0),
            seed,
            cache,
            bench_out,
            trace_out,
            trace_chrome,
            profile,
            quiet,
            modules,
            partition,
        })
    }

    /// The seed to sweep: the positional argument, or the paper corpus
    /// default.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// `true` if an observability sink was requested (`--trace-out`,
    /// `--trace-chrome`, or `--profile`) — the gate for enabling
    /// span/counter collection. Histograms are collected regardless
    /// (see [`crate::init_obs`]): every bench artifact carries latency
    /// percentiles.
    pub fn wants_obs(&self) -> bool {
        self.trace_out.is_some() || self.trace_chrome.is_some() || self.profile
    }

    /// Applies the logging-related options: `--quiet` lowers the global
    /// level to warnings-only, and `LOCALIAS_LOG` (if set and valid)
    /// overrides everything.
    pub fn apply_log_level(&self) {
        if self.quiet {
            localias_obs::set_level(localias_obs::Level::Warn);
        }
        let _ = localias_obs::init_from_env();
    }
}

/// Parses and validates a `--partition` slice spec of the form `I/N`.
fn parse_partition(spec: &str) -> Result<(usize, usize), String> {
    let (index, count) = spec
        .split_once('/')
        .ok_or_else(|| format!("bad partition spec `{spec}` (expected I/N, e.g. 0/2)"))?;
    let index: usize = index
        .parse()
        .map_err(|_| format!("bad partition index `{index}` in `{spec}`"))?;
    let count: usize = count
        .parse()
        .map_err(|_| format!("bad partition count `{count}` in `{spec}`"))?;
    if count == 0 {
        return Err(format!(
            "bad partition spec `{spec}`: the partition count must be at least 1"
        ));
    }
    if index >= count {
        return Err(format!(
            "bad partition spec `{spec}`: index {index} is out of range for {count} \
             partitions (valid indices are 0..{count})"
        ));
    }
    Ok((index, count))
}

fn value_of<I>(it: &mut I, flag: &str, what: &str) -> Result<String, String>
where
    I: Iterator<Item = String>,
{
    it.next().ok_or_else(|| format!("{flag} requires {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOpts, String> {
        CliOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.jobs, 0);
        assert_eq!(o.seed, None);
        assert_eq!(o.seed_or_default(), DEFAULT_SEED);
        assert_eq!(o.cache, CachePolicy::enabled_default());
        assert_eq!(o.bench_out, None);
        assert_eq!(o.trace_out, None);
        assert!(!o.profile);
        assert!(!o.quiet);
        assert!(!o.wants_obs(), "no sink unless explicitly requested");
    }

    #[test]
    fn obs_flags() {
        let o = parse(&["--trace-out", "t.jsonl"]).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
        assert!(o.wants_obs());

        let o = parse(&["--profile"]).unwrap();
        assert!(o.profile);
        assert!(o.wants_obs());

        let o = parse(&["--trace-chrome", "t.chrome.json"]).unwrap();
        assert_eq!(o.trace_chrome.as_deref(), Some("t.chrome.json"));
        assert!(o.wants_obs());

        let o = parse(&["--quiet"]).unwrap();
        assert!(o.quiet);
        assert!(!o.wants_obs(), "--quiet alone installs no sink");
        assert!(parse(&["-q"]).unwrap().quiet);

        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--trace-out", "a", "--trace-out", "b"]).is_err());
        assert!(parse(&["--trace-chrome"]).is_err());
        assert!(parse(&["--trace-chrome", "a", "--trace-chrome", "b"]).is_err());
    }

    #[test]
    fn full_surface() {
        let o = parse(&[
            "31337",
            "-j",
            "4",
            "--cache",
            "/tmp/c",
            "--cache-shards",
            "32",
            "--bench-out",
            "b.json",
        ])
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.seed, Some(31337));
        assert_eq!(
            o.cache,
            CachePolicy::Dir {
                dir: "/tmp/c".into(),
                shards: 32
            }
        );
        assert_eq!(o.bench_out.as_deref(), Some("b.json"));
    }

    #[test]
    fn cache_shards_defaults_and_bounds() {
        let o = parse(&[]).unwrap();
        assert!(matches!(o.cache, CachePolicy::Dir { shards, .. } if shards == DEFAULT_SHARDS));

        let o = parse(&["--cache-shards", "1"]).unwrap();
        assert!(matches!(o.cache, CachePolicy::Dir { shards: 1, .. }));

        assert!(parse(&["--cache-shards"]).is_err());
        assert!(parse(&["--cache-shards", "x"]).is_err());
        assert!(parse(&["--cache-shards", "0"]).is_err());
        assert!(parse(&["--cache-shards", "257"]).is_err());
        assert!(parse(&["--cache-shards", "4", "--cache-shards", "4"]).is_err());
    }

    #[test]
    fn no_cache_disables() {
        let o = parse(&["--no-cache"]).unwrap();
        assert_eq!(o.cache, CachePolicy::Disabled);
    }

    /// `--no-cache` must conflict with the other cache flags *in either
    /// order* — never resolve silently by flag position.
    #[test]
    fn cache_flag_conflicts_are_order_independent() {
        for args in [
            &["--cache", "d", "--no-cache"][..],
            &["--no-cache", "--cache", "d"][..],
            &["--cache-shards", "4", "--no-cache"][..],
            &["--no-cache", "--cache-shards", "4"][..],
            &["--cache", "d", "--no-cache", "--cache-shards", "4"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{args:?}: {err}");
        }
        // The compatible combination still parses.
        let o = parse(&["--cache", "d", "--cache-shards", "4"]).unwrap();
        assert_eq!(
            o.cache,
            CachePolicy::Dir {
                dir: "d".into(),
                shards: 4
            }
        );
    }

    #[test]
    fn modules_and_partition_parse() {
        let o = parse(&["--modules", "50000", "--partition", "1/4"]).unwrap();
        assert_eq!(o.modules, Some(50000));
        assert_eq!(o.partition, Some((1, 4)));

        let o = parse(&[]).unwrap();
        assert_eq!(o.modules, None, "paper corpus size unless overridden");
        assert_eq!(o.partition, None, "unpartitioned by default");

        // A single-partition sweep is legal (useful for scripting).
        assert_eq!(
            parse(&["--partition", "0/1"]).unwrap().partition,
            Some((0, 1))
        );
    }

    #[test]
    fn modules_and_partition_validation() {
        assert!(parse(&["--modules"]).is_err());
        assert!(parse(&["--modules", "x"]).is_err());
        assert!(parse(&["--modules", "0"]).is_err());
        assert!(parse(&["--modules", "1", "--modules", "2"]).is_err());

        assert!(parse(&["--partition"]).is_err());
        assert!(parse(&["--partition", "1"]).is_err(), "missing /N");
        assert!(parse(&["--partition", "x/y"]).is_err());
        assert!(parse(&["--partition", "1/"]).is_err());
        assert!(parse(&["--partition", "/2"]).is_err());
        assert!(parse(&["--partition", "0/2", "--partition", "1/2"]).is_err());

        let err = parse(&["--partition", "0/0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--partition", "2/2"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse(&["--partition", "5/4"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// Like the cache-flag conflicts above: `--partition` needs the
    /// shared cache, so `--no-cache` is rejected in either flag order.
    #[test]
    fn partition_no_cache_conflict_is_order_independent() {
        for args in [
            &["--partition", "0/2", "--no-cache"][..],
            &["--no-cache", "--partition", "0/2"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{args:?}: {err}");
        }
        // --partition composes with the other cache flags.
        let o = parse(&["--partition", "0/2", "--cache", "d"]).unwrap();
        assert_eq!(o.partition, Some((0, 2)));
        assert!(matches!(o.cache, CachePolicy::Dir { .. }));
    }

    #[test]
    fn errors() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "x"]).is_err());
        assert!(parse(&["-j", "1", "--jobs", "2"]).is_err());
        assert!(parse(&["--cache"]).is_err());
        assert!(parse(&["--cache", "d", "--no-cache"]).is_err());
        assert!(parse(&["--bench-out"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["notanumber"]).is_err());
        assert!(parse(&["1", "2"]).is_err());
    }
}
