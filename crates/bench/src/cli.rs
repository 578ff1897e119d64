//! Command-line parsing for `localias experiment`:
//!
//! ```text
//! [SEED] [--jobs N | -j N] [--cache DIR | --no-cache] [--modules N]
//! [--bench-out FILE] [--profile]
//! ```
//!
//! `--no-cache` together with `--cache` is rejected up front, in either
//! order, rather than resolving by flag position.

use crate::cache::CachePolicy;
use localias_corpus::DEFAULT_SEED;

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct CliOpts {
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Corpus seed, when given positionally.
    pub seed: Option<u64>,
    /// Result-cache policy (default: enabled under `.localias-cache/`).
    pub cache: CachePolicy,
    /// Where to write the machine-readable bench report, if anywhere.
    pub bench_out: Option<String>,
    /// Print the human per-phase profile table to stderr after the run.
    /// Also installs the obs sinks.
    pub profile: bool,
    /// Corpus size override (`--modules N`): sweep an `N`-module stream
    /// instead of the paper's 589.
    pub modules: Option<usize>,
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
        let mut no_cache = false;
        let mut bench_out: Option<String> = None;
        let mut profile = false;
        let mut modules: Option<usize> = None;

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
                "--bench-out" => {
                    if bench_out.is_some() {
                        return Err("--bench-out given more than once".into());
                    }
                    bench_out = Some(value_of(&mut it, &a, "a file path")?);
                }
                "--profile" => profile = true,
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

        // The conflict is checked after the whole argument list is read,
        // so rejection cannot depend on flag order.
        if no_cache && cache_dir.is_some() {
            return Err("--cache and --no-cache are mutually exclusive".into());
        }
        let cache = if no_cache {
            CachePolicy::Disabled
        } else {
            CachePolicy::dir(cache_dir.as_deref().unwrap_or(".localias-cache"))
        };
        Ok(CliOpts {
            jobs: jobs.unwrap_or(0),
            seed,
            cache,
            bench_out,
            profile,
            modules,
        })
    }

    /// The seed to sweep: the positional argument, or the paper corpus
    /// default.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// `true` if `--profile` asked for the obs sinks — the gate for
    /// enabling span/counter collection. Histograms are collected
    /// regardless (see [`crate::init_obs`]): every bench artifact
    /// carries latency percentiles.
    pub fn wants_obs(&self) -> bool {
        self.profile
    }
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
        assert!(!o.profile);
        assert!(!o.wants_obs(), "no sink unless explicitly requested");
    }

    #[test]
    fn obs_flags() {
        let o = parse(&["--profile"]).unwrap();
        assert!(o.profile);
        assert!(o.wants_obs());
    }

    #[test]
    fn full_surface() {
        let o = parse(&[
            "31337",
            "-j",
            "4",
            "--cache",
            "/tmp/c",
            "--bench-out",
            "b.json",
        ])
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.seed, Some(31337));
        assert_eq!(o.cache, CachePolicy::dir("/tmp/c"));
        assert_eq!(o.bench_out.as_deref(), Some("b.json"));
    }

    #[test]
    fn no_cache_disables() {
        let o = parse(&["--no-cache"]).unwrap();
        assert_eq!(o.cache, CachePolicy::Disabled);
    }

    /// `--no-cache` must conflict with `--cache` *in either order* —
    /// never resolve silently by flag position.
    #[test]
    fn cache_flag_conflicts_are_order_independent() {
        for args in [
            &["--cache", "d", "--no-cache"][..],
            &["--no-cache", "--cache", "d"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{args:?}: {err}");
        }
    }

    #[test]
    fn modules_parse() {
        let o = parse(&["--modules", "50000"]).unwrap();
        assert_eq!(o.modules, Some(50000));
        let o = parse(&[]).unwrap();
        assert_eq!(o.modules, None, "paper corpus size unless overridden");
    }

    #[test]
    fn modules_validation() {
        assert!(parse(&["--modules"]).is_err());
        assert!(parse(&["--modules", "x"]).is_err());
        assert!(parse(&["--modules", "0"]).is_err());
        assert!(parse(&["--modules", "1", "--modules", "2"]).is_err());
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
