//! One benchmark run: set a workload up, measure units for a fixed
//! time, and turn what was measured into metrics.

use crate::stats::{pct_of, percentile, tail_pct};
use crate::trace::Recorder;
use crate::workloads::{self, Metrics, Sizes, Workload};
use localias_obs as obs;
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Units run, warm-up units included.
    pub attempted: u64,
    /// Units whose output differed from its reference.
    pub failed: u64,
    /// Metric values by name: end-to-end metrics for an untraced run,
    /// the per-layer metrics the workload measures for a traced one.
    pub metrics: Metrics,
    /// Untraced units timed.
    pub units: usize,
    /// The highest percentile of untraced unit times with ten units
    /// beyond it, and its value in milliseconds.
    pub tail: Option<(f64, f64)>,
    /// Spans and counts of a traced run.
    pub rec: Recorder,
}

fn disable_obs() {
    obs::disable_spans();
    obs::disable_metrics();
    obs::disable_hists();
}

/// Sets workload `cfg.workload` up and runs its warm-up unit; returns it
/// with the seconds both took and whether the warm-up output was right.
fn set_up(
    cfg: &Config,
    sizes: Sizes,
    dir: &Path,
) -> Result<(Box<dyn Workload>, f64, bool), String> {
    let t0 = Instant::now();
    let mut w = workloads::build(&cfg.workload, cfg.seed, dir, sizes)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let warm = w.unit();
    Ok((w, t0.elapsed().as_secs_f64(), warm.ok))
}

/// Runs `cfg` with inputs of `sizes`, keeping scratch files under `dir`.
///
/// An untraced run times units until `cfg.seconds` have passed and sets
/// the workload up [`SETUP_REPS`] times: once before the first unit and
/// then at even steps through the run, each time replacing the copy the
/// units run on. Spread out like this, the set-ups see the same spells
/// of load from other tenants as the units do, rather than only the one
/// current in the second after the process started.
/// A traced run sets up once and interleaves its kinds of unit, so that
/// all of them see the same machine state.
pub fn run(cfg: &Config, sizes: Sizes, dir: &Path) -> Result<Outcome, String> {
    let setup_reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (mut w, secs, ok) = set_up(cfg, sizes, dir)?;
    let mut setups = vec![secs];
    let (mut attempted, mut failed) = (1u64, u64::from(!ok));

    // A traced run cycles through three kinds of unit: the program's
    // entry point with obs off (the baseline), the same with obs on (the
    // program's own spans and counters, and what they cost), and the
    // workload's traced unit with obs off (the benchmark's spans).
    let mut rec = Recorder::new();
    let (mut plain, mut rates) = (Vec::new(), Vec::new());
    let (mut observed, mut traced) = (Vec::new(), Vec::new());
    let (mut program, mut program_modules) = (Vec::new(), 0);
    if cfg.trace {
        let _ = obs::drain(); // nothing recorded before this run counts
    }
    let start = Instant::now();
    while plain.is_empty()
        || (cfg.trace && traced.is_empty())
        || setups.len() < setup_reps
        || start.elapsed().as_secs_f64() < cfg.seconds
    {
        let due = cfg.seconds * setups.len() as f64 / setup_reps as f64;
        if setups.len() < setup_reps
            && plain.len() >= setups.len()
            && start.elapsed().as_secs_f64() >= due
        {
            drop(w); // the previous copy goes before the next is built
            let (next, secs, ok) = set_up(cfg, sizes, dir)?;
            w = next;
            setups.push(secs);
            attempted += 1;
            failed += u64::from(!ok);
            continue;
        }
        let u = if cfg.trace && observed.len() < plain.len() {
            obs::enable_all();
            let u = w.unit();
            disable_obs();
            program.push(obs::drain());
            program_modules += u.modules;
            observed.push(u.secs);
            u
        } else if cfg.trace && traced.len() < plain.len() {
            rec.unit = traced.len() as u32;
            let u = w.traced_unit(&mut rec);
            traced.push(u.secs);
            u
        } else {
            let u = w.unit();
            plain.push(u.secs);
            rates.push(u.modules as f64 / u.secs);
            u
        };
        attempted += 1;
        failed += u64::from(!u.ok);
    }

    let units = plain.len();
    plain.sort_by(f64::total_cmp);
    let tail = tail_pct(units).map(|p| (p, percentile(&plain, p) * 1e3));
    let metrics = if cfg.trace {
        let (mut m, attributed) = workloads::layer_metrics(&*w, &rec, &program, program_modules);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        m.insert(
            "unattributed_frac",
            1.0 - attributed / traced.len() as f64 / mean(&plain),
        );
        m.insert(
            "obs.overhead_frac",
            pct_of(&observed, 50.0) / percentile(&plain, 50.0) - 1.0,
        );
        m
    } else {
        Metrics::from([
            ("modules_per_s", pct_of(&rates, 50.0)),
            ("latency_p50_ms", percentile(&plain, 50.0) * 1e3),
            (
                "peak_rss_mib",
                obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            ),
            ("setup_s", pct_of(&setups, 50.0)),
        ])
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        units,
        tail,
        rec,
    })
}
