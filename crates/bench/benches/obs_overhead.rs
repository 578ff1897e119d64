//! Pins the disabled-path cost of the obs macros.
//!
//! The whole pipeline is instrumented with `obs::span!`/`obs::count`
//! under the promise that, with no sink installed, each site costs a
//! branch on one relaxed atomic load. This bench measures that cost
//! directly — both bare (a tight loop of nothing but gated sites) and
//! embedded in a real analysis run — so a regression that turns the
//! macros into unconditional work shows up as an order-of-magnitude
//! jump in `disabled/span` or a visible gap between
//! `pipeline/instrumented-off` and what the sweep cost before the
//! instrumentation landed.

use localias_bench::harness::BenchGroup;
use localias_core::SharedAnalysis;
use localias_cqual::check_modes;
use localias_obs as obs;

fn main() {
    // Sinks must be off: this bench exists to price the disabled path.
    obs::disable_metrics();
    obs::disable_spans();

    let mut g = BenchGroup::new("obs_disabled");
    g.sample_size(20);

    // One gated counter site: a relaxed load + untaken branch.
    g.bench("count", || {
        obs::count(obs::Counter::CheckSatNodes, 1);
    });

    // One gated span site: enter + drop, both short-circuited.
    g.bench("span", || {
        let _s = obs::span!("bench.disabled");
    });

    // A hot-loop shape like `reaches()`: 64 gated sites per iteration.
    g.bench("count-x64", || {
        for _ in 0..64 {
            obs::count(obs::Counter::CheckSatEdges, 1);
        }
    });

    // The macros inside real work: a full three-mode module measurement
    // with collection off. Compare against the same line with spans and
    // counters enabled to see the *enabled* overhead too.
    let corpus = localias_corpus::generate(localias_corpus::DEFAULT_SEED);
    let module = &corpus[0];
    let measure = || {
        let parsed = module.parse();
        check_modes(&mut SharedAnalysis::new(&parsed)).0
    };
    let mut p = BenchGroup::new("obs_pipeline");
    p.sample_size(10);
    p.bench("instrumented-off", measure);
    obs::enable_all();
    p.bench("instrumented-on", measure);
    obs::disable_metrics();
    obs::disable_spans();
    let _ = obs::drain();
}
