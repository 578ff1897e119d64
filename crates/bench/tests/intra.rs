//! Integration tests for intra-module checking on the synthesized
//! mega-module.

use localias_core::SharedAnalysis;
use localias_corpus::mega_module;
use localias_cqual::{check_modes, CallGraph};

#[test]
fn mega_module_generator_is_deterministic() {
    let a = mega_module(20030609, 60);
    let b = mega_module(20030609, 60);
    assert_eq!(a.source, b.source);
    assert_eq!(a.name, b.name);
}

#[test]
fn mega_module_matches_its_expected_triple() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&parsed)).map(|r| r.error_count());
    assert_eq!(
        (nc, cf, st),
        (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
        "mega-module error triple"
    );
}

/// The wave schedule of the three-layer mega DAG: every function sits in
/// exactly one wave, and the layers give at least three waves.
#[test]
fn mega_module_wave_stats_cover_every_function() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let graph = CallGraph::build(&parsed);
    assert_eq!(graph.len(), 60);
    let mut seen = vec![0usize; graph.len()];
    for wave in graph.waves() {
        for &v in wave {
            seen[v] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "each function in exactly one wave: {seen:?}"
    );
    assert!(graph.waves().len() >= 3, "three-layer DAG has >= 3 waves");
}
