//! §6 complexity: confine inference is `O(n²)` via least-solution
//! reachability; the paper's implementation prefers a targeted backward
//! search that is faster in practice. The sweep measures end-to-end
//! confine inference; the `solver` bench holds the matching
//! full-propagation vs. targeted-query ablation.

use localias_bench::confine_workload;
use localias_bench::harness::BenchGroup;

fn main() {
    let mut g = BenchGroup::new("infer_confines/pairs");
    g.sample_size(10);
    for pairs in [4usize, 16, 64, 128] {
        let m = confine_workload(pairs);
        g.bench(pairs, || {
            let chosen = localias_core::infer_confines(&m).outermost_confines(&m);
            assert_eq!(chosen.len(), pairs);
            chosen.len()
        });
    }
}
