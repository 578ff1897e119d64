//! Micro-benchmarks of the effect constraint solver, including the
//! ablation behind the paper's §6 implementation note: computing the full
//! least solution (forward propagation for every location, the `O(n²)`
//! bound) versus answering only the `k` needed queries with the targeted
//! Figure 5 search (`O(kn)` — "usually more efficient" because each query
//! touches a small portion of the graph).

use localias_alias::{LocTable, Ty};
use localias_bench::harness::BenchGroup;
use localias_effects::{build, reaches, solve, ConstraintSystem, Effect, EffectKind, KindMask};
use localias_prng::Rng64;

/// Builds a layered random constraint system of `n` variables.
fn layered_system(n: usize, seed: u64) -> (ConstraintSystem, LocTable) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut cs = ConstraintSystem::new();
    let mut locs = LocTable::new();
    let vars: Vec<_> = (0..n).map(|_| cs.fresh_var()).collect();
    let ls: Vec<_> = (0..n / 4 + 1).map(|_| locs.fresh(Ty::Int)).collect();
    // Atoms at the bottom layer.
    for v in vars.iter().take(n / 4 + 1) {
        let l = ls[rng.gen_range(0..ls.len())];
        let kind = match rng.gen_range(0..3u32) {
            0 => EffectKind::Read,
            1 => EffectKind::Write,
            _ => EffectKind::Mention,
        };
        cs.include(Effect::atom(kind, l), *v);
    }
    // Edges forward through the layers; a sprinkle of intersections.
    for i in 1..n {
        let from = vars[rng.gen_range(0..i)];
        if i % 13 == 0 && i >= 2 {
            let gate = vars[rng.gen_range(0..i)];
            cs.include(Effect::inter(Effect::var(from), Effect::var(gate)), vars[i]);
        } else {
            cs.include(Effect::var(from), vars[i]);
        }
    }
    (cs, locs)
}

fn bench_full_solution() {
    let mut g = BenchGroup::new("solver/full_least_solution");
    g.sample_size(20);
    for n in [200usize, 800, 3200] {
        g.bench_with_setup(
            n,
            || layered_system(n, 42),
            |(mut cs, mut locs)| {
                let sol = solve(&mut cs, &mut locs);
                sol.rounds
            },
        );
    }
}

/// The ablation: full propagation vs `k` targeted CHECK-SAT queries.
fn bench_targeted_vs_full() {
    let mut g = BenchGroup::new("solver/checksat_ablation");
    g.sample_size(20);
    let n = 1600;
    let k = 8;

    g.bench_with_setup(
        "full_propagation",
        || layered_system(n, 7),
        |(mut cs, mut locs)| {
            let sol = solve(&mut cs, &mut locs);
            sol.rounds
        },
    );

    g.bench_with_setup(
        format!("targeted_x{k}"),
        || {
            let (mut cs, locs) = layered_system(n, 7);
            let graph = build(&mut cs);
            (cs, locs, graph)
        },
        |(cs, mut locs, graph)| {
            // k queries, as checking k restrict annotations would.
            let mut hits = 0;
            for q in 0..k {
                let loc = localias_alias::Loc((q % 7) as u32);
                let var = localias_effects::EffVar((q * 97 % 1600) as u32);
                if reaches(&graph, &cs, &mut locs, loc, KindMask::ACCESS, var) {
                    hits += 1;
                }
            }
            hits
        },
    );
}

fn main() {
    bench_full_solution();
    bench_targeted_vs_full();
}
