//! E5: the polynomial-time claim (§4/§7 — "large network flow problems have
//! been solved with very efficient algorithms").
//!
//! Benchmarks the end-to-end allocation (network construction + min-cost
//! flow + extraction) over random instances of growing size, plus the SSP
//! solver against the network-simplex reference on the same instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lemra_core::{allocate, AllocationProblem};
use lemra_netflow::{Backend, FlowNetwork};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};
use std::hint::black_box;

fn allocation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_scaling");
    for vars in [32usize, 64, 128, 256, 512] {
        let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
        let problem = AllocationProblem::new(table, (vars / 8) as u32)
            .with_activity(random_patterns(vars, 1));
        group.throughput(Throughput::Elements(vars as u64));
        group.bench_with_input(BenchmarkId::from_parameter(vars), &problem, |b, p| {
            b.iter(|| allocate(black_box(p)).expect("feasible"));
        });
    }
    group.finish();
}

fn random_flow(
    vars: usize,
    seed: u64,
) -> (
    FlowNetwork,
    lemra_netflow::NodeId,
    lemra_netflow::NodeId,
    i64,
) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    let nodes = net.add_nodes(vars);
    for i in 0..vars {
        for _ in 0..4 {
            let j = rng.gen_range(i + 1..vars.max(i + 2)).min(vars - 1);
            if j > i {
                net.add_arc(
                    nodes[i],
                    nodes[j],
                    rng.gen_range(1..4),
                    rng.gen_range(-10..10),
                )
                .expect("valid arc");
            }
        }
    }
    (net, nodes[0], nodes[vars - 1], 4)
}

fn solver_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("mincost_solvers");
    // Bench ids predate the `Backend` selector and are pinned by
    // BENCH_solver.json; keep them stable.
    let backends = [("ssp", Backend::Ssp), ("network_simplex", Backend::Simplex)];
    for vars in [32usize, 128, 512] {
        let (net, s, t, f) = random_flow(vars, 7);
        for (id, backend) in backends {
            group.bench_with_input(BenchmarkId::new(id, vars), &net, |b, net| {
                b.iter(|| backend.solve(black_box(net), s, t, f));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, allocation_scaling, solver_comparison);
criterion_main!(benches);
