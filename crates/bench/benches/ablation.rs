//! Ablation benchmarks for the design choices called out in DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ls_basis::{SectorSpec, SpinBasis};
use ls_kernels::bits::FixedWeightRange;
use ls_kernels::search::PrefixIndex;
use ls_kernels::sort::{apply_perm, counting_sort_perm};

/// Ranking: combinadics (the U(1) sector's own ranking) vs the
/// prefix-bucket index every other sector uses, over the same states,
/// one lookup at a time vs the interleaved bulk kernels.
fn bench_ranking(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ranking");
    g.sample_size(15);
    let basis = SpinBasis::build(SectorSpec::with_weight(24, 12).unwrap());
    let probes: Vec<u64> = (0..basis.dim()).step_by(7).map(|i| basis.state(i)).collect();
    g.bench_function("Combinadic", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in &probes {
                acc += basis.index_of(black_box(p)).unwrap();
            }
            acc
        })
    });
    let mut out = Vec::new();
    g.bench_function("Combinadic_batch", |b| {
        b.iter(|| {
            basis.index_of_batch(black_box(&probes), &mut out);
            out.iter().map(|&i| i as usize).sum::<usize>()
        })
    });
    let states = basis.states();
    let prefix = PrefixIndex::auto(states, basis.sector().code_bits());
    g.bench_function("PrefixBuckets", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in &probes {
                acc += prefix.lookup(states, black_box(p)).unwrap();
            }
            acc
        })
    });
    g.bench_function("PrefixBuckets_batch", |b| {
        b.iter(|| {
            prefix.lookup_batch(states, black_box(&probes), &mut out);
            out.iter().map(|&i| i as usize).sum::<usize>()
        })
    });
    g.finish();
}

/// Shared-memory matvec: the scalar pull vs the batched pull on a U(1)
/// sector.
fn bench_matvec_strategies(c: &mut Criterion) {
    use ls_basis::SymmetrizedOperator;
    use ls_core::matvec;
    use ls_core::MatvecScratchPool;

    let mut g = c.benchmark_group("ablation_matvec_strategies");
    g.sample_size(10);
    let n = 20u32;
    let sector = SectorSpec::with_weight(n, n / 2).unwrap();
    let kernel =
        ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(n as usize), 1.0)
            .to_kernel(n)
            .unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector);
    let x: Vec<f64> = (0..basis.dim()).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut y = vec![0.0; basis.dim()];
    let pool = MatvecScratchPool::new();
    g.bench_function("pull_scalar", |b| {
        b.iter(|| matvec::apply_pull_pooled(&op, &basis, black_box(&x), &mut y, &pool))
    });
    g.bench_function("pull_batched", |b| {
        b.iter(|| matvec::apply_batched_pull_pooled(&op, &basis, black_box(&x), &mut y, &pool))
    });
    g.finish();
}

/// Destination partitioning: counting sort vs comparison sort.
fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_partition");
    g.sample_size(15);
    let n = 100_000usize;
    let locales = 64usize;
    let keys: Vec<u16> =
        (0..n).map(|i| (ls_kernels::hash64_01(i as u64) % locales as u64) as u16).collect();
    let vals: Vec<u64> = (0..n as u64).collect();
    g.bench_function("counting_sort", |b| {
        let mut perm = Vec::new();
        let mut offsets = Vec::new();
        let mut out = Vec::new();
        b.iter(|| {
            counting_sort_perm(&keys, locales, &mut perm, &mut offsets);
            apply_perm(&perm, &vals, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("comparison_sort", |b| {
        b.iter(|| {
            let mut pairs: Vec<(u16, u64)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_by_key(|&(k, _)| k);
            black_box(pairs.len())
        })
    });
    g.finish();
}

/// Diagonal evaluation: Walsh monomials (popcount) vs conditional
/// pattern channels (the representation the E-decomposition would give
/// without the Walsh conversion).
fn bench_diagonal(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_diagonal");
    g.sample_size(15);
    let n = 24u32;
    let bonds = ls_symmetry::lattice::chain_bonds(n as usize);
    // Walsh form: one (coeff, zmask) per bond.
    let walsh: Vec<(f64, u64)> =
        bonds.iter().map(|&(i, j)| (0.25, (1u64 << i) | (1u64 << j))).collect();
    // Conditional form: 4 (pattern, coeff) channels per bond.
    let mut channels: Vec<(u64, u64, f64)> = Vec::new(); // (sites, pattern, coeff)
    for &(i, j) in &bonds {
        let sites = (1u64 << i) | (1u64 << j);
        for pat_bits in 0..4u64 {
            let pattern = ((pat_bits & 1) << i) | (((pat_bits >> 1) & 1) << j);
            let aligned = (pat_bits & 1) == ((pat_bits >> 1) & 1);
            channels.push((sites, pattern, if aligned { 0.25 } else { -0.25 }));
        }
    }
    let states: Vec<u64> = FixedWeightRange::all(n, n / 2).take(20_000).collect();
    g.bench_function("walsh_popcount", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &states {
                for &(cf, zmask) in &walsh {
                    let downs = (!s & zmask).count_ones();
                    acc += if downs & 1 == 0 { cf } else { -cf };
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("conditional_channels", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &states {
                for &(sites, pattern, cf) in &channels {
                    if s & sites == pattern {
                        acc += cf;
                    }
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Message granularity of the distributed product: the staging-buffer
/// capacity of the producer/consumer pipeline, from one pair per message
/// to whole-row-block batches.
fn bench_batched_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_batched_rows");
    g.sample_size(10);
    let s = ls_bench::SmallScale::chain(22, 4, 1);
    let mut y = ls_runtime::DistVec::<f64>::zeros(&s.basis.states().lens());
    for capacity in [1usize, 16, 256, 4096] {
        let opts = ls_dist::PcOptions { capacity, ..ls_dist::PcOptions::default() };
        g.bench_function(format!("capacity_{capacity}"), |b| {
            b.iter(|| ls_dist::matvec_pc(&s.cluster, &s.op, &s.basis, &s.x, &mut y, opts))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ranking,
    bench_matvec_strategies,
    bench_partition,
    bench_diagonal,
    bench_batched_rows
);
criterion_main!(benches);
