//! Cross-crate integration: every distributed code path must agree with
//! the shared-memory reference, and the conversions must satisfy the
//! paper's exact-roundtrip property (Sec. 6.1).

mod common;

use exact_diag::baseline::matvec_alltoall;
use exact_diag::basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use exact_diag::core::matvec::apply_serial;
use exact_diag::dist::convert::{hashed_masks, to_block};
use exact_diag::dist::matvec::{matvec_pc, PcOptions};
use exact_diag::dist::{
    block_to_hashed, dist_thick_restart_lanczos, enumerate_dist, hashed_to_block,
    DistRestartOptions,
};
use exact_diag::prelude::*;
use exact_diag::runtime::{Cluster, ClusterSpec, DistVec};

fn problem(n: usize) -> (SectorSpec, SymmetrizedOperator<f64>, SpinBasis, Vec<f64>, Vec<f64>) {
    let expr = heisenberg(&chain_bonds(n), 1.0);
    let kernel = expr.to_kernel(n as u32).unwrap();
    let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let basis = SpinBasis::build(sector.clone());
    let x: Vec<f64> = (0..basis.dim())
        .map(|i| {
            let h = ls_kernels::hash64_01(i as u64 + 17);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let mut y = vec![0.0; basis.dim()];
    apply_serial(&op, &basis, &x, &mut y);
    (sector, op, basis, x, y)
}

/// The wrappers' solver configuration (128-vector budget) for `k` pairs.
fn budget_128(k: usize, want_vectors: bool) -> DistRestartOptions {
    DistRestartOptions {
        restart: RestartOptions { extra: 128 - k, want_vectors, ..RestartOptions::new(k) },
        ..Default::default()
    }
}

/// Scatters a canonical vector into the hashed distribution of `dist`.
fn scatter(
    basis: &SpinBasis,
    dist: &exact_diag::dist::DistSpinBasis,
    x: &[f64],
) -> DistVec<f64> {
    let mut out = DistVec::<f64>::zeros(&dist.states().lens());
    for l in 0..dist.n_locales() {
        for (i, &s) in dist.states().part(l).iter().enumerate() {
            out.part_mut(l)[i] = x[basis.index_of(s).unwrap()];
        }
    }
    out
}

#[test]
fn every_matvec_agrees_with_serial_reference() {
    let n = 14usize;
    let (sector, op, basis, x, y_ref) = problem(n);
    for locales in [1usize, 2, 5] {
        let cluster = Cluster::new(ClusterSpec::new(locales, 2));
        let dist = enumerate_dist(&cluster, &sector, 4);
        assert_eq!(dist.dim(), basis.dim() as u64);
        let xd = scatter(&basis, &dist, &x);
        let lens = dist.states().lens();

        let check = |yd: &DistVec<f64>, label: &str| {
            for l in 0..locales {
                for (i, &s) in dist.states().part(l).iter().enumerate() {
                    let expect = y_ref[basis.index_of(s).unwrap()];
                    let got = yd.part(l)[i];
                    assert!(
                        (got - expect).abs() < 1e-10,
                        "{label}, locales={locales}: {got} vs {expect}"
                    );
                }
            }
        };

        let mut yd = DistVec::<f64>::zeros(&lens);
        matvec_pc(
            &cluster,
            &op,
            &dist,
            &xd,
            &mut yd,
            PcOptions { producers: 2, consumers: 2, capacity: 64, ..PcOptions::default() },
        );
        check(&yd, "producer-consumer");

        let mut yd = DistVec::<f64>::zeros(&lens);
        matvec_alltoall(&cluster, &op, &dist, &xd, &mut yd);
        check(&yd, "alltoall baseline");
    }
}

#[test]
fn conversion_roundtrip_is_bit_exact() {
    // The paper: "We use this experiment as a test as well and verify
    // that the roundtrip exactly preserves the vector."
    let n = 14usize;
    let (sector, _, basis, x, _) = problem(n);
    for locales in [1usize, 3, 6] {
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        // Canonical (global-order) states, block-distributed.
        let states_block = to_block(basis.states(), locales);
        let masks = hashed_masks(&cluster, &states_block);
        let x_block = to_block(&x, locales);

        let x_hashed = block_to_hashed(&cluster, &x_block, &masks, 7);
        let x_back = hashed_to_block(&cluster, &x_hashed, &masks, 5);
        assert_eq!(x_back.parts(), x_block.parts(), "locales={locales}");

        // The hashed states themselves match the distributed enumeration.
        let dist = enumerate_dist(&cluster, &sector, 4);
        let states_hashed = block_to_hashed(&cluster, &states_block, &masks, 3);
        assert_eq!(states_hashed.parts(), dist.states().parts());
    }
}

#[test]
fn distributed_lanczos_invariant_under_cluster_shape() {
    let n = 12usize;
    let (sector, op, _, _, _) = problem(n);
    let mut energies = Vec::new();
    for (locales, cores) in [(1usize, 1usize), (2, 2), (4, 1)] {
        let cluster = Cluster::new(ClusterSpec::new(locales, cores));
        let basis = enumerate_dist(&cluster, &sector, 3);
        let res = dist_thick_restart_lanczos(&cluster, &op, &basis, &budget_128(2, false));
        assert!(res.converged);
        energies.push(res.eigenvalues.clone());
    }
    for e in &energies[1..] {
        for (a, b) in e.iter().zip(&energies[0]) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }
    // Pin the physical value (12-site ring, fully symmetric sector).
    assert!((energies[0][0] + 5.387_390_917_445).abs() < 1e-6);
}

/// The gather-scatter regression guard: the in-place distributed Lanczos
/// must never read a Krylov vector across locales. All communication in
/// the solve is the producer/consumer channel traffic (one-sided *puts*
/// and flag messages); a gather would show up as RMA *gets*. Requested
/// Ritz vectors come back distributed, in the basis's own layout.
#[test]
fn distributed_lanczos_gathers_nothing() {
    let n = 12usize;
    let (sector, op, basis, _, _) = problem(n);
    let cluster = Cluster::new(ClusterSpec::new(3, 2));
    let dist = enumerate_dist(&cluster, &sector, 3);
    cluster.reset_stats();
    let res = dist_thick_restart_lanczos(&cluster, &op, &dist, &budget_128(1, true));
    let stats = cluster.stats_total();
    assert_eq!(stats.gets, 0, "in-place Lanczos must not issue RMA gets");
    assert_eq!(stats.get_bytes, 0, "in-place Lanczos gathered {} bytes", stats.get_bytes);
    assert!(stats.puts > 0, "the matvec channel traffic is still there");
    assert!(res.converged);
    let vectors = res.eigenvectors.expect("requested vectors");
    assert_eq!(vectors[0].lens(), dist.states().lens(), "Ritz vector left its distribution");
    // The distributed Ritz vector is a genuine eigenvector of the
    // shared-memory operator (gathering *here*, in the test oracle, is
    // the explicitly allowed final step).
    let gs = vectors[0].concat();
    let mut by_state: Vec<(u64, f64)> =
        dist.states().parts().iter().flatten().copied().zip(gs.iter().copied()).collect();
    by_state.sort_unstable_by_key(|&(s, _)| s);
    let dense: Vec<f64> = by_state.iter().map(|&(_, v)| v).collect();
    let mut h_dense = vec![0.0; dense.len()];
    apply_serial(&op, &basis, &dense, &mut h_dense);
    let residual: f64 = h_dense
        .iter()
        .zip(&dense)
        .map(|(hv, v)| (hv - res.eigenvalues[0] * v).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(residual < 1e-6, "Ritz residual {residual}");
}

/// Degenerate distributed layouts: a locale owning zero basis states, a
/// single-locale cluster, and a sector smaller than the locale count must
/// all survive enumeration → producer/consumer matvec → in-place
/// distributed Lanczos and agree with the shared-memory solver.
#[test]
fn degenerate_layouts_enumerate_multiply_and_solve() {
    // n=6 at half filling, fully symmetric: dimension is tiny (< 10), so
    // 8 and 16 locales guarantee empty parts and dim < locales.
    let n = 6usize;
    let (sector, op, basis, x, y_ref) = problem(n);
    let dim = basis.dim();
    let mut reference_energy = None;
    for locales in [1usize, 8, 16] {
        let cluster = Cluster::new(ClusterSpec::new(locales, 2));
        let dist = enumerate_dist(&cluster, &sector, 2);
        assert_eq!(dist.dim(), dim as u64, "locales={locales}");
        if locales > dim {
            assert!(
                dist.states().lens().contains(&0),
                "expected at least one empty part at {locales} locales"
            );
        }
        // Producer/consumer product across the degenerate layout.
        let xd = scatter(&basis, &dist, &x);
        let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
        matvec_pc(
            &cluster,
            &op,
            &dist,
            &xd,
            &mut yd,
            PcOptions { producers: 2, consumers: 1, capacity: 8, ..PcOptions::default() },
        );
        for l in 0..locales {
            for (i, &s) in dist.states().part(l).iter().enumerate() {
                let expect = y_ref[basis.index_of(s).unwrap()];
                assert!((yd.part(l)[i] - expect).abs() < 1e-10, "locales={locales}");
            }
        }
        // In-place distributed Lanczos on the same layout.
        let res = dist_thick_restart_lanczos(&cluster, &op, &dist, &budget_128(1, false));
        assert!(res.converged, "locales={locales}");
        let e = res.eigenvalues[0];
        match reference_energy {
            None => reference_energy = Some(e),
            Some(e0) => assert!((e - e0).abs() < 1e-9, "locales={locales}: {e} vs {e0}"),
        }
    }
}

/// The distributed BLAS-1 layer (the kernels the in-place Krylov
/// recurrence runs on) is bit-identical across thread counts: per-part
/// reductions use thread-independent block partials, and parts combine
/// in locale order. Driven through `rayon::set_thread_limit` in a single
/// test so the global override is never mutated concurrently.
#[test]
fn dist_blas_bit_exact_across_thread_counts() {
    use exact_diag::eigen::KrylovVec;
    let lens = [40_000usize, 0, 25_000, 1];
    let mk = |seed: u64| {
        let mut k = 0u64;
        let mut parts = Vec::new();
        for &len in &lens {
            parts.push(
                (0..len)
                    .map(|_| {
                        k += 1;
                        let h = ls_kernels::hash64_01(seed.wrapping_add(k));
                        (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    })
                    .collect::<Vec<f64>>(),
            );
        }
        DistVec::from_parts(parts)
    };
    let x = mk(3);
    let y = mk(17);
    let vs = [mk(31), mk(47), mk(59)];
    let run = |threads: usize| {
        let prev = rayon::set_thread_limit(threads);
        let d = x.dot(&y);
        let n = x.norm_sqr();
        let coeffs = KrylovVec::multi_dot(&vs, &y);
        let mut w = y.clone();
        let fused = KrylovVec::multi_axpy_norm_sqr(&coeffs, &vs, &mut w);
        let mut z = y.clone();
        let an = z.axpy_norm_sqr(-0.37, &x);
        rayon::set_thread_limit(prev);
        (
            d.to_bits(),
            n.to_bits(),
            coeffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            fused.to_bits(),
            w.concat().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            an.to_bits(),
        )
    };
    let serial = run(1);
    let parallel = run(rayon::current_num_threads().max(4));
    assert_eq!(serial, parallel, "dist BLAS-1 diverged across thread counts");
}

/// Checkpoint/resume on **distributed** Krylov storage: a thick-restart
/// solve on `DistVec` vectors that is checkpointed, dropped after two
/// restart cycles and resumed is bit-identical to the uninterrupted
/// solve — across thread counts. (The `Vec<S>` counterpart lives in
/// tests/pool_determinism.rs; together they pin the resume contract for
/// both storages.)
///
/// The operator here is a deterministic `KrylovOp<DistVec>`: the
/// producer/consumer engine accumulates contributions in arrival order
/// (faithful to the paper's remote atomics), so engine-driven products
/// are only reproducible to rounding — the engine-driven resume is
/// covered at solver tolerance by the next test. Everything the restart
/// machinery adds (distributed BLAS-1, Ritz compression, checkpoint
/// serialization in canonical element order) must be exactly
/// reproducible, and this test pins that.
#[test]
fn dist_thick_restart_checkpoint_resume_bit_identical() {
    use exact_diag::eigen::{
        thick_restart_lanczos_in, CheckpointPolicy, KrylovOp, RestartOptions,
    };

    let _guard = common::thread_limit_guard();

    /// Dense operator handing out block-distributed vectors (test
    /// scaffolding: deterministic sequential apply).
    struct DistDense {
        a: Vec<f64>,
        n: usize,
        lens: Vec<usize>,
    }
    impl KrylovOp<DistVec<f64>> for DistDense {
        fn dim(&self) -> usize {
            self.n
        }
        fn new_vec(&self) -> DistVec<f64> {
            DistVec::zeros(&self.lens)
        }
        fn apply(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) {
            let dense = x.concat();
            let mut i = 0usize;
            for part in y.parts_mut() {
                for out in part.iter_mut() {
                    let row = &self.a[i * self.n..(i + 1) * self.n];
                    *out = row.iter().zip(&dense).map(|(h, v)| h * v).sum();
                    i += 1;
                }
            }
        }
    }

    let n = 180usize;
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let h = ls_kernels::hash64_01((i * n + j) as u64 ^ 0xd15c);
            let x = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            a[i * n + j] = x;
            a[j * n + i] = x;
        }
    }
    let op = DistDense { a, n, lens: vec![71, 0, 60, 49] };
    let base =
        RestartOptions { extra: 8, tol: 1e-12, want_vectors: true, ..RestartOptions::new(2) };

    let run = |threads: usize, interrupt: bool| {
        let prev = rayon::set_thread_limit(threads);
        let res = if interrupt {
            let path = common::tmp_path(&format!("dist_resume_{threads}.lsck"));
            std::fs::remove_file(&path).ok();
            let ck = CheckpointPolicy::new(path.clone());
            // "Kill" after two restart cycles...
            let truncated = thick_restart_lanczos_in(
                &op,
                &RestartOptions {
                    max_restarts: 2,
                    checkpoint: Some(ck.clone()),
                    ..base.clone()
                },
            );
            assert!(!truncated.converged, "interrupted run already converged");
            // ...then resume from the checkpoint and finish.
            let resumed = thick_restart_lanczos_in(
                &op,
                &RestartOptions { checkpoint: Some(ck), ..base.clone() },
            );
            std::fs::remove_file(&path).ok();
            resumed
        } else {
            thick_restart_lanczos_in(&op, &base)
        };
        rayon::set_thread_limit(prev);
        assert!(res.converged, "threads={threads} interrupt={interrupt}");
        let vec_bits: Vec<Vec<u64>> = res
            .eigenvectors
            .unwrap()
            .iter()
            .map(|v| v.concat().iter().map(|x| x.to_bits()).collect())
            .collect();
        (common::bits(&res.eigenvalues), vec_bits)
    };

    let reference = run(1, false);
    let threads = rayon::current_num_threads().max(4);
    for limit in [1usize, 2, threads] {
        for interrupt in [false, true] {
            if limit == 1 && !interrupt {
                continue;
            }
            let got = run(limit, interrupt);
            assert_eq!(
                reference.0, got.0,
                "distributed thick-restart eigenvalues diverged \
                 (threads={limit}, interrupted={interrupt})"
            );
            assert_eq!(
                reference.1, got.1,
                "distributed Ritz vectors diverged (threads={limit}, \
                 interrupted={interrupt})"
            );
        }
    }
}

/// The engine-driven distributed solve: checkpointed + resumed through
/// the producer/consumer pipeline, the result matches the uninterrupted
/// solve to solver tolerance (the pipeline accumulates in arrival
/// order, so exact bits are not promised *across products* — the
/// checkpoint state itself is still exact). Also: a checkpoint written
/// under one locale partition must refuse to resume under another,
/// because reduction order follows the parts.
#[test]
fn dist_engine_thick_restart_resume_and_layout_guard() {
    use exact_diag::eigen::{CheckpointPolicy, RestartOptions};

    let n = 16usize;
    let (sector, op, _, _, _) = problem(n);
    let base =
        RestartOptions { extra: 8, tol: 1e-12, want_vectors: false, ..RestartOptions::new(2) };
    let locales = 3usize;
    let cluster = Cluster::new(ClusterSpec::new(locales, 2));
    let basis = enumerate_dist(&cluster, &sector, 3);
    let solve = |restart: RestartOptions| {
        dist_thick_restart_lanczos(
            &cluster,
            &op,
            &basis,
            &DistRestartOptions { restart, pc: PcOptions::default() },
        )
    };

    let uninterrupted = solve(base.clone());
    assert!(uninterrupted.converged);
    assert!(uninterrupted.peak_retained <= 2 + 8);

    let path = common::tmp_path("dist_engine_resume.lsck");
    std::fs::remove_file(&path).ok();
    let ck = CheckpointPolicy::new(path.clone());
    let truncated =
        solve(RestartOptions { max_restarts: 2, checkpoint: Some(ck.clone()), ..base.clone() });
    assert!(!truncated.converged, "interrupted run already converged");
    assert!(path.exists(), "no checkpoint written");
    let resumed = solve(RestartOptions { checkpoint: Some(ck), ..base.clone() });
    assert!(resumed.converged);
    for (a, b) in uninterrupted.eigenvalues.iter().zip(&resumed.eigenvalues) {
        assert!((a - b).abs() < 1e-9, "resumed {b} vs uninterrupted {a}");
    }

    // Layout guard: a checkpoint from 3 locales must not resume on 2.
    let path = common::tmp_path("dist_resume_layout.lsck");
    std::fs::remove_file(&path).ok();
    {
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        let basis = enumerate_dist(&cluster, &sector, 3);
        let _ = dist_thick_restart_lanczos(
            &cluster,
            &op,
            &basis,
            &DistRestartOptions {
                restart: RestartOptions {
                    max_restarts: 1,
                    checkpoint: Some(CheckpointPolicy::new(path.clone())),
                    ..base.clone()
                },
                pc: PcOptions::default(),
            },
        );
        assert!(path.exists(), "no checkpoint written");
    }
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let basis = enumerate_dist(&cluster, &sector, 3);
        dist_thick_restart_lanczos(
            &cluster,
            &op,
            &basis,
            &DistRestartOptions {
                restart: RestartOptions {
                    checkpoint: Some(CheckpointPolicy::new(path.clone())),
                    ..base.clone()
                },
                pc: PcOptions::default(),
            },
        )
    }));
    assert!(refused.is_err(), "checkpoint resumed across a different locale partition");
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_scale_with_locales() {
    // More locales => a larger remote fraction of the same total traffic
    // (1 - 1/L), one of the inputs the perf model relies on.
    let n = 12usize;
    let (sector, op, basis, x, _) = problem(n);
    let mut remote_bytes = Vec::new();
    for locales in [2usize, 4] {
        let cluster = Cluster::new(ClusterSpec::new(locales, 1));
        let dist = enumerate_dist(&cluster, &sector, 3);
        let xd = scatter(&basis, &dist, &x);
        let mut yd = DistVec::<f64>::zeros(&dist.states().lens());
        cluster.reset_stats();
        matvec_pc(&cluster, &op, &dist, &xd, &mut yd, PcOptions::default());
        remote_bytes.push(cluster.stats_total().put_bytes as f64);
    }
    // Expected ratio ≈ (1 - 1/4) / (1 - 1/2) = 1.5; allow slack for
    // buffer-boundary effects.
    let ratio = remote_bytes[1] / remote_bytes[0];
    assert!(ratio > 1.2 && ratio < 1.8, "remote bytes ratio {ratio}, got {remote_bytes:?}");
}
