//! Cross-solver oracle suite for thick-restart Lanczos: on random
//! symmetrized sectors small enough for dense diagonalization, the
//! memory-bounded solver must agree with (a) the dense Jacobi reference
//! and (b) full-memory Lanczos, while actually honoring its vector
//! budget.
//!
//! Oracle assertions are multiplicity-robust: every returned value must
//! lie in the dense spectrum, the ground state must match exactly, and
//! sorted Ritz values are bounded below by the sorted dense spectrum
//! (any k true eigenvalues sorted ascending dominate the k smallest).

mod common;

use exact_diag::eigen::jacobi::eigh_real;
use exact_diag::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Dense spectrum of a sector (row-major flatten + Jacobi).
fn dense_spectrum(op: &SymmetrizedOperator<f64>, basis: &SpinBasis) -> Vec<f64> {
    let rows = op.to_dense(basis);
    let n = basis.dim();
    let mut flat = vec![0.0f64; n * n];
    for (i, row) in rows.iter().enumerate() {
        flat[i * n..(i + 1) * n].copy_from_slice(row);
    }
    let (vals, _) = eigh_real(&flat, n);
    vals
}

/// Unbounded-budget options: one whole-space chain, never compressed.
fn whole_space(k: usize, tol: f64) -> RestartOptions {
    RestartOptions { extra: usize::MAX, tol, ..RestartOptions::new(k) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Thick restart vs dense Jacobi vs full Lanczos on random sectors
    /// with dimensions well past the vector budget.
    #[test]
    fn thick_restart_agrees_with_dense_and_full_lanczos(
        case in any::<u64>(),
        k_choice in 1usize..4,
    ) {
        // Chain sizes whose sector dimensions stay dense-diagonalizable.
        let n = 10usize;
        let sector = common::random_sector(n, case);
        let (op, basis) = common::heisenberg_problem(n, &sector);
        let dim = basis.dim();
        prop_assume!(dim >= 16);
        let dense = dense_spectrum(&op, &basis);
        let k = k_choice.min(dim / 4).max(1);
        let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));

        let full = thick_restart_lanczos(&full_op, &whole_space(k, 1e-11));
        let opts = RestartOptions {
            extra: k + 4, // total budget 2k + 4 vectors — far below dim
            tol: 1e-11,
            want_vectors: true,
            ..RestartOptions::new(k)
        };
        let thick = thick_restart_lanczos(&full_op, &opts);

        prop_assert!(thick.converged, "thick restart did not converge: {:?}", thick.residuals);
        prop_assert!(full.converged, "full Lanczos did not converge");

        // Budget honored: never more than k + extra live vectors.
        prop_assert!(
            thick.peak_retained <= opts.k + opts.extra,
            "peak {} exceeds budget {}", thick.peak_retained, opts.k + opts.extra
        );
        // ... and genuinely fewer than the full solver's retained basis
        // whenever the run restarts at all.
        if full.iterations + 1 > opts.k + opts.extra {
            prop_assert!(thick.peak_retained < full.peak_retained);
        }

        // (a) vs dense: λ0 exact, every value in the spectrum, sorted
        // values dominated below by the dense spectrum.
        prop_assert!((thick.eigenvalues[0] - dense[0]).abs() < 1e-7,
            "λ0 {} vs dense {}", thick.eigenvalues[0], dense[0]);
        for (i, v) in thick.eigenvalues.iter().enumerate() {
            prop_assert!(
                dense.iter().any(|d| (d - v).abs() < 1e-7),
                "Ritz value {v} not in the dense spectrum"
            );
            prop_assert!(*v >= dense[i] - 1e-7, "λ{i} = {v} below dense λ{i} = {}", dense[i]);
        }

        // (b) vs full-memory Lanczos: same ground state.
        prop_assert!((thick.eigenvalues[0] - full.eigenvalues[0]).abs() < 1e-8,
            "thick {} vs full {}", thick.eigenvalues[0], full.eigenvalues[0]);

        // (c) Ritz pairs are genuine: ‖Hx − λx‖ below tolerance.
        let vecs = thick.eigenvectors.as_ref().unwrap();
        for (lam, v) in thick.eigenvalues.iter().zip(vecs) {
            let mut hv = vec![0.0f64; dim];
            full_op.apply(v, &mut hv);
            let rn: f64 = hv
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            prop_assert!(rn < 1e-6, "Ritz residual {rn} for λ = {lam}");
        }

        // (d) the solver's own residual estimates honor the tolerance.
        let scale = thick.eigenvalues.iter().fold(1e-300f64, |a, v| a.max(v.abs()));
        for r in &thick.residuals {
            prop_assert!(*r <= 1e-11 * scale.max(dense.last().unwrap().abs()) * 10.0,
                "reported residual {r} above tolerance");
        }
    }

    /// On sectors too large for a dense oracle, thick restart still
    /// reproduces full-memory Lanczos eigenvalues under a tight budget.
    #[test]
    fn thick_restart_matches_full_lanczos_on_larger_sectors(case in any::<u64>()) {
        let n = 14usize;
        let sector = common::random_sector(n, case);
        let (op, basis) = common::heisenberg_problem(n, &sector);
        let dim = basis.dim();
        prop_assume!(dim >= 64);
        let k = 2usize;
        let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));
        let full = thick_restart_lanczos(&full_op, &whole_space(k, 1e-11));
        let thick = thick_restart_lanczos(
            &full_op,
            &RestartOptions { extra: 10, tol: 1e-11, ..RestartOptions::new(k) },
        );
        prop_assert!(thick.converged && full.converged);
        prop_assert!(thick.peak_retained <= k + 10);
        for (i, (a, b)) in thick.eigenvalues.iter().zip(&full.eigenvalues).enumerate() {
            prop_assert!((a - b).abs() < 1e-7, "λ{i}: thick {a} vs full {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mixed-precision oracle: f32 vector storage with f64 accumulation
    /// plus one Rayleigh–Ritz refinement step must reproduce the dense
    /// spectrum to f64-class tolerance — the same bound the pure-f64
    /// path is held to above — while plain f32 storage without the
    /// refinement step is only required to reach f32-class accuracy.
    #[test]
    fn mixed_precision_reaches_f64_tolerance_on_oracle_sectors(
        case in any::<u64>(),
        k_choice in 1usize..4,
    ) {
        let n = 10usize;
        let sector = common::random_sector(n, case);
        let (op, basis) = common::heisenberg_problem(n, &sector);
        let dim = basis.dim();
        prop_assume!(dim >= 16);
        let dense = dense_spectrum(&op, &basis);
        let k = k_choice.min(dim / 4).max(1);
        let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));
        let opts = RestartOptions {
            extra: k + 4,
            tol: 1e-11,
            ..RestartOptions::new(k)
        };

        let mixed = exact_diag::eigen::eigensolve_precision(
            &full_op,
            &opts,
            exact_diag::eigen::Precision::Mixed,
        );
        prop_assert!(mixed.converged, "mixed solve did not converge: {:?}", mixed.residuals);
        for (i, v) in mixed.eigenvalues.iter().enumerate() {
            prop_assert!(
                dense.iter().any(|d| (d - v).abs() < 1e-7),
                "mixed λ{i} = {v} not in the dense spectrum"
            );
            prop_assert!(*v >= dense[i] - 1e-7, "mixed λ{i} = {v} below dense λ{i} = {}", dense[i]);
        }
        prop_assert!((mixed.eigenvalues[0] - dense[0]).abs() < 1e-7,
            "mixed λ0 {} vs dense {}", mixed.eigenvalues[0], dense[0]);

        // Raw f32 storage (no refinement) only has to land within
        // f32-class distance of the spectrum.
        let raw = exact_diag::eigen::eigensolve_precision(
            &full_op,
            &opts,
            exact_diag::eigen::Precision::F32,
        );
        prop_assert!((raw.eigenvalues[0] - dense[0]).abs() < 1e-3,
            "f32 λ0 {} vs dense {}", raw.eigenvalues[0], dense[0]);
    }
}

/// The default 24-site-scale acceptance path, shrunk to CI size: a
/// 16-vector budget (far below the dimension, so the solve genuinely
/// restarts) must agree with the unbounded-budget full-memory chain on a
/// U(1) sector.
#[test]
fn routed_solver_reaches_full_lanczos_eigenvalues_on_u1_sector() {
    let n = 16usize;
    let sector = SectorSpec::with_weight(n as u32, 8).unwrap();
    let (op, basis) = common::heisenberg_problem(n, &sector);
    let dim = basis.dim(); // C(16, 8) = 12870
    let full_op = Operator::<f64>::from_parts(op, Arc::new(basis));

    // Full-memory reference.
    let full = thick_restart_lanczos(&full_op, &whole_space(2, 1e-10));
    // Small budget forces the restarted path.
    let routed = thick_restart_lanczos(
        &full_op,
        &RestartOptions { extra: 14, tol: 1e-10, ..RestartOptions::new(2) },
    );
    assert!(full.converged && routed.converged);
    assert!(routed.peak_retained <= 16, "routed peak {}", routed.peak_retained);
    assert!(full.peak_retained > 16, "reference did not exceed the budget (dim {dim})");
    for (a, b) in routed.eigenvalues.iter().zip(&full.eigenvalues) {
        assert!((a - b).abs() < 1e-7, "routed {a} vs full {b}");
    }
}
