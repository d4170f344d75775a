//! Distributed Krylov dynamics: time evolution and spectral functions on
//! locale-partitioned states.
//!
//! These are the distributed entry points to the generic propagators of
//! `ls_eigen` — the same [`DistOp`] the eigensolver uses exposes the
//! producer/consumer product as a Krylov operator over [`DistVec`], so
//! `exp(-itH)|ψ⟩`, `exp(-τH)|ψ⟩` and the continued-fraction coefficients
//! all run **in place on the distributed parts**: the Krylov basis lives
//! in the hashed distribution, reorthogonalization runs on the per-part
//! fused BLAS-1 kernels, and nothing is gathered — the evolved state
//! comes back in the same distribution it arrived in.
//!
//! One producer/consumer engine (and its staging buffers) is reused
//! across all `m` products of a call, mirroring
//! [`crate::eigensolve::dist_thick_restart_lanczos`].
//!
//! **Memory note:** the propagators retain their full `m`-vector Krylov
//! basis (each vector in the hashed distribution), so pick `m` within
//! the per-locale memory budget — for a memory-bounded *eigensolve*
//! (where restarting applies) use
//! [`crate::eigensolve::dist_thick_restart_lanczos`] instead.

use crate::basis::DistSpinBasis;
use crate::eigensolve::DistOp;
use crate::matvec::PcOptions;
use ls_basis::SymmetrizedOperator;
use ls_eigen::{
    evolve_imaginary_time_in, evolve_real_time_in, spectral_coefficients_in,
    SpectralCoefficients,
};
use ls_kernels::{Complex64, Scalar};
use ls_runtime::{Cluster, DistVec};

/// `exp(-i t H)|ψ⟩` on a distributed state via an `m`-dimensional Krylov
/// space; the result stays in the hashed distribution.
pub fn dist_evolve_real_time(
    cluster: &Cluster,
    op: &SymmetrizedOperator<Complex64>,
    basis: &DistSpinBasis,
    psi: &DistVec<Complex64>,
    t: f64,
    m: usize,
    pc: PcOptions,
) -> DistVec<Complex64> {
    let dist_op = DistOp::new(cluster, op, basis, pc);
    evolve_real_time_in(&dist_op, psi, t, m)
}

/// `exp(-τ H)|ψ⟩` (imaginary time, normalized) on a distributed state;
/// the result stays in the hashed distribution.
pub fn dist_evolve_imaginary_time<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    psi: &DistVec<S>,
    tau: f64,
    m: usize,
    pc: PcOptions,
) -> DistVec<S> {
    let dist_op = DistOp::new(cluster, op, basis, pc);
    evolve_imaginary_time_in(&dist_op, psi, tau, m)
}

/// Runs `m` Lanczos steps from the distributed seed state and returns the
/// continued-fraction coefficients of its spectral function. The Krylov
/// basis never leaves the locales; the coefficients are a few scalars.
pub fn dist_spectral_coefficients<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    seed: &DistVec<S>,
    m: usize,
    pc: PcOptions,
) -> SpectralCoefficients {
    let dist_op = DistOp::new(cluster, op, basis, pc);
    spectral_coefficients_in(&dist_op, seed, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;
    use ls_basis::{SectorSpec, SpinBasis};
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    fn problem(n: usize) -> (SectorSpec, SymmetrizedOperator<f64>, SpinBasis) {
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector.clone());
        (sector, op, basis)
    }

    /// Scatters a canonical shared-memory vector into the hashed
    /// distribution (test scaffolding only — production states are born
    /// distributed).
    fn scatter(basis: &SpinBasis, dist: &DistSpinBasis, x: &[f64]) -> DistVec<f64> {
        let mut out = DistVec::<f64>::zeros(&dist.states().lens());
        for l in 0..dist.n_locales() {
            for (i, &s) in dist.states().part(l).iter().enumerate() {
                out.part_mut(l)[i] = x[basis.index_of(s).unwrap()];
            }
        }
        out
    }

    #[test]
    fn imaginary_time_matches_shared_memory() {
        let n = 10usize;
        let (sector, op, basis) = problem(n);
        let psi: Vec<f64> = (0..basis.dim()).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let m = 25;
        let shared = ls_eigen::evolve_imaginary_time(&op_as_linear(&op, &basis), &psi, 3.0, m);
        for locales in [1usize, 3] {
            let cluster = Cluster::new(ClusterSpec::new(locales, 2));
            let dist = enumerate_dist(&cluster, &sector, 2);
            let psi_d = scatter(&basis, &dist, &psi);
            let out = dist_evolve_imaginary_time(
                &cluster,
                &op,
                &dist,
                &psi_d,
                3.0,
                m,
                PcOptions::default(),
            );
            for l in 0..locales {
                for (i, &s) in dist.states().part(l).iter().enumerate() {
                    let expect = shared[basis.index_of(s).unwrap()];
                    assert!(
                        (out.part(l)[i] - expect).abs() < 1e-9,
                        "locales={locales}: {} vs {expect}",
                        out.part(l)[i]
                    );
                }
            }
        }
    }

    #[test]
    fn spectral_coefficients_match_shared_memory() {
        let n = 10usize;
        let (sector, op, basis) = problem(n);
        let phi: Vec<f64> = (0..basis.dim()).map(|i| (0.41 * i as f64).cos()).collect();
        let m = 20;
        let shared = ls_eigen::spectral_coefficients(&op_as_linear(&op, &basis), &phi, m);
        let cluster = Cluster::new(ClusterSpec::new(4, 1));
        let dist = enumerate_dist(&cluster, &sector, 2);
        let phi_d = scatter(&basis, &dist, &phi);
        let coeffs =
            dist_spectral_coefficients(&cluster, &op, &dist, &phi_d, m, PcOptions::default());
        assert!((coeffs.weight - shared.weight).abs() < 1e-10);
        assert_eq!(coeffs.alphas.len(), shared.alphas.len());
        for (a, b) in coeffs.alphas.iter().zip(&shared.alphas) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        for (a, b) in coeffs.betas.iter().zip(&shared.betas) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // And the spectra they imply agree pointwise.
        for omega in [-3.0f64, -1.0, 0.0, 1.5] {
            let ours = coeffs.spectral_function(omega, 0.1);
            let expect = shared.spectral_function(omega, 0.1);
            assert!((ours - expect).abs() < 1e-7 * (1.0 + expect.abs()));
        }
    }

    /// A serial shared-memory reference operator over the same sector.
    struct SerialOp<'a> {
        op: &'a SymmetrizedOperator<f64>,
        basis: &'a SpinBasis,
    }

    impl ls_eigen::LinearOp<f64> for SerialOp<'_> {
        fn dim(&self) -> usize {
            self.basis.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            y.fill(0.0);
            let mut row = Vec::new();
            for j in 0..self.basis.dim() {
                let alpha = self.basis.state(j);
                y[j] += self.op.diagonal(alpha) * x[j];
                row.clear();
                self.op.apply_off_diag(alpha, self.basis.orbit_sizes()[j], &mut row);
                for &(rep, amp) in &row {
                    y[self.basis.index_of(rep).unwrap()] += amp * x[j];
                }
            }
        }
        fn is_hermitian(&self) -> bool {
            self.op.is_hermitian()
        }
    }

    fn op_as_linear<'a>(
        op: &'a SymmetrizedOperator<f64>,
        basis: &'a SpinBasis,
    ) -> SerialOp<'a> {
        SerialOp { op, basis }
    }
}
