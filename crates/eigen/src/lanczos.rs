//! The Lanczos building blocks shared by the eigensolver
//! ([`crate::restart`]), the propagators ([`crate::expm`]) and the
//! spectral continued fraction ([`crate::spectral`]) — generic over the
//! Krylov vector storage.
//!
//! Plain three-term Lanczos loses orthogonality in floating point (ghost
//! eigenvalues), so every new vector is reorthogonalized twice against
//! the whole retained basis ("twice is enough", Kahan–Parlett). Between
//! the matrix-vector products every vector operation is a fused
//! deterministic primitive of [`KrylovVec`] / [`KrylovOp`]: the
//! reorthogonalization is *blocked* CGS2 (`cgs2_beta`: `multi_dot` /
//! `multi_axpy` sweep `w` once per pass for the whole basis, not once per
//! basis vector), [`KrylovOp::apply_dot`] lets `α_j` fall out of the
//! product, and [`KrylovVec::multi_axpy_norm_sqr`] fuses the final update
//! with the β norm. On `Vec<S>` these lower to the kernels of
//! [`crate::op`] (bit-identical for any `LS_NUM_THREADS`); on `DistVec<S>`
//! they run in place on the locale parts, so the Krylov state never
//! leaves its locale.

use crate::vector::{KrylovOp, KrylovVec};
use ls_kernels::Scalar;
use rand::rngs::StdRng;
use rand::Rng;

/// Result of a Lanczos run over vector storage `V` (eigenvectors come
/// back in the same storage the solver iterated on — a distributed solve
/// yields distributed Ritz vectors).
#[derive(Clone, Debug)]
pub struct LanczosResultIn<V> {
    /// The `k` smallest Ritz values, ascending.
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors (if requested), aligned with `eigenvalues`.
    pub eigenvectors: Option<Vec<V>>,
    /// Matrix-vector products performed.
    pub iterations: usize,
    /// Final residual estimates per returned eigenvalue.
    pub residuals: Vec<f64>,
    /// Did all `k` pairs meet the tolerance?
    pub converged: bool,
    /// High-water mark of simultaneously held Krylov-state vectors
    /// (basis + workspace + any compression/assembly scratch) — the
    /// solver's memory footprint in units of one state vector.
    pub peak_retained: usize,
    /// Checkpoint rollbacks performed by the silent-error defense
    /// ([`crate::health`]): cycles that detected corruption (transport
    /// CRC/ABFT or a solver health violation) and were replayed from the
    /// newest valid checkpoint. 0 on a clean run.
    pub rollbacks: u64,
}

/// Result of a shared-memory (slice-backed) Lanczos run.
pub type LanczosResult<S> = LanczosResultIn<Vec<S>>;

/// Two blocked CGS passes orthogonalizing `w` against `basis`, the second
/// fused with the norm of the result: returns `β = ‖(1 - P)² w‖`.
pub(crate) fn cgs2_beta<V: KrylovVec>(basis: &[V], w: &mut V) -> f64 {
    let mut beta_sqr = f64::NAN;
    for pass in 0..2 {
        let mut coeffs = V::multi_dot(basis, w);
        for c in &mut coeffs {
            *c = -*c;
        }
        if pass == 1 {
            beta_sqr = V::multi_axpy_norm_sqr(&coeffs, basis, w);
        } else {
            V::multi_axpy(&coeffs, basis, w);
        }
    }
    beta_sqr.sqrt()
}

/// Builds an orthonormal Krylov basis from `v0` (consumed — it becomes
/// the first basis vector after normalization, so callers pay exactly
/// one copy of the input state) and the projected tridiagonal matrix
/// (full blocked-CGS2 reorthogonalization, fused epilogues — the
/// factorization behind the `exp(zH)` propagators and the spectral
/// continued fraction). Returns `(basis, alphas, betas)` with
/// `basis.len() == alphas.len()` and `betas.len() + 1 == alphas.len()`.
pub(crate) fn krylov_factorization<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    mut v: V,
    m: usize,
) -> (Vec<V>, Vec<f64>, Vec<f64>) {
    let m = m.min(op.dim());
    let nv = v.norm();
    assert!(nv > 0.0, "zero start vector");
    v.scale(1.0 / nv);
    let mut basis: Vec<V> = Vec::with_capacity(m);
    basis.push(v);
    let mut alphas = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    let mut w = op.new_vec();
    for j in 0..m {
        let alpha = op.apply_dot(&basis[j], &mut w).re();
        alphas.push(alpha);
        let beta = cgs2_beta(&basis, &mut w);
        if beta <= 1e-13 || j + 1 == m {
            break;
        }
        betas.push(beta);
        w.scale(1.0 / beta);
        basis.push(w.clone());
    }
    (basis, alphas, betas)
}

pub(crate) fn random_fill<V: KrylovVec>(v: &mut V, rng: &mut StdRng) {
    v.fill_with(&mut |_i| {
        let re: f64 = rng.gen_range(-1.0..1.0);
        let im: f64 = if V::Scalar::N_REALS == 2 { rng.gen_range(-1.0..1.0) } else { 0.0 };
        V::Scalar::from_reals([re, im])
    });
}
