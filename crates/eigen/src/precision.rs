//! Mixed-precision Krylov mode: f32 vector storage, f64 arithmetic.
//!
//! The thick-restart solver is bandwidth-bound on its Krylov state (the
//! paper's central measurement), so halving the bytes per stored lane
//! halves the traffic of every BLAS-1 sweep and every reorthogonalization
//! pass. The storage itself is no separate type: `Vec<f32>` is a
//! [`KrylovVec`] through the `f32` [`ls_kernels::Lane`], which *stores*
//! f32 lanes and performs **all arithmetic in f64** — every product
//! widens both operands, every reduction accumulates f64 partials over
//! the same fixed [`op::REDUCE_BLOCK`] partition and [`op::pairwise_sum`]
//! tree as the f64 kernels (they are the same generic kernels), and only
//! the final store narrows. Results are therefore bit-identical across
//! thread counts and `LS_SIMD` levels, exactly like the f64 storage — the
//! *mode* changes results (f32 rounding on store), never the machine
//! shape. This module provides the rest of the mode:
//!
//! * [`MixedOp`] — adapts any f64 [`LinearOp`] to `KrylovOp<Vec<f32>>`
//!   by widening the input vector, applying in f64, and narrowing the
//!   output.
//! * [`refine_in_f64`] — one step of iterative refinement: a
//!   Rayleigh–Ritz pass in full f64 over the widened f32 Ritz basis.
//!   For a Hermitian operator the Ritz values of the refined subspace
//!   carry an `O(‖r‖²)` eigenvalue error, which is what lets an f32
//!   subspace (residuals ~1e-6·‖H‖) deliver eigenvalues at f64 solver
//!   tolerance (~1e-12·‖H‖).
//!
//! The mode is selected by `LS_PRECISION`:
//!
//! * `f64` (default) — the ordinary double-precision solve;
//! * `f32` — f32 storage end to end, eigenvalues at f32 accuracy;
//! * `mixed` — f32 storage for the Krylov loop plus one f64 refinement
//!   pass at the end.
//!
//! Complex sectors ignore the knob (Jordan–Wigner phases and momentum
//! characters keep full width), and so do distributed solves, which run
//! in f64 only; [`eigensolve_precision`] is the routing entry for real
//! (f64) operators.

use crate::lanczos::LanczosResultIn;
use crate::op::{self, LinearOp};
use crate::restart::{thick_restart_lanczos_in, RestartOptions};
use crate::vector::{KrylovOp, KrylovVec};
use std::cell::RefCell;
use std::sync::OnceLock;

/// The precision mode of a Krylov solve (`LS_PRECISION`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Precision {
    /// f64 storage and arithmetic (the default).
    F64,
    /// f32 storage, f64 arithmetic, no refinement: eigenvalues at f32
    /// accuracy in half the vector memory.
    F32,
    /// f32 storage for the Krylov loop, one f64 Rayleigh–Ritz refinement
    /// at the end: f64-tolerance eigenvalues in half the loop memory.
    Mixed,
}

impl Precision {
    /// Reads `LS_PRECISION` (cached; `f64|f32|mixed`, default `f64`).
    pub fn from_env() -> Self {
        static MODE: OnceLock<Precision> = OnceLock::new();
        *MODE.get_or_init(|| {
            let mode = std::env::var("LS_PRECISION").unwrap_or_else(|_| "f64".into());
            match mode.as_str() {
                "f64" => Precision::F64,
                "f32" => Precision::F32,
                "mixed" => Precision::Mixed,
                other => panic!("LS_PRECISION={other:?} is not one of f64|f32|mixed"),
            }
        })
    }
}

/// Exact f64 copy of f32 storage.
fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Adapts an f64 [`LinearOp`] to `KrylovOp<Vec<f32>>`: widen the input,
/// apply in full f64, narrow the output. The matvec itself never runs in
/// reduced precision — only the Krylov *state* between matvecs is f32.
pub struct MixedOp<'a, Op: LinearOp<f64> + ?Sized> {
    inner: &'a Op,
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a, Op: LinearOp<f64> + ?Sized> MixedOp<'a, Op> {
    pub fn new(inner: &'a Op) -> Self {
        Self { inner, scratch: RefCell::new((Vec::new(), Vec::new())) }
    }
}

impl<Op: LinearOp<f64> + ?Sized> KrylovOp<Vec<f32>> for MixedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn new_vec(&self) -> Vec<f32> {
        vec![0.0; self.inner.dim()]
    }

    fn apply(&self, x: &Vec<f32>, y: &mut Vec<f32>) {
        let (xw, yw) = &mut *self.scratch.borrow_mut();
        xw.clear();
        xw.extend(x.iter().map(|&v| v as f64));
        yw.clear();
        yw.resize(xw.len(), 0.0);
        self.inner.apply(xw, yw);
        y.clear();
        y.extend(yw.iter().map(|&v| v as f32));
    }

    fn apply_dot(&self, x: &Vec<f32>, y: &mut Vec<f32>) -> f64 {
        // The fused dot must be the dot of the *stored* (narrowed) `y`,
        // or the Lanczos α would disagree with what a recomputation from
        // storage yields and a checkpoint resume could diverge.
        self.apply(x, y);
        x.dot(y)
    }

    fn is_hermitian(&self) -> bool {
        self.inner.is_hermitian()
    }
}

/// One step of iterative refinement: Rayleigh–Ritz in full f64 on the
/// span of the (widened) f32 Ritz basis. Returns `(eigenvalues,
/// eigenvectors, residuals)`, ascending, one entry per basis vector.
///
/// For a Hermitian `A`, Ritz values extracted from a subspace carrying
/// residual `‖r‖` have `O(‖r‖²)` eigenvalue error — the f32 subspace's
/// ~1e-7 relative residuals land the refined eigenvalues at ~1e-14
/// relative error, i.e. f64 solver tolerance, for the cost of `k` f64
/// matvecs.
pub fn refine_in_f64<Op: LinearOp<f64> + ?Sized>(
    op: &Op,
    basis32: &[Vec<f32>],
) -> (Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
    let k = basis32.len();
    assert!(k >= 1, "refinement needs at least one Ritz vector");
    let mut basis: Vec<Vec<f64>> = basis32.iter().map(|v| widen(v)).collect();
    // Orthonormalize the widened basis (CGS2: two projection passes).
    for i in 0..k {
        for _pass in 0..2 {
            let (head, tail) = basis.split_at_mut(i);
            let v = &mut tail[0];
            if i > 0 {
                let mut coeffs = op::par_multi_dot(head, v);
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                op::par_multi_axpy(&coeffs, head, v);
            }
        }
        let norm = op::par_norm_sqr(&basis[i]).sqrt();
        assert!(norm > 0.0, "refinement basis is rank-deficient");
        op::par_scale(&mut basis[i], 1.0 / norm);
    }
    // Projected matrix H[i][j] = ⟨v_i, A v_j⟩ from k full-precision
    // matvecs (keep the products for residuals).
    let mut av: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut h = vec![0.0f64; k * k];
    for j in 0..k {
        let mut w = vec![0.0f64; basis[j].len()];
        op.apply(&basis[j], &mut w);
        for (i, hij) in op::par_multi_dot(&basis, &w).into_iter().enumerate() {
            h[i * k + j] = hij;
        }
        av.push(w);
    }
    // Symmetrize against matvec round-off before the Jacobi solve.
    for i in 0..k {
        for j in (i + 1)..k {
            let s = 0.5 * (h[i * k + j] + h[j * k + i]);
            h[i * k + j] = s;
            h[j * k + i] = s;
        }
    }
    let (vals, rots) = crate::jacobi::eigh_real(&h, k);
    // Assemble refined eigenvectors and their true residuals.
    let mut vecs = Vec::with_capacity(k);
    let mut residuals = Vec::with_capacity(k);
    for (e, rot) in rots.iter().enumerate() {
        let mut x = vec![0.0f64; basis[0].len()];
        op::par_multi_axpy(rot, &basis, &mut x);
        let mut r = vec![0.0f64; x.len()];
        op::par_multi_axpy(rot, &av, &mut r); // r = A x
        op::par_axpy(-vals[e], &x, &mut r); // r -= λ x
        residuals.push(op::par_norm_sqr(&r).sqrt());
        vecs.push(x);
    }
    (vals, vecs, residuals)
}

/// Precision-routed thick-restart eigensolve for real (f64) operators:
/// the entry the f64 pipeline calls when `LS_PRECISION` may be set.
/// Eigenvectors come back widened to f64 in every mode.
pub fn eigensolve_precision<Op: LinearOp<f64> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
    precision: Precision,
) -> LanczosResultIn<Vec<f64>> {
    match precision {
        Precision::F64 => thick_restart_lanczos_in::<Vec<f64>, Op>(op, opts),
        Precision::F32 => {
            let r = thick_restart_lanczos_in(&MixedOp::new(op), opts);
            LanczosResultIn {
                eigenvalues: r.eigenvalues,
                eigenvectors: r.eigenvectors.map(|vs| vs.iter().map(|v| widen(v)).collect()),
                iterations: r.iterations,
                residuals: r.residuals,
                converged: r.converged,
                peak_retained: r.peak_retained,
                rollbacks: r.rollbacks,
            }
        }
        Precision::Mixed => {
            // The f32 pass must return its Ritz basis for refinement.
            let mut inner = opts.clone();
            inner.want_vectors = true;
            let r = thick_restart_lanczos_in(&MixedOp::new(op), &inner);
            let basis32 = r.eigenvectors.expect("want_vectors was set");
            let (vals, vecs, residuals) = refine_in_f64(op, &basis32);
            LanczosResultIn {
                eigenvalues: vals,
                eigenvectors: opts.want_vectors.then_some(vecs),
                iterations: r.iterations + basis32.len(),
                residuals,
                converged: r.converged,
                peak_retained: r.peak_retained,
                rollbacks: r.rollbacks,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DenseOp;
    use crate::restart::RestartOptions;

    /// Symmetric test matrix with a well-separated low end.
    fn test_op(n: usize) -> DenseOp<f64> {
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = i as f64 - 0.3 * n as f64;
            if i + 1 < n {
                a[i * n + i + 1] = 0.7;
                a[(i + 1) * n + i] = 0.7;
            }
            if i + 3 < n {
                a[i * n + i + 3] = -0.2;
                a[(i + 3) * n + i] = -0.2;
            }
        }
        DenseOp::new(n, a)
    }

    #[test]
    fn f32_vec_kernels_match_f64_to_storage_precision() {
        let n = 3 * op::REDUCE_BLOCK + 41;
        let xs: Vec<f64> = (0..n).map(|i| ((i % 97) as f64 - 48.0) * 1e-3).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i % 89) as f64 - 44.0) * 2e-3).collect();
        let fx: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
        let mut fy: Vec<f32> = ys.iter().map(|&y| y as f32).collect();
        let tol = 1e-6 * n as f64;
        assert!((fx.dot(&fy) - op::par_dot(&xs, &ys)).abs() <= tol);
        assert!((fx.norm_sqr() - op::par_norm_sqr(&xs)).abs() <= tol);
        let fused = fy.axpy_norm_sqr(0.31, &fx);
        assert!((fused - fy.norm_sqr()).abs() <= 1e-12 * n as f64, "fused = stored norm");
        let mut wide = widen(&fy);
        op::par_scale(&mut wide, 0.5);
        fy.scale(0.5);
        for (a, b) in fy.iter().zip(&wide) {
            assert_eq!(*a, *b as f32, "scale narrows the f64 result");
        }
    }

    #[test]
    fn f32_multi_kernels_are_deterministic_and_fused() {
        let n = 2 * op::REDUCE_BLOCK + 17;
        let vs: Vec<Vec<f32>> = (0..4)
            .map(|k| {
                (0..n).map(|i| (((i * (k + 2) % 83) as f64 - 41.0) * 1e-3) as f32).collect()
            })
            .collect();
        let w0: Vec<f32> = (0..n).map(|i| (((i % 71) as f64 - 35.0) * 1e-3) as f32).collect();
        let coeffs = KrylovVec::multi_dot(&vs, &w0);
        let mut w1 = w0.clone();
        KrylovVec::multi_axpy(&coeffs, &vs, &mut w1);
        let mut w2 = w0.clone();
        let fused = KrylovVec::multi_axpy_norm_sqr(&coeffs, &vs, &mut w2);
        assert_eq!(w1, w2, "fused update matches plain update");
        assert_eq!(fused.to_bits(), w1.norm_sqr().to_bits(), "fused norm is stored norm");
    }

    #[test]
    fn env_default_is_f64() {
        // The suite does not set LS_PRECISION, so the cached mode is the
        // default (other tests pass precision explicitly).
        assert_eq!(Precision::from_env(), Precision::F64);
    }

    #[test]
    fn f32_storage_reaches_f32_accuracy() {
        let op = test_op(400);
        let opts = RestartOptions { tol: 1e-6, ..RestartOptions::new(3) };
        let exact = thick_restart_lanczos_in::<Vec<f64>, _>(&op, &RestartOptions::new(3));
        let r32 = eigensolve_precision(&op, &opts, Precision::F32);
        for (a, b) in r32.eigenvalues.iter().zip(&exact.eigenvalues) {
            assert!((a - b).abs() <= 1e-3, "f32 eigenvalue {a} vs f64 {b}");
        }
    }

    #[test]
    fn mixed_mode_reaches_f64_tolerance() {
        let op = test_op(400);
        let opts = RestartOptions { tol: 1e-6, want_vectors: true, ..RestartOptions::new(3) };
        let exact = thick_restart_lanczos_in::<Vec<f64>, _>(&op, &RestartOptions::new(3));
        let rm = eigensolve_precision(&op, &opts, Precision::Mixed);
        for (a, b) in rm.eigenvalues.iter().zip(&exact.eigenvalues) {
            assert!((a - b).abs() <= 1e-9, "refined eigenvalue {a} vs f64 {b}");
        }
        // Residuals of the refined pairs are genuinely small in f64.
        for r in &rm.residuals {
            assert!(*r <= 1e-4, "refined residual {r}");
        }
    }
}
