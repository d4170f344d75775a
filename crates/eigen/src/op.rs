//! The matrix-free operator interface and the BLAS-1 layer of the
//! eigensolvers.
//!
//! Two tiers of vector kernels live here:
//!
//! * the original serial helpers ([`dot`], [`norm`], [`axpy`], [`scale`])
//!   — linear accumulation order, used by the dense references and
//!   anywhere a plain loop is the right tool;
//! * the **parallel deterministic** kernels ([`par_dot`],
//!   [`par_norm_sqr`], [`par_axpy`], [`par_scale`], and the fused
//!   [`par_axpy_norm_sqr`]) that the Lanczos pipeline runs on. Reductions
//!   are computed as per-block partials over a *fixed* partition
//!   ([`REDUCE_BLOCK`], independent of the thread count) combined in a
//!   fixed pairwise tree ([`pairwise_sum`]) — the result is bit-identical
//!   for `LS_NUM_THREADS = 1, 2, …, N`, only the wall time changes.

use ls_kernels::Scalar;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A linear operator `A` acting on vectors of scalars `S`.
///
/// Implementations must be thread-safe (`Sync`): eigensolvers may call
/// `apply` from parallel contexts.
pub trait LinearOp<S: Scalar>: Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`. `x.len() == y.len() == self.dim()`; `y` arrives
    /// zero-filled or with arbitrary content and must be overwritten.
    fn apply(&self, x: &[S], y: &mut [S]);

    /// Computes `y = A x` and returns `⟨x, y⟩` — the fused matvec+dot
    /// epilogue of a Lanczos iteration (`α_j = ⟨v_j, H v_j⟩`).
    ///
    /// The default runs `apply` followed by [`par_dot`]; implementations
    /// with chunked products (e.g. the batched pull) override it
    /// to accumulate the inner product while the freshly written output
    /// chunk is still cache-resident, saving one full sweep over the
    /// Krylov vectors per iteration. Overrides must stay deterministic
    /// across thread counts, like every kernel in this module.
    fn apply_dot(&self, x: &[S], y: &mut [S]) -> S {
        self.apply(x, y);
        par_dot(x, y)
    }

    /// True when the operator is Hermitian. Lanczos requires it.
    fn is_hermitian(&self) -> bool {
        true
    }
}

/// A dense (row-major) matrix operator — the reference implementation and
/// test scaffold.
#[derive(Clone, Debug)]
pub struct DenseOp<S> {
    n: usize,
    a: Vec<S>, // row-major n×n
}

impl<S: Scalar> DenseOp<S> {
    pub fn new(n: usize, a: Vec<S>) -> Self {
        assert_eq!(a.len(), n * n);
        Self { n, a }
    }

    pub fn from_rows(rows: &[Vec<S>]) -> Self {
        let n = rows.len();
        let mut a = Vec::with_capacity(n * n);
        for r in rows {
            assert_eq!(r.len(), n);
            a.extend_from_slice(r);
        }
        Self { n, a }
    }

    pub fn entry(&self, i: usize, j: usize) -> S {
        self.a[i * self.n + j]
    }
}

impl<S: Scalar> LinearOp<S> for DenseOp<S> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.a[i * self.n..(i + 1) * self.n];
            let mut acc = S::ZERO;
            for (aij, xj) in row.iter().zip(x) {
                acc += *aij * *xj;
            }
            *yi = acc;
        }
    }
}

/// Hermitian inner product `⟨a, b⟩ = Σ conj(a_i) b_i`.
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// Squared 2-norm (always real).
#[inline]
pub fn norm_sqr<S: Scalar>(a: &[S]) -> f64 {
    a.iter().map(|x| x.abs_sqr()).sum()
}

/// 2-norm.
#[inline]
pub fn norm<S: Scalar>(a: &[S]) -> f64 {
    norm_sqr(a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha` (real scale).
#[inline]
pub fn scale<S: Scalar>(x: &mut [S], alpha: f64) {
    for xi in x.iter_mut() {
        *xi = xi.scale_re(alpha);
    }
}

// ---------------------------------------------------------------------------
// Parallel deterministic kernels
// ---------------------------------------------------------------------------

/// Reduction-block length of the parallel kernels. Fixed — *never* a
/// function of the thread count — so the partial-sum layout, and with it
/// every floating-point result, is identical no matter how many pool
/// workers execute the sweep. Sized to amortize a chunk claim while
/// leaving enough blocks for dynamic load balancing on large sectors.
pub const REDUCE_BLOCK: usize = 8192;

/// Below this many blocks a kernel computes its partials inline instead
/// of dispatching to the pool — a wake-up costs more than a few blocks
/// of streaming arithmetic. The partial layout and combination tree are
/// the same either way, so the result is bit-identical to the parallel
/// path (the dispatch decision is invisible in the output). Public so
/// the f32-storage kernels of [`crate::precision`] share the threshold.
pub const MIN_PAR_BLOCKS: usize = 8;

/// Sums `parts` in a fixed pairwise (balanced binary) tree. The tree
/// shape depends only on `parts.len()`, making the reduction
/// deterministic and more accurate than linear accumulation.
pub fn pairwise_sum<S: Scalar>(parts: &[S]) -> S {
    match parts.len() {
        0 => S::ZERO,
        1 => parts[0],
        2 => parts[0] + parts[1],
        n => pairwise_sum(&parts[..n / 2]) + pairwise_sum(&parts[n / 2..]),
    }
}

/// Views a scalar slice as atomic `f64`-bit lanes (the layout trick the
/// scatter matvec uses). Used for racing-free indexed stores of reduction
/// partials from parallel chunks; every lane is written by exactly one
/// chunk, so relaxed stores suffice. Public so the fused matvec+dot in
/// `ls-core` shares this one audited copy of the unsafe cast (`f64`
/// itself is a `Scalar`, so plain real partials go through it too).
pub fn atomic_lanes<S: Scalar>(data: &mut [S]) -> &[AtomicU64] {
    // SAFETY: every `Scalar` is `N_REALS` little-endian f64 lanes, and
    // AtomicU64 has the same size/alignment as f64 on every supported
    // target.
    unsafe {
        std::slice::from_raw_parts(
            data.as_mut_ptr() as *const AtomicU64,
            data.len() * S::N_REALS,
        )
    }
}

/// Stores `value`'s lanes into partial slot `slot` (relaxed; one writer
/// per slot — see [`atomic_lanes`]).
#[inline]
pub fn store_partial<S: Scalar>(lanes: &[AtomicU64], slot: usize, value: S) {
    let reals = value.to_reals();
    for lane in 0..S::N_REALS {
        lanes[slot * S::N_REALS + lane].store(reals[lane].to_bits(), Ordering::Relaxed);
    }
}

/// Parallel Hermitian inner product, bit-deterministic across thread
/// counts: per-block partials (linear within a [`REDUCE_BLOCK`]) combined
/// with [`pairwise_sum`].
pub fn par_dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let n_blocks = n.div_ceil(REDUCE_BLOCK);
    if n_blocks <= 1 {
        return dot(a, b);
    }
    let mut partials = vec![S::ZERO; n_blocks];
    if n_blocks < MIN_PAR_BLOCKS {
        for (bi, p) in partials.iter_mut().enumerate() {
            let lo = bi * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            *p = dot(&a[lo..hi], &b[lo..hi]);
        }
    } else {
        let lanes = atomic_lanes(&mut partials);
        (0..n_blocks).into_par_iter().for_each(|bi| {
            let lo = bi * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            store_partial(lanes, bi, dot(&a[lo..hi], &b[lo..hi]));
        });
    }
    pairwise_sum(&partials)
}

/// Parallel squared 2-norm, bit-deterministic across thread counts.
pub fn par_norm_sqr<S: Scalar>(a: &[S]) -> f64 {
    let n = a.len();
    let n_blocks = n.div_ceil(REDUCE_BLOCK);
    if n_blocks <= 1 {
        return norm_sqr(a);
    }
    let mut partials = vec![0.0f64; n_blocks];
    if n_blocks < MIN_PAR_BLOCKS {
        for (bi, p) in partials.iter_mut().enumerate() {
            let lo = bi * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            *p = norm_sqr(&a[lo..hi]);
        }
    } else {
        let lanes = atomic_lanes(&mut partials);
        (0..n_blocks).into_par_iter().for_each(|bi| {
            let lo = bi * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            store_partial(lanes, bi, norm_sqr(&a[lo..hi]));
        });
    }
    pairwise_sum(&partials)
}

/// Parallel 2-norm (deterministic, see [`par_norm_sqr`]).
pub fn par_norm<S: Scalar>(a: &[S]) -> f64 {
    par_norm_sqr(a).sqrt()
}

/// Parallel `y += alpha * x`. Element-wise, so trivially deterministic.
pub fn par_axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    if y.len() < MIN_PAR_BLOCKS * REDUCE_BLOCK {
        return axpy(alpha, x, y);
    }
    y.par_chunks_mut(REDUCE_BLOCK).enumerate().for_each(|(bi, yb)| {
        let base = bi * REDUCE_BLOCK;
        axpy(alpha, &x[base..base + yb.len()], yb);
    });
}

/// Parallel `x *= alpha` (real scale).
pub fn par_scale<S: Scalar>(x: &mut [S], alpha: f64) {
    if x.len() < MIN_PAR_BLOCKS * REDUCE_BLOCK {
        return scale(x, alpha);
    }
    x.par_chunks_mut(REDUCE_BLOCK).for_each(|xb| scale(xb, alpha));
}

/// Blocked multi-vector inner products: `out[b] = ⟨vs[b], w⟩` for every
/// basis vector at once, sweeping `w` (and each `vs[b]`) exactly once.
/// This is the coefficient half of blocked (CGS2) reorthogonalization —
/// with `m` basis vectors the one-vector-at-a-time loop reads `w` `m`
/// times per pass; this kernel reads it once, with the current `w` block
/// cache-hot across all `m` dot products. Deterministic: per-vector
/// partials over the fixed [`REDUCE_BLOCK`] partition, combined with
/// [`pairwise_sum`].
pub fn par_multi_dot<S: Scalar, V: AsRef<[S]> + Sync>(vs: &[V], w: &[S]) -> Vec<S> {
    let m = vs.len();
    if m == 0 {
        return Vec::new();
    }
    let n = w.len();
    let n_blocks = n.div_ceil(REDUCE_BLOCK).max(1);
    // partials[b * n_blocks + k] = ⟨vs[b], w⟩ restricted to block k.
    let mut partials = vec![S::ZERO; m * n_blocks];
    let fill = |k: usize, partials_k: &mut dyn FnMut(usize, S)| {
        let lo = k * REDUCE_BLOCK;
        let hi = (lo + REDUCE_BLOCK).min(n);
        for (b, v) in vs.iter().enumerate() {
            partials_k(b, dot(&v.as_ref()[lo..hi], &w[lo..hi]));
        }
    };
    if n_blocks < MIN_PAR_BLOCKS {
        for k in 0..n_blocks {
            fill(k, &mut |b, p| partials[b * n_blocks + k] = p);
        }
    } else {
        let lanes = atomic_lanes(&mut partials);
        (0..n_blocks).into_par_iter().for_each(|k| {
            fill(k, &mut |b, p| store_partial(lanes, b * n_blocks + k, p));
        });
    }
    (0..m).map(|b| pairwise_sum(&partials[b * n_blocks..(b + 1) * n_blocks])).collect()
}

/// Blocked multi-vector update: `w += Σ_b coeffs[b] · vs[b]`, sweeping
/// `w` exactly once (the update half of blocked reorthogonalization and
/// of Ritz-vector assembly). Per element the additions run in ascending
/// `b` order — independent of how chunks are claimed, so deterministic.
pub fn par_multi_axpy<S: Scalar, V: AsRef<[S]> + Sync>(coeffs: &[S], vs: &[V], w: &mut [S]) {
    debug_assert_eq!(coeffs.len(), vs.len());
    if vs.is_empty() {
        return;
    }
    let update = |base: usize, wb: &mut [S]| {
        for (b, v) in vs.iter().enumerate() {
            axpy(coeffs[b], &v.as_ref()[base..base + wb.len()], wb);
        }
    };
    if w.len() < MIN_PAR_BLOCKS * REDUCE_BLOCK {
        let len = w.len();
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + REDUCE_BLOCK).min(len);
            update(lo, &mut w[lo..hi]);
            lo = hi;
        }
    } else {
        w.par_chunks_mut(REDUCE_BLOCK).enumerate().for_each(|(k, wb)| {
            update(k * REDUCE_BLOCK, wb);
        });
    }
}

/// [`par_multi_axpy`] fused with `‖w‖²` of the result — the final
/// reorthogonalization pass and the β norm in one sweep over `w`.
/// Bit-identical to [`par_multi_axpy`] followed by [`par_norm_sqr`].
pub fn par_multi_axpy_norm_sqr<S: Scalar, V: AsRef<[S]> + Sync>(
    coeffs: &[S],
    vs: &[V],
    w: &mut [S],
) -> f64 {
    debug_assert_eq!(coeffs.len(), vs.len());
    let n = w.len();
    let n_blocks = n.div_ceil(REDUCE_BLOCK).max(1);
    let update = |base: usize, wb: &mut [S]| -> f64 {
        for (b, v) in vs.iter().enumerate() {
            axpy(coeffs[b], &v.as_ref()[base..base + wb.len()], wb);
        }
        norm_sqr(wb)
    };
    let mut partials = vec![0.0f64; n_blocks];
    if n_blocks < MIN_PAR_BLOCKS {
        for (k, p) in partials.iter_mut().enumerate() {
            let lo = k * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            *p = update(lo, &mut w[lo..hi]);
        }
    } else {
        let lanes = atomic_lanes(&mut partials);
        w.par_chunks_mut(REDUCE_BLOCK).enumerate().for_each(|(k, wb)| {
            store_partial(lanes, k, update(k * REDUCE_BLOCK, wb));
        });
    }
    pairwise_sum(&partials)
}

/// Fused `y += alpha * x; return ‖y‖²` in one parallel sweep — the
/// axpy+norm epilogue of a Lanczos iteration (the final
/// reorthogonalization update and the β that follows it), saving one full
/// read pass over the Krylov vector. Bit-identical to [`par_axpy`]
/// followed by [`par_norm_sqr`], at any thread count.
pub fn par_axpy_norm_sqr<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = y.len();
    let n_blocks = n.div_ceil(REDUCE_BLOCK);
    if n_blocks <= 1 {
        axpy(alpha, x, y);
        return norm_sqr(y);
    }
    let mut partials = vec![0.0f64; n_blocks];
    if n_blocks < MIN_PAR_BLOCKS {
        for (bi, p) in partials.iter_mut().enumerate() {
            let lo = bi * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            axpy(alpha, &x[lo..hi], &mut y[lo..hi]);
            *p = norm_sqr(&y[lo..hi]);
        }
    } else {
        let lanes = atomic_lanes(&mut partials);
        y.par_chunks_mut(REDUCE_BLOCK).enumerate().for_each(|(bi, yb)| {
            let base = bi * REDUCE_BLOCK;
            let xb = &x[base..base + yb.len()];
            axpy(alpha, xb, yb);
            store_partial(lanes, bi, norm_sqr(yb));
        });
    }
    pairwise_sum(&partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;

    #[test]
    fn dense_apply() {
        let a = DenseOp::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = vec![0.0; 2];
        a.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn blas1_helpers() {
        let a = vec![1.0, -2.0, 2.0];
        assert_eq!(norm_sqr(&a), 9.0);
        assert_eq!(norm(&a), 3.0);
        assert_eq!(dot(&a, &a), 9.0);
        let mut y = vec![0.0, 1.0, 0.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![2.0, -3.0, 4.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.0, -1.5, 2.0]);
    }

    #[test]
    fn complex_dot_conjugates_left() {
        let a = vec![Complex64::new(0.0, 1.0)];
        let b = vec![Complex64::new(0.0, 1.0)];
        // ⟨i, i⟩ = conj(i)·i = 1.
        assert!(dot(&a, &b).approx_eq(Complex64::ONE, 1e-15));
    }

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| ((i % 97) as f64 - 48.0) * scale).collect()
    }

    #[test]
    fn par_kernels_agree_with_serial() {
        for n in [0usize, 1, 100, REDUCE_BLOCK, 3 * REDUCE_BLOCK + 7, 9 * REDUCE_BLOCK + 11] {
            let a = ramp(n, 1e-3);
            let b = ramp(n, -2e-3);
            let tol = 1e-12 * (n as f64 + 1.0);
            assert!((par_dot(&a, &b) - dot(&a, &b)).abs() <= tol, "dot n={n}");
            assert!((par_norm_sqr(&a) - norm_sqr(&a)).abs() <= tol, "norm n={n}");
            let mut y1 = b.clone();
            let mut y2 = b.clone();
            par_axpy(0.37, &a, &mut y1);
            axpy(0.37, &a, &mut y2);
            assert_eq!(y1, y2, "axpy n={n}");
            par_scale(&mut y1, 0.25);
            scale(&mut y2, 0.25);
            assert_eq!(y1, y2, "scale n={n}");
            // Fused axpy+norm is bit-identical to the split pair.
            let mut y3 = b.clone();
            let fused = par_axpy_norm_sqr(-0.11, &a, &mut y3);
            let mut y4 = b.clone();
            par_axpy(-0.11, &a, &mut y4);
            assert_eq!(y3, y4, "fused update n={n}");
            assert_eq!(fused.to_bits(), par_norm_sqr(&y4).to_bits(), "fused norm n={n}");
        }
    }

    #[test]
    fn blocked_multi_kernels_agree_with_loops() {
        for n in [0usize, 5, REDUCE_BLOCK + 3, 9 * REDUCE_BLOCK + 1] {
            let w = ramp(n, 5e-4);
            let vs: Vec<Vec<f64>> = (0..4).map(|k| ramp(n, 1e-3 * (k + 1) as f64)).collect();
            let coeffs = par_multi_dot(&vs, &w);
            assert_eq!(coeffs.len(), 4);
            for (b, v) in vs.iter().enumerate() {
                assert_eq!(
                    coeffs[b].to_bits(),
                    par_dot(v, &w).to_bits(),
                    "multi-dot lane {b} n={n}"
                );
            }
            // Multi-axpy equals the sequential per-vector updates.
            let mut w1 = w.clone();
            par_multi_axpy(&coeffs, &vs, &mut w1);
            let mut w2 = w.clone();
            // Same per-element order: ascending b within each element.
            for i in 0..n {
                for (b, v) in vs.iter().enumerate() {
                    w2[i] += coeffs[b] * v[i];
                }
            }
            assert_eq!(w1, w2, "multi-axpy n={n}");
            // The fused variant matches multi-axpy + parallel norm bitwise.
            let mut w3 = w.clone();
            let fused = par_multi_axpy_norm_sqr(&coeffs, &vs, &mut w3);
            assert_eq!(w3, w1, "fused multi update n={n}");
            assert_eq!(fused.to_bits(), par_norm_sqr(&w1).to_bits(), "fused multi norm n={n}");
        }
    }

    #[test]
    fn pairwise_sum_shapes() {
        assert_eq!(pairwise_sum::<f64>(&[]), 0.0);
        assert_eq!(pairwise_sum(&[3.0]), 3.0);
        let parts: Vec<f64> = (0..13).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&parts), 78.0);
        let cparts: Vec<Complex64> =
            (0..7).map(|i| Complex64::new(i as f64, -(i as f64))).collect();
        let s = pairwise_sum(&cparts);
        assert!(s.approx_eq(Complex64::new(21.0, -21.0), 1e-12));
    }
}
