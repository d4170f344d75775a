//! Storage lanes: the element type a Krylov vector *stores*, next to the
//! [`Scalar`] type its arithmetic runs in.
//!
//! Every [`Scalar`] is its own lane (`Acc = Self`, 8-byte real lanes).
//! `f32` is the narrow lane over f64 arithmetic: every product widens
//! both operands, every reduction accumulates f64 and only the store
//! narrows — half the bytes per element for the bandwidth-bound Krylov
//! sweeps (`LS_PRECISION=f32|mixed` in `ls-eigen`).
//!
//! The kernels cover one block of a vector. The deterministic parallel
//! BLAS-1 of `ls-eigen` is written once on top of them (fixed block
//! partition, pairwise tree over the per-block partials), so the lane
//! decides the per-block arithmetic and nothing else. The trait lives in
//! this crate, beside [`Scalar`], because only here can coherence see
//! that `f32` is not a `Scalar`: one generic impl per vector type then
//! covers every storage width.

use crate::complexnum::Scalar;
use crate::simd;

/// An element type of Krylov vector storage.
pub trait Lane: Copy + Send + Sync + Default {
    /// The type arithmetic runs in and reductions return.
    type Acc: Scalar;

    /// Bytes per stored real lane: 8 for the f64-backed scalars, 4 for
    /// `f32`. Checkpoints and wire frames store lanes at this width.
    const WIDTH: u32;

    /// Exact conversion into the arithmetic type.
    fn widen(self) -> Self::Acc;

    /// Rounds an arithmetic value to storage (the identity for 8-byte
    /// lanes).
    fn narrow(x: Self::Acc) -> Self;

    /// Hermitian inner product `Σ conj(a_i) b_i`.
    fn dot(a: &[Self], b: &[Self]) -> Self::Acc;

    /// Squared 2-norm.
    fn norm_sqr(a: &[Self]) -> f64;

    /// `y += alpha · x`.
    fn axpy(alpha: Self::Acc, x: &[Self], y: &mut [Self]);

    /// `y *= alpha` (real scale).
    fn scale(y: &mut [Self], alpha: f64);

    /// `y += alpha · x`, returning `‖y‖²` of the stored result.
    fn axpy_norm_sqr(alpha: Self::Acc, x: &[Self], y: &mut [Self]) -> f64;

    /// `wb[i] += Σ_b coeffs[b] · vs[b][base + i]`, the additions of each
    /// element in ascending `b` order.
    fn multi_axpy<V: AsRef<[Self]>>(
        coeffs: &[Self::Acc],
        vs: &[V],
        base: usize,
        wb: &mut [Self],
    );
}

/// Full-width storage: the kernels are plain loops in linear order.
impl<S: Scalar> Lane for S {
    type Acc = S;

    const WIDTH: u32 = 8;

    #[inline]
    fn widen(self) -> S {
        self
    }

    #[inline]
    fn narrow(x: S) -> S {
        x
    }

    #[inline]
    fn dot(a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = S::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc += x.conj() * *y;
        }
        acc
    }

    #[inline]
    fn norm_sqr(a: &[S]) -> f64 {
        a.iter().map(|x| x.abs_sqr()).sum()
    }

    #[inline]
    fn axpy(alpha: S, x: &[S], y: &mut [S]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }

    #[inline]
    fn scale(y: &mut [S], alpha: f64) {
        for yi in y.iter_mut() {
            *yi = yi.scale_re(alpha);
        }
    }

    #[inline]
    fn axpy_norm_sqr(alpha: S, x: &[S], y: &mut [S]) -> f64 {
        Self::axpy(alpha, x, y);
        Self::norm_sqr(y)
    }

    #[inline]
    fn multi_axpy<V: AsRef<[S]>>(coeffs: &[S], vs: &[V], base: usize, wb: &mut [S]) {
        for (c, v) in coeffs.iter().zip(vs) {
            Self::axpy(*c, &v.as_ref()[base..base + wb.len()], wb);
        }
    }
}

/// f32 storage, f64 arithmetic: the [`simd`] f32 kernels, whose scalar
/// and AVX2 paths share one reduction shape.
impl Lane for f32 {
    type Acc = f64;

    const WIDTH: u32 = 4;

    #[inline]
    fn widen(self) -> f64 {
        self as f64
    }

    #[inline]
    fn narrow(x: f64) -> f32 {
        x as f32
    }

    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f64 {
        simd::dot_f32(a, b)
    }

    #[inline]
    fn norm_sqr(a: &[f32]) -> f64 {
        simd::norm_sqr_f32(a)
    }

    #[inline]
    fn axpy(alpha: f64, x: &[f32], y: &mut [f32]) {
        simd::axpy_f32(alpha, x, y);
    }

    #[inline]
    fn scale(y: &mut [f32], alpha: f64) {
        simd::scale_f32(y, alpha);
    }

    #[inline]
    fn axpy_norm_sqr(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
        simd::axpy_norm_sqr_f32(alpha, x, y)
    }

    /// Each element accumulates in f64 and narrows once on store.
    #[inline]
    fn multi_axpy<V: AsRef<[f32]>>(coeffs: &[f64], vs: &[V], base: usize, wb: &mut [f32]) {
        for (i, w) in wb.iter_mut().enumerate() {
            let mut acc = *w as f64;
            for (c, v) in coeffs.iter().zip(vs) {
                acc += c * v.as_ref()[base + i] as f64;
            }
            *w = acc as f32;
        }
    }
}
