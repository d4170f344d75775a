//! The Krylov vector abstraction: one solver, any storage.
//!
//! Every Krylov algorithm in this crate (Lanczos eigensolver, the
//! `exp(zH)` propagators, the spectral continued fraction) is a short
//! three-term recurrence over a handful of BLAS-1 primitives plus the
//! matrix-vector product. [`KrylovVec`] captures exactly those
//! primitives — fused, deterministic, in place — so the recurrences are
//! written once and run on any storage:
//!
//! * **`Vec<L>`** — shared-memory vectors on the parallel deterministic
//!   kernels of [`crate::op`] (per-block partials over the fixed
//!   [`crate::op::REDUCE_BLOCK`] partition, pairwise reduction trees);
//! * **`ls_runtime::DistVec<L>`** — locale-partitioned vectors. Each
//!   primitive runs the same shared-memory kernel *per part* and reduces
//!   the per-locale partials in locale order (the `allreduce` of a real
//!   cluster). Nothing is ever gathered: the Krylov recurrence operates
//!   on the distributed parts in place, which is the paper's central
//!   claim — Krylov state stays distributed, only matrix elements cross
//!   locale boundaries.
//!
//! Both are generic over the storage [`Lane`] `L`, which fixes the
//! arithmetic type (`KrylovVec::Scalar = L::Acc`), the stored width and
//! the per-block kernels: `f64` and `Complex64` store what they compute
//! on, `f32` stores 4-byte lanes and computes in f64 (the
//! reduced-precision modes of [`crate::precision`]). The storage kind
//! and scalar width that checkpoints record follow from the lane.
//!
//! [`KrylovOp`] is the operator side: the matrix-vector product over a
//! given vector type, plus the allocation hook the solvers use for their
//! workspace ([`KrylovOp::new_vec`]) and the fused matvec+dot epilogue
//! ([`KrylovOp::apply_dot`]). Every [`LinearOp`] automatically is a
//! `KrylovOp<Vec<S>>`, so existing slice-based operators need no changes;
//! the distributed backend implements `KrylovOp<DistVec<S>>` directly on
//! the producer/consumer engine.
//!
//! # Determinism
//!
//! Both implementations inherit the workspace-wide contract: reduction
//! partials live on thread-count-independent partitions (blocks within a
//! part, parts in locale order), so every primitive is bit-identical for
//! any `LS_NUM_THREADS`. The distributed reduction order *does* depend on
//! the locale count — results across cluster shapes agree to solver
//! tolerance, not bitwise, exactly like a real machine.

use crate::op::{self, LinearOp};
use ls_kernels::{Lane, Scalar};
use ls_runtime::transport::{self, MpRuntime};
use ls_runtime::DistVec;

/// Panics unless `a` and `b` have the same number of parts with the
/// same lengths. A release-mode check: the per-part kernels zip parts and
/// elements, so a mismatched pair would silently drop elements instead
/// of failing.
fn assert_same_layout<L>(a: &DistVec<L>, b: &DistVec<L>, what: &str) {
    assert!(
        a.n_locales() == b.n_locales()
            && a.parts().iter().zip(b.parts()).all(|(p, q)| p.len() == q.len()),
        "distributed {what} of mismatched layouts"
    );
}

/// Rank-ordered sum of per-rank scalar partials (multiprocess). Lane-wise
/// addition in rank order is bit-identical to the in-process backend's
/// `acc += partial` over parts in locale order.
fn allreduce_scalars<S: Scalar>(mp: &MpRuntime, partials: &[S]) -> Vec<S> {
    let mut lanes = Vec::with_capacity(partials.len() * S::N_REALS);
    for p in partials {
        lanes.extend_from_slice(&p.to_reals()[..S::N_REALS]);
    }
    let summed = mp.allreduce_lanes(&lanes);
    summed
        .chunks_exact(S::N_REALS)
        .map(|c| {
            let mut r = [0.0f64; 2];
            r[..S::N_REALS].copy_from_slice(c);
            S::from_reals(r)
        })
        .collect()
}

/// Appends one real lane in the byte encoding of `width`-byte storage
/// (checkpoint payloads and multiprocess wire frames): little-endian
/// f64, or the f32 the lane was widened from (exact, so it round-trips
/// bitwise).
pub(crate) fn put_lane(buf: &mut Vec<u8>, lane: f64, width: u32) {
    use bytes::BufMut;
    if width == 4 {
        buf.put_u32_le((lane as f32).to_bits());
    } else {
        buf.put_f64_le(lane);
    }
}

/// Reads one real lane written by [`put_lane`], widened to f64.
pub(crate) fn get_lane(r: &mut &[u8], width: u32) -> f64 {
    use bytes::Buf;
    if width == 4 {
        f32::from_bits(r.get_u32_le()) as f64
    } else {
        r.get_f64_le()
    }
}

/// A vector a Krylov solver can iterate on: fused, deterministic BLAS-1
/// plus an element-order fill hook.
///
/// The multi-vector operations (`multi_dot`, `multi_axpy`,
/// `multi_axpy_norm_sqr`) are the blocked-CGS2 workhorses — they sweep
/// the target vector once for the whole basis instead of once per basis
/// vector, and the solvers' performance rests on them.
pub trait KrylovVec: Clone {
    type Scalar: Scalar;

    /// Storage-kind tag written into checkpoint files so a resume cannot
    /// silently reinterpret one storage's bytes as another's
    /// (see [`crate::checkpoint`]). Derived from the vector type and its
    /// lane width:
    ///
    /// * 1 — dense `Vec<L>`, 8-byte lanes (`f64`, `Complex64`);
    /// * 2 — distributed `DistVec<L>`, 8-byte lanes;
    /// * 3 — dense `Vec<f32>`;
    /// * 4 — distributed `DistVec<f32>`.
    const STORAGE_KIND: u32;

    /// Bytes per stored scalar lane ([`Lane::WIDTH`]): 8 for f64-backed
    /// storage, 4 for the f32 storage of the reduced-precision modes.
    /// Checkpoints (format v2) record it so a resume can widen an f32
    /// checkpoint into an f64 solve explicitly — and reject the lossy
    /// direction with a typed error instead of truncating lanes.
    const SCALAR_WIDTH: u32;

    /// Global number of elements (summed over parts for distributed
    /// storage).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Part lengths describing the physical layout (`[len]` for dense
    /// storage, per-locale lengths for distributed storage). Checkpoints
    /// record it so a resume on a different layout is rejected instead of
    /// silently breaking the bit-identical-resume contract (reduction
    /// order follows the parts).
    fn layout(&self) -> Vec<usize>;

    /// Visits every element in ascending global order — the
    /// serialization counterpart of [`KrylovVec::fill_with`].
    fn visit(&self, f: &mut dyn FnMut(Self::Scalar));

    /// Overwrites every element with `f(global_index)`, calling `f` in
    /// ascending global order exactly once per element. Callers feed
    /// sequential RNG streams through this, so the order is a contract:
    /// a distributed vector filled this way is element-for-element the
    /// vector a shared-memory solver would start from.
    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> Self::Scalar);

    /// Hermitian inner product `⟨self, other⟩` (left side conjugated).
    fn dot(&self, other: &Self) -> Self::Scalar;

    /// Squared 2-norm (always real).
    fn norm_sqr(&self) -> f64;

    fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// `self += alpha · x`.
    fn axpy(&mut self, alpha: Self::Scalar, x: &Self);

    /// `self *= alpha` (real scale).
    fn scale(&mut self, alpha: f64);

    /// Fused `self += alpha · x; ‖self‖²` in one sweep.
    fn axpy_norm_sqr(&mut self, alpha: Self::Scalar, x: &Self) -> f64;

    /// Blocked multi-dot: `out[b] = ⟨vs[b], w⟩`, sweeping `w` once.
    fn multi_dot(vs: &[Self], w: &Self) -> Vec<Self::Scalar>;

    /// Blocked multi-update: `w += Σ_b coeffs[b] · vs[b]`, sweeping `w`
    /// once; per element the additions run in ascending `b` order.
    fn multi_axpy(coeffs: &[Self::Scalar], vs: &[Self], w: &mut Self);

    /// [`Self::multi_axpy`] fused with `‖w‖²` of the result.
    fn multi_axpy_norm_sqr(coeffs: &[Self::Scalar], vs: &[Self], w: &mut Self) -> f64;
}

/// Dense storage on the parallel deterministic kernels of [`crate::op`].
impl<L: Lane> KrylovVec for Vec<L> {
    type Scalar = L::Acc;

    const STORAGE_KIND: u32 = if L::WIDTH == 4 { 3 } else { 1 };
    const SCALAR_WIDTH: u32 = L::WIDTH;

    fn len(&self) -> usize {
        <[L]>::len(self)
    }

    fn layout(&self) -> Vec<usize> {
        vec![<[L]>::len(self)]
    }

    fn visit(&self, f: &mut dyn FnMut(L::Acc)) {
        for &x in self.iter() {
            f(x.widen());
        }
    }

    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> L::Acc) {
        for (i, x) in self.iter_mut().enumerate() {
            *x = L::narrow(f(i));
        }
    }

    fn dot(&self, other: &Self) -> L::Acc {
        op::par_dot(self, other)
    }

    fn norm_sqr(&self) -> f64 {
        op::par_norm_sqr(self)
    }

    fn axpy(&mut self, alpha: L::Acc, x: &Self) {
        op::par_axpy(alpha, x, self);
    }

    fn scale(&mut self, alpha: f64) {
        op::par_scale(self, alpha);
    }

    fn axpy_norm_sqr(&mut self, alpha: L::Acc, x: &Self) -> f64 {
        op::par_axpy_norm_sqr(alpha, x, self)
    }

    fn multi_dot(vs: &[Self], w: &Self) -> Vec<L::Acc> {
        op::par_multi_dot(vs, w)
    }

    fn multi_axpy(coeffs: &[L::Acc], vs: &[Self], w: &mut Self) {
        op::par_multi_axpy(coeffs, vs, w);
    }

    fn multi_axpy_norm_sqr(coeffs: &[L::Acc], vs: &[Self], w: &mut Self) -> f64 {
        op::par_multi_axpy_norm_sqr(coeffs, vs, w)
    }
}

/// The distributed implementation: every primitive is the shared-memory
/// kernel applied per locale part, with scalar partials combined in
/// locale order. No part ever leaves its locale.
///
/// Under the multiprocess transport each rank runs the kernels on its own
/// (authoritative) part only and combines partials through a rank-ordered
/// allreduce — bit-identical to the in-process locale-ordered sum. The
/// replica's remote parts are left untouched by the update primitives;
/// only [`KrylovVec::visit`] re-assembles the global vector (allgather in
/// rank order), which is what checkpointing consumes.
impl<L: Lane> KrylovVec for DistVec<L> {
    type Scalar = L::Acc;

    const STORAGE_KIND: u32 = if L::WIDTH == 4 { 4 } else { 2 };
    const SCALAR_WIDTH: u32 = L::WIDTH;

    fn len(&self) -> usize {
        self.total_len()
    }

    fn layout(&self) -> Vec<usize> {
        self.lens()
    }

    fn visit(&self, f: &mut dyn FnMut(L::Acc)) {
        if let Some(mp) = transport::active() {
            // Allgather this rank's authoritative part and emit all parts
            // in rank (= global) order: every rank streams the identical
            // canonical vector, so checkpoints written from it agree.
            let lanes = <L::Acc as Scalar>::N_REALS;
            let own = self.part(mp.rank());
            let mut payload = Vec::with_capacity(own.len() * lanes * L::WIDTH as usize);
            for &x in own {
                for &lane in &x.widen().to_reals()[..lanes] {
                    put_lane(&mut payload, lane, L::WIDTH);
                }
            }
            for contribution in mp.allgather(&payload) {
                let mut r: &[u8] = &contribution;
                while !r.is_empty() {
                    let mut reals = [0.0f64; 2];
                    for slot in reals.iter_mut().take(lanes) {
                        *slot = get_lane(&mut r, L::WIDTH);
                    }
                    f(L::Acc::from_reals(reals));
                }
            }
            return;
        }
        self.for_each(|&x| f(x.widen()));
    }

    fn fill_with(&mut self, f: &mut dyn FnMut(usize) -> L::Acc) {
        // Multiprocess included: every rank fills the full replica — the
        // stream is deterministic, so all ranks agree and each rank's own
        // part comes out authoritative.
        let mut i = 0usize;
        for part in self.parts_mut() {
            for x in part.iter_mut() {
                *x = L::narrow(f(i));
                i += 1;
            }
        }
    }

    fn dot(&self, other: &Self) -> L::Acc {
        assert_same_layout(self, other, "dot");
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            let partial = op::par_dot(self.part(me), other.part(me));
            return allreduce_scalars(mp, &[partial])[0];
        }
        let mut acc = L::Acc::ZERO;
        for (pa, pb) in self.parts().iter().zip(other.parts()) {
            acc += op::par_dot(pa, pb);
        }
        acc
    }

    fn norm_sqr(&self) -> f64 {
        if let Some(mp) = transport::active() {
            let partial = op::par_norm_sqr(self.part(mp.rank()));
            return mp.allreduce_lanes(&[partial])[0];
        }
        self.parts().iter().map(|p| op::par_norm_sqr(p)).sum()
    }

    fn axpy(&mut self, alpha: L::Acc, x: &Self) {
        assert_same_layout(self, x, "axpy");
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            op::par_axpy(alpha, x.part(me), self.part_mut(me));
            return;
        }
        for (py, px) in self.parts_mut().iter_mut().zip(x.parts()) {
            op::par_axpy(alpha, px, py);
        }
    }

    fn scale(&mut self, alpha: f64) {
        if let Some(mp) = transport::active() {
            op::par_scale(self.part_mut(mp.rank()), alpha);
            return;
        }
        for part in self.parts_mut() {
            op::par_scale(part, alpha);
        }
    }

    fn axpy_norm_sqr(&mut self, alpha: L::Acc, x: &Self) -> f64 {
        assert_same_layout(self, x, "axpy");
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            let partial = op::par_axpy_norm_sqr(alpha, x.part(me), self.part_mut(me));
            return mp.allreduce_lanes(&[partial])[0];
        }
        let mut acc = 0.0f64;
        for (py, px) in self.parts_mut().iter_mut().zip(x.parts()) {
            acc += op::par_axpy_norm_sqr(alpha, px, py);
        }
        acc
    }

    fn multi_dot(vs: &[Self], w: &Self) -> Vec<L::Acc> {
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(me)).collect();
            let partials = op::par_multi_dot(&parts, w.part(me));
            return allreduce_scalars(mp, &partials);
        }
        let mut out = vec![L::Acc::ZERO; vs.len()];
        for (l, wp) in w.parts().iter().enumerate() {
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(l)).collect();
            for (acc, partial) in out.iter_mut().zip(op::par_multi_dot(&parts, wp)) {
                *acc += partial;
            }
        }
        out
    }

    fn multi_axpy(coeffs: &[L::Acc], vs: &[Self], w: &mut Self) {
        debug_assert_eq!(coeffs.len(), vs.len());
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(me)).collect();
            op::par_multi_axpy(coeffs, &parts, w.part_mut(me));
            return;
        }
        for (l, wp) in w.parts_mut().iter_mut().enumerate() {
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(l)).collect();
            op::par_multi_axpy(coeffs, &parts, wp);
        }
    }

    fn multi_axpy_norm_sqr(coeffs: &[L::Acc], vs: &[Self], w: &mut Self) -> f64 {
        debug_assert_eq!(coeffs.len(), vs.len());
        if let Some(mp) = transport::active() {
            let me = mp.rank();
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(me)).collect();
            let partial = op::par_multi_axpy_norm_sqr(coeffs, &parts, w.part_mut(me));
            return mp.allreduce_lanes(&[partial])[0];
        }
        let mut acc = 0.0f64;
        for (l, wp) in w.parts_mut().iter_mut().enumerate() {
            let parts: Vec<&[L]> = vs.iter().map(|v| v.part(l)).collect();
            acc += op::par_multi_axpy_norm_sqr(coeffs, &parts, wp);
        }
        acc
    }
}

/// A linear operator over an abstract Krylov vector type.
///
/// This is what the generic solvers ([`crate::restart::thick_restart_lanczos_in`],
/// [`crate::expm::evolve_real_time_in`], ...) are written against. The
/// slice-based [`LinearOp`] gets a blanket implementation for
/// `V = Vec<S>`, so every existing operator works unchanged; distributed
/// operators implement this directly for `DistVec<S>` and run their
/// products in place on the parts.
pub trait KrylovOp<V: KrylovVec> {
    /// Dimension of the (square) operator — `V::len` of its vectors.
    fn dim(&self) -> usize;

    /// Allocates a zero vector in this operator's layout (the solvers'
    /// workspace hook: one call per solver invocation, never per
    /// iteration).
    fn new_vec(&self) -> V;

    /// Computes `y = A x` in place on `y`'s storage.
    fn apply(&self, x: &V, y: &mut V);

    /// Computes `y = A x` and returns `⟨x, y⟩` — the fused matvec+dot
    /// epilogue of a Lanczos iteration. Implementations override it when
    /// they can accumulate the inner product while the freshly written
    /// output is still cache-resident.
    fn apply_dot(&self, x: &V, y: &mut V) -> V::Scalar {
        self.apply(x, y);
        x.dot(y)
    }

    /// True when the operator is Hermitian. The Krylov solvers require it.
    fn is_hermitian(&self) -> bool {
        true
    }

    /// Restores the operator to a usable state after detected corruption,
    /// before the solver replays from its newest checkpoint. In-process
    /// operators are stateless with respect to a cycle, so the default is
    /// a no-op; distributed operators override it to re-synchronize the
    /// transport (drain poisoned state, re-enter a clean communication
    /// epoch) and rebuild any communication-plan caches.
    fn recover(&self) {}
}

/// Every slice-based operator is a Krylov operator over `Vec<S>`,
/// including its fused `apply_dot` override (e.g. the batched-pull
/// matvec+dot of `ls-core`).
impl<S: Scalar, Op: LinearOp<S> + ?Sized> KrylovOp<Vec<S>> for Op {
    fn dim(&self) -> usize {
        LinearOp::dim(self)
    }

    fn new_vec(&self) -> Vec<S> {
        vec![S::ZERO; LinearOp::dim(self)]
    }

    fn apply(&self, x: &Vec<S>, y: &mut Vec<S>) {
        LinearOp::apply(self, x, y);
    }

    fn apply_dot(&self, x: &Vec<S>, y: &mut Vec<S>) -> S {
        LinearOp::apply_dot(self, x, y)
    }

    fn is_hermitian(&self) -> bool {
        LinearOp::is_hermitian(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_kernels::Complex64;

    fn ramp<L: Lane<Acc = f64>>(n: usize, scale: f64) -> Vec<L> {
        (0..n).map(|i| L::narrow(((i % 89) as f64 - 44.0) * scale)).collect()
    }

    /// The index range of each part, in locale order.
    fn ranges(lens: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        lens.iter().scan(0usize, |lo, &len| {
            let r = *lo..*lo + len;
            *lo += len;
            Some(r)
        })
    }

    /// Splits a dense vector into parts of the given lengths.
    fn split<L: Lane>(v: &[L], lens: &[usize]) -> DistVec<L> {
        assert_eq!(lens.iter().sum::<usize>(), v.len());
        DistVec::from_parts(ranges(lens).map(|r| v[r].to_vec()).collect())
    }

    /// A dense reduction per part, summed in locale order — the
    /// combination order of every distributed reduction.
    fn per_part(lens: &[usize], f: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
        ranges(lens).fold(0.0, |acc, r| acc + f(r))
    }

    /// Each distributed primitive against the dense `Vec<L>` one: updates
    /// bitwise, reductions bitwise per part and to tolerance overall.
    fn check_dist_primitives<L: Lane<Acc = f64> + PartialEq + std::fmt::Debug>() {
        let n = 3 * op::REDUCE_BLOCK + 137;
        let lens = [op::REDUCE_BLOCK + 1, 0, n - op::REDUCE_BLOCK - 1 - 500, 500];
        let a: Vec<L> = ramp(n, 1e-3);
        let b: Vec<L> = ramp(n, -7e-4);
        let da = split(&a, &lens);
        let db = split(&b, &lens);
        let tol = 1e-12 * n as f64;
        let dot = KrylovVec::dot(&da, &db);
        assert_eq!(
            dot.to_bits(),
            per_part(&lens, |r| op::par_dot(&a[r.clone()], &b[r])).to_bits()
        );
        assert!((dot - op::par_dot(&a, &b)).abs() <= tol);
        let norm = da.norm_sqr();
        assert_eq!(norm.to_bits(), per_part(&lens, |r| op::par_norm_sqr(&a[r])).to_bits());
        assert!((norm - op::par_norm_sqr(&a)).abs() <= tol);

        let mut y = db.clone();
        y.axpy(0.37, &da);
        let mut y_ref = b.clone();
        y_ref.axpy(0.37, &a);
        assert_eq!(y.concat(), y_ref, "axpy");
        y.scale(0.25);
        y_ref.scale(0.25);
        assert_eq!(y.concat(), y_ref, "scale");

        let mut y = db.clone();
        let fused = y.axpy_norm_sqr(-0.11, &da);
        let mut y_ref = b.clone();
        y_ref.axpy(-0.11, &a);
        assert_eq!(y.concat(), y_ref, "fused axpy");
        assert_eq!(fused.to_bits(), per_part(&lens, |r| op::par_norm_sqr(&y_ref[r])).to_bits());
        assert!((fused - op::par_norm_sqr(&y_ref)).abs() <= tol, "fused norm");
    }

    #[test]
    fn dist_primitives_agree_with_dense() {
        check_dist_primitives::<f64>();
        check_dist_primitives::<f32>();
    }

    fn check_dist_multi_kernels<L: Lane<Acc = f64> + PartialEq + std::fmt::Debug>() {
        let n = 2 * op::REDUCE_BLOCK + 33;
        let lens = [17usize, n - 17 - 1000, 0, 1000];
        let w: Vec<L> = ramp(n, 5e-4);
        let vs: Vec<Vec<L>> = (0..5).map(|k| ramp(n, 1e-3 * (k + 1) as f64)).collect();
        let dw = split(&w, &lens);
        let dvs: Vec<DistVec<L>> = vs.iter().map(|v| split(v, &lens)).collect();

        let coeffs = KrylovVec::multi_dot(&dvs, &dw);
        for (b, v) in vs.iter().enumerate() {
            let expect = per_part(&lens, |r| op::par_dot(&v[r.clone()], &w[r]));
            assert_eq!(coeffs[b].to_bits(), expect.to_bits(), "lane {b}");
            assert!((coeffs[b] - op::par_dot(v, &w)).abs() <= 1e-12 * n as f64, "lane {b}");
        }

        let mut out = dw.clone();
        DistVec::multi_axpy(&coeffs, &dvs, &mut out);
        let mut out_ref = w.clone();
        Vec::multi_axpy(&coeffs, &vs, &mut out_ref);
        assert_eq!(out.concat(), out_ref, "multi-axpy");

        let mut out2 = dw.clone();
        let fused = DistVec::multi_axpy_norm_sqr(&coeffs, &dvs, &mut out2);
        assert_eq!(out2.concat(), out_ref, "fused multi-axpy update");
        let norm = per_part(&lens, |r| op::par_norm_sqr(&out_ref[r]));
        assert_eq!(fused.to_bits(), norm.to_bits(), "fused norm");
    }

    #[test]
    fn dist_multi_kernels_agree_with_loops() {
        check_dist_multi_kernels::<f64>();
        check_dist_multi_kernels::<f32>();
    }

    #[test]
    fn fill_order_is_global_element_order() {
        let mut dense = vec![0.0f64; 23];
        let mut dist = DistVec::<f64>::zeros(&[5, 0, 11, 7]);
        let mut k = 0;
        KrylovVec::fill_with(&mut dense, &mut |i| i as f64 * 0.5);
        KrylovVec::fill_with(&mut dist, &mut |i| {
            assert_eq!(i, k, "fill must visit ascending global order");
            k += 1;
            i as f64 * 0.5
        });
        assert_eq!(dist.concat(), dense);
    }

    #[test]
    fn blanket_krylov_op_matches_linear_op() {
        let a = crate::op::DenseOp::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        let x = vec![1.0, 1.0];
        let mut y = KrylovOp::<Vec<f64>>::new_vec(&a);
        assert_eq!(y, vec![0.0, 0.0]);
        let d = KrylovOp::apply_dot(&a, &x, &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        assert_eq!(d, 10.0);
        assert_eq!(KrylovOp::<Vec<f64>>::dim(&a), 2);
        assert!(KrylovOp::<Vec<f64>>::is_hermitian(&a));
    }

    #[test]
    fn complex_dist_dot_conjugates_left() {
        let a = DistVec::from_parts(vec![vec![Complex64::new(0.0, 1.0)], vec![]]);
        assert!(KrylovVec::dot(&a, &a).approx_eq(Complex64::ONE, 1e-15));
    }

    /// Same total length, different split: the layout check must fire
    /// in release builds too, before any kernel zips the parts.
    fn misaligned_pair() -> (DistVec<f64>, DistVec<f64>) {
        (
            DistVec::from_parts(vec![vec![1.0, 2.0], vec![3.0]]),
            DistVec::from_parts(vec![vec![1.0], vec![2.0, 3.0]]),
        )
    }

    #[test]
    #[should_panic(expected = "distributed dot of mismatched layouts")]
    fn dist_dot_rejects_mismatched_layouts() {
        let (a, b) = misaligned_pair();
        let _ = KrylovVec::dot(&a, &b);
    }

    #[test]
    #[should_panic(expected = "distributed axpy of mismatched layouts")]
    fn dist_axpy_rejects_mismatched_layouts() {
        let (mut a, b) = misaligned_pair();
        KrylovVec::axpy(&mut a, 0.5, &b);
    }
}
