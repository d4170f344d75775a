//! Runtime-dispatched SIMD kernels with scalar twins.
//!
//! The paper's throughput claim is that the batched matvec engine is
//! bandwidth-bound; what scalar code leaves on the table is per-element
//! *instruction* overhead in the bit kernels (state generation, bulk
//! ranking) and latency in the gather-heavy amplitude accumulation.
//! This module provides explicit AVX2 paths for those kernels next to
//! their scalar twins, selected once at startup:
//!
//! * `LS_SIMD=auto` (default) — use AVX2 when the CPU reports it;
//! * `LS_SIMD=scalar` — force the scalar twins (the reference in the
//!   bit-equivalence proptests);
//! * `LS_SIMD=avx2` — require AVX2, panic if the CPU lacks it.
//!
//! Every kernel here is **bit-exact** against its scalar twin — not
//! merely close: integer kernels are trivially exact, and the floating
//! kernels are built so vectorization never changes the reduction shape.
//! Elementwise float kernels (`axpy_f32`, gather-multiply) vectorize the
//! IEEE-exact lane operations and keep any accumulation in the scalar
//! order; reducing kernels (`dot_f32`) define a fixed 4-lane interleaved
//! accumulator shape that the scalar twin implements with plain code and
//! the AVX2 path implements with one `vaddpd` per chunk — the same
//! additions in the same order either way. `LS_SIMD` therefore never
//! changes results, only speed, and the workspace determinism contract
//! (bit-identical across thread counts and backends) holds per
//! `LS_SIMD` setting *and* across settings.
//!
//! The f32-storage kernels (`dot_f32`, `axpy_f32`, ...) are the
//! per-block kernels of the `f32` [`crate::Lane`], which backs the
//! reduced-precision Krylov modes (`LS_PRECISION=f32|mixed` in
//! `ls-eigen`): vectors are stored in f32, every product is widened to
//! f64 before arithmetic, and every reduction accumulates in f64 — only
//! storage narrows.

use std::sync::OnceLock;

/// The instruction set the kernels dispatch to, decided once per process
/// from `LS_SIMD` and runtime CPU feature detection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Scalar twins only.
    Scalar,
    /// AVX2 paths (x86-64 with runtime-detected AVX2 support).
    Avx2,
}

/// Bench/test override: when set, every kernel dispatches to its scalar
/// twin regardless of `LS_SIMD` and CPU detection. `LS_SIMD` is read
/// once per process, so in-process A/B comparisons (the `fig_batch`
/// SIMD-vs-scalar measurement) flip this instead.
static FORCE_SCALAR: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Forces (or releases) scalar dispatch for the whole process — the
/// in-process counterpart of `LS_SIMD=scalar`, used by benchmarks to
/// measure both paths in one run. Bit-exactness makes the flip safe at
/// any time.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// The active dispatch level (cached; reads `LS_SIMD` once).
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    if FORCE_SCALAR.load(std::sync::atomic::Ordering::Relaxed) {
        return SimdLevel::Scalar;
    }
    *LEVEL.get_or_init(|| {
        let mode = std::env::var("LS_SIMD").unwrap_or_else(|_| "auto".into());
        match mode.as_str() {
            "auto" => {
                if avx2_available() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Scalar
                }
            }
            "scalar" => SimdLevel::Scalar,
            "avx2" => {
                assert!(avx2_available(), "LS_SIMD=avx2 but the CPU does not report AVX2");
                SimdLevel::Avx2
            }
            other => panic!("LS_SIMD={other:?} is not one of auto|scalar|avx2"),
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

// ---------------------------------------------------------------------------
// State generation: charge-mask and field-sum filters over raw word ranges.
// ---------------------------------------------------------------------------

/// Appends every word `s` in `[lo, hi)` with `popcount(s & mask) ==
/// weight` for all `(mask, weight)` pairs — the charge-sector filter of
/// spinful-fermion (Hubbard) enumeration, which scans its raw code range
/// densely. `hi == u64::MAX` is treated as an ordinary exclusive bound
/// (the enumeration layer clamps to the code space first).
pub fn filter_charge_masks(lo: u64, hi: u64, charges: &[(u64, u32)], out: &mut Vec<u64>) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        unsafe { filter_charge_masks_avx2(lo, hi, charges, out) };
        return;
    }
    filter_charge_masks_scalar(lo, hi, charges, out);
}

/// Scalar twin of [`filter_charge_masks`].
pub fn filter_charge_masks_scalar(
    lo: u64,
    hi: u64,
    charges: &[(u64, u32)],
    out: &mut Vec<u64>,
) {
    for s in lo..hi {
        if charges.iter().all(|&(m, w)| (s & m).count_ones() == w) {
            out.push(s);
        }
    }
}

/// Appends every word `s` in `[lo, hi)` whose field sum (sum of `n_fields`
/// packed `width`-bit fields, [`crate::bits::field_sum`]) equals `sum` —
/// the U(1)-sector filter of dense multi-bit enumeration. Supports the
/// widths that occur in practice (`width <= 2`).
pub fn filter_field_sum(
    lo: u64,
    hi: u64,
    width: u32,
    n_fields: u32,
    sum: u32,
    out: &mut Vec<u64>,
) {
    assert!((1..=2).contains(&width), "filter_field_sum supports widths 1 and 2");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        unsafe { filter_field_sum_avx2(lo, hi, width, n_fields, sum, out) };
        return;
    }
    filter_field_sum_scalar(lo, hi, width, n_fields, sum, out);
}

/// Scalar twin of [`filter_field_sum`].
pub fn filter_field_sum_scalar(
    lo: u64,
    hi: u64,
    width: u32,
    n_fields: u32,
    sum: u32,
    out: &mut Vec<u64>,
) {
    for s in lo..hi {
        if crate::bits::field_sum(s, width, n_fields) == sum {
            out.push(s);
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk ranking: the prefix-bucketed lockstep binary search.
// ---------------------------------------------------------------------------

/// One interleaved block of the prefix-bucketed binary search: resolves
/// `needles[0..8]` against `sorted` using per-lane bounds `lo`/`hi`
/// (from the prefix buckets; a lane with `lo == hi` is born finished)
/// and writes each rank or the caller's sentinel already present in
/// `out`. The AVX2 path runs two 4-lane gather searches in lockstep;
/// the bisection path is identical to the scalar twin's, so the results
/// are bit-for-bit the same.
///
/// Returns `true` when the SIMD path handled the block; the caller runs
/// its scalar loop otherwise (no-AVX2 machines, `LS_SIMD=scalar`, or an
/// array too large for signed 64-bit gather indices).
pub fn prefix_search_block(
    sorted: &[u64],
    needles: &[u64],
    lo: &mut [usize; 8],
    hi: &mut [usize; 8],
    out: &mut [u32],
) -> bool {
    debug_assert!(needles.len() >= 8 && out.len() >= 8);
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 && sorted.len() < i64::MAX as usize {
        // SAFETY: dispatched only when AVX2 was detected at startup;
        // bounds come from the prefix buckets, so every probed `mid`
        // indexes into `sorted`.
        unsafe { prefix_search_block_avx2(sorted, needles, lo, hi, out) };
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// Amplitude accumulation: the BatchedPull gather-multiply kernel.
// ---------------------------------------------------------------------------

/// One pull segment of the batched matvec, f64 specialization:
/// `yb[emit[t] >> 32] += a * x[emit[t] as u32 as usize]` for every packed
/// emission, in ascending `t` order. The AVX2 path gathers four `x`
/// lanes and multiplies them in one vector op (IEEE-identical to four
/// scalar multiplies), then applies the four additions scalarly in the
/// same ascending order — so the result is bit-for-bit the scalar
/// twin's, preserving the workspace determinism contract the scaling
/// bench asserts (`to_bits` equality across thread counts and modes).
///
/// # Panics
/// Debug builds assert every packed source/destination index is in
/// bounds; release builds rely on the emission builder's invariant.
pub fn accumulate_segment_f64(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup; the
        // emission builder guarantees in-bounds packed indices.
        unsafe { accumulate_segment_f64_avx2(yb, x, emit, a) };
        return;
    }
    accumulate_segment_f64_scalar(yb, x, emit, a);
}

/// Scalar twin of [`accumulate_segment_f64`].
pub fn accumulate_segment_f64_scalar(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
    for &e in emit {
        yb[(e >> 32) as usize] += a * x[e as u32 as usize];
    }
}

// ---------------------------------------------------------------------------
// f32-storage / f64-arithmetic BLAS-1 (the mixed-precision kernels).
// ---------------------------------------------------------------------------

/// `Σ a[i]·b[i]` with f32 storage and f64 accumulation, over one block.
///
/// The reduction shape is fixed: four interleaved f64 accumulators over
/// the 4-aligned prefix (lane `l` sums elements `4k + l`), the remainder
/// into lanes `0..len % 4`, finished as `(acc0 + acc1) + (acc2 + acc3)`.
/// The AVX2 path performs the same additions with one `vaddpd` per
/// chunk, so both paths are bit-identical. Callers build deterministic
/// parallel reductions on top (fixed blocks + pairwise tree, exactly
/// like `ls-eigen`'s f64 kernels).
pub fn dot_f32(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        return unsafe { dot_f32_avx2(a, b) };
    }
    dot_f32_scalar(a, b)
}

/// Scalar twin of [`dot_f32`].
pub fn dot_f32_scalar(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let n4 = a.len() & !3;
    for k in (0..n4).step_by(4) {
        for l in 0..4 {
            acc[l] += a[k + l] as f64 * b[k + l] as f64;
        }
    }
    for i in n4..a.len() {
        acc[i - n4] += a[i] as f64 * b[i] as f64;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `Σ a[i]²` with f32 storage and f64 accumulation (the [`dot_f32`]
/// reduction shape).
pub fn norm_sqr_f32(a: &[f32]) -> f64 {
    dot_f32(a, a)
}

/// `y[i] = f32(f64(y[i]) + alpha · f64(x[i]))` — axpy with f32 storage,
/// f64 arithmetic, one rounding on store. Elementwise, so the AVX2 path
/// (widen, multiply, add, narrow — no FMA) is IEEE-identical per lane.
pub fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        unsafe { axpy_f32_avx2(alpha, x, y) };
        return;
    }
    axpy_f32_scalar(alpha, x, y);
}

/// Scalar twin of [`axpy_f32`].
pub fn axpy_f32_scalar(alpha: f64, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = (*yi as f64 + alpha * xi as f64) as f32;
    }
}

/// [`axpy_f32`] fused with `Σ y[i]²` of the *stored* (narrowed) result —
/// the norm a subsequent [`norm_sqr_f32`] of `y` would return, in the
/// [`dot_f32`] reduction shape.
pub fn axpy_norm_sqr_f32(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        return unsafe { axpy_norm_sqr_f32_avx2(alpha, x, y) };
    }
    axpy_norm_sqr_f32_scalar(alpha, x, y)
}

/// Scalar twin of [`axpy_norm_sqr_f32`].
pub fn axpy_norm_sqr_f32_scalar(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let n4 = y.len() & !3;
    for k in (0..n4).step_by(4) {
        for l in 0..4 {
            let v = (y[k + l] as f64 + alpha * x[k + l] as f64) as f32;
            y[k + l] = v;
            acc[l] += v as f64 * v as f64;
        }
    }
    for i in n4..y.len() {
        let v = (y[i] as f64 + alpha * x[i] as f64) as f32;
        y[i] = v;
        acc[i - n4] += v as f64 * v as f64;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `y[i] = f32(f64(y[i]) · alpha)` — elementwise real scale in f64.
pub fn scale_f32(y: &mut [f32], alpha: f64) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: dispatched only when AVX2 was detected at startup.
        unsafe { scale_f32_avx2(y, alpha) };
        return;
    }
    scale_f32_scalar(y, alpha);
}

/// Scalar twin of [`scale_f32`].
pub fn scale_f32_scalar(y: &mut [f32], alpha: f64) {
    for yi in y.iter_mut() {
        *yi = (*yi as f64 * alpha) as f32;
    }
}

// ---------------------------------------------------------------------------
// AVX2 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Per-64-bit-lane popcount of a 4×u64 vector (nibble-LUT shuffle +
    /// `vpsadbw`, the standard AVX2 popcount).
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
            2, 3, 3, 4,
        );
        let low_nibble = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_nibble);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_nibble);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_charge_masks_avx2(
        lo: u64,
        hi: u64,
        charges: &[(u64, u32)],
        out: &mut Vec<u64>,
    ) {
        let mut s = lo;
        let step = _mm256_set1_epi64x(4);
        let mut words = _mm256_setr_epi64x(
            lo as i64,
            lo.wrapping_add(1) as i64,
            lo.wrapping_add(2) as i64,
            lo.wrapping_add(3) as i64,
        );
        while s.checked_add(4).is_some_and(|e| e <= hi) {
            let mut ok = _mm256_set1_epi64x(-1);
            for &(mask, weight) in charges {
                let masked = _mm256_and_si256(words, _mm256_set1_epi64x(mask as i64));
                let cnt = popcnt_epi64(masked);
                let eq = _mm256_cmpeq_epi64(cnt, _mm256_set1_epi64x(weight as i64));
                ok = _mm256_and_si256(ok, eq);
            }
            let hits = _mm256_movemask_pd(_mm256_castsi256_pd(ok)) as u32;
            if hits != 0 {
                for l in 0..4u64 {
                    if hits & (1 << l) != 0 {
                        out.push(s + l);
                    }
                }
            }
            words = _mm256_add_epi64(words, step);
            s += 4;
        }
        super::filter_charge_masks_scalar(s, hi, charges, out);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_field_sum_avx2(
        lo: u64,
        hi: u64,
        width: u32,
        n_fields: u32,
        sum: u32,
        out: &mut Vec<u64>,
    ) {
        // Field sums via popcounts: a width-1 field sum is popcount under
        // the field mask; a width-2 field sum is popcount(low bits) +
        // 2·popcount(high bits). Both reduce to masked popcounts, which
        // is also how the scalar `bits::field_sum` computes them.
        let span = crate::bits::low_mask(width * n_fields);
        let (lo_mask, hi_mask) = if width == 1 {
            (span, 0u64)
        } else {
            (0x5555_5555_5555_5555 & span, 0xaaaa_aaaa_aaaa_aaaa & span)
        };
        let vsum = _mm256_set1_epi64x(sum as i64);
        let step = _mm256_set1_epi64x(4);
        let mut s = lo;
        let mut words = _mm256_setr_epi64x(
            lo as i64,
            lo.wrapping_add(1) as i64,
            lo.wrapping_add(2) as i64,
            lo.wrapping_add(3) as i64,
        );
        while s.checked_add(4).is_some_and(|e| e <= hi) {
            let low = popcnt_epi64(_mm256_and_si256(words, _mm256_set1_epi64x(lo_mask as i64)));
            let total = if hi_mask == 0 {
                low
            } else {
                let high =
                    popcnt_epi64(_mm256_and_si256(words, _mm256_set1_epi64x(hi_mask as i64)));
                _mm256_add_epi64(low, _mm256_slli_epi64::<1>(high))
            };
            let eq = _mm256_cmpeq_epi64(total, vsum);
            let hits = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
            if hits != 0 {
                for l in 0..4u64 {
                    if hits & (1 << l) != 0 {
                        out.push(s + l);
                    }
                }
            }
            words = _mm256_add_epi64(words, step);
            s += 4;
        }
        super::filter_field_sum_scalar(s, hi, width, n_fields, sum, out);
    }

    /// # Safety
    /// Requires AVX2; every `mid` probed from the given bounds must index
    /// into `sorted`, and `sorted.len() < i64::MAX`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prefix_search_block_avx2(
        sorted: &[u64],
        needles: &[u64],
        lo: &mut [usize; 8],
        hi: &mut [usize; 8],
        out: &mut [u32],
    ) {
        // Unsigned u64 ordering via the sign-bias trick: x <u y iff
        // (x ^ MIN) <s (y ^ MIN).
        let bias = _mm256_set1_epi64x(i64::MIN);
        let base = sorted.as_ptr() as *const i64;
        for g in 0..2usize {
            let o = 4 * g;
            let mut vlo = _mm256_setr_epi64x(
                lo[o] as i64,
                lo[o + 1] as i64,
                lo[o + 2] as i64,
                lo[o + 3] as i64,
            );
            let mut vhi = _mm256_setr_epi64x(
                hi[o] as i64,
                hi[o + 1] as i64,
                hi[o + 2] as i64,
                hi[o + 3] as i64,
            );
            let needle = _mm256_loadu_si256(needles.as_ptr().add(o) as *const __m256i);
            let needle_b = _mm256_xor_si256(needle, bias);
            loop {
                let live = _mm256_cmpgt_epi64(vhi, vlo);
                if _mm256_movemask_pd(_mm256_castsi256_pd(live)) == 0 {
                    break;
                }
                let mid = _mm256_srli_epi64::<1>(_mm256_add_epi64(vlo, vhi));
                // Gather sorted[mid] on live lanes only (retired lanes
                // would probe stale bounds).
                let v =
                    _mm256_mask_i64gather_epi64::<8>(_mm256_setzero_si256(), base, mid, live);
                let vb = _mm256_xor_si256(v, bias);
                let lt = _mm256_and_si256(live, _mm256_cmpgt_epi64(needle_b, vb)); // v < n
                let gt = _mm256_and_si256(live, _mm256_cmpgt_epi64(vb, needle_b)); // v > n
                let found = _mm256_andnot_si256(_mm256_or_si256(lt, gt), live);
                let hits = _mm256_movemask_pd(_mm256_castsi256_pd(found)) as u32;
                if hits != 0 {
                    let mut mids = [0i64; 4];
                    _mm256_storeu_si256(mids.as_mut_ptr() as *mut __m256i, mid);
                    for l in 0..4 {
                        if hits & (1 << l) != 0 {
                            out[o + l] = mids[l] as u32;
                        }
                    }
                }
                // lo = lt ? mid + 1 : lo;  hi = gt ? mid : (found ? lo : hi)
                let mid1 = _mm256_add_epi64(mid, _mm256_set1_epi64x(1));
                vlo = _mm256_blendv_epi8(vlo, mid1, lt);
                vhi = _mm256_blendv_epi8(vhi, mid, gt);
                vhi = _mm256_blendv_epi8(vhi, vlo, found); // retire: hi = lo
            }
        }
    }

    /// # Safety
    /// Requires AVX2; every packed index in `emit` must be in bounds for
    /// `x` (low 32 bits) and `yb` (high 32 bits).
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_segment_f64_avx2(yb: &mut [f64], x: &[f64], emit: &[u64], a: f64) {
        let va = _mm256_set1_pd(a);
        let idx_mask = _mm256_set1_epi64x(0xffff_ffff);
        let mut chunks = emit.chunks_exact(4);
        for ch in &mut chunks {
            let e = _mm256_loadu_si256(ch.as_ptr() as *const __m256i);
            let src = _mm256_and_si256(e, idx_mask);
            let xv = _mm256_i64gather_pd::<8>(x.as_ptr(), src);
            let prod = _mm256_mul_pd(xv, va);
            let mut p = [0.0f64; 4];
            _mm256_storeu_pd(p.as_mut_ptr(), prod);
            // The additions stay scalar and in ascending emission order —
            // identical rounding to the scalar twin.
            for (l, &pe) in ch.iter().enumerate() {
                *yb.get_unchecked_mut((pe >> 32) as usize) += p[l];
            }
        }
        super::accumulate_segment_f64_scalar(yb, x, chunks.remainder(), a);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f64 {
        let mut acc = _mm256_setzero_pd();
        let n4 = a.len() & !3;
        for k in (0..n4).step_by(4) {
            let av = _mm256_cvtps_pd(_mm_loadu_ps(a.as_ptr().add(k)));
            let bv = _mm256_cvtps_pd(_mm_loadu_ps(b.as_ptr().add(k)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        for i in n4..a.len() {
            lanes[i - n4] += *a.get_unchecked(i) as f64 * *b.get_unchecked(i) as f64;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32_avx2(alpha: f64, x: &[f32], y: &mut [f32]) {
        let va = _mm256_set1_pd(alpha);
        let n4 = y.len() & !3;
        for k in (0..n4).step_by(4) {
            let xv = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(k)));
            let yv = _mm256_cvtps_pd(_mm_loadu_ps(y.as_ptr().add(k)));
            let r = _mm256_add_pd(yv, _mm256_mul_pd(va, xv));
            _mm_storeu_ps(y.as_mut_ptr().add(k), _mm256_cvtpd_ps(r));
        }
        super::axpy_f32_scalar(alpha, &x[n4..], &mut y[n4..]);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_norm_sqr_f32_avx2(alpha: f64, x: &[f32], y: &mut [f32]) -> f64 {
        let va = _mm256_set1_pd(alpha);
        let mut acc = _mm256_setzero_pd();
        let n4 = y.len() & !3;
        for k in (0..n4).step_by(4) {
            let xv = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(k)));
            let yv = _mm256_cvtps_pd(_mm_loadu_ps(y.as_ptr().add(k)));
            let r = _mm256_add_pd(yv, _mm256_mul_pd(va, xv));
            let narrowed = _mm256_cvtpd_ps(r);
            _mm_storeu_ps(y.as_mut_ptr().add(k), narrowed);
            // Norm of the *stored* value: widen the narrowed lanes back.
            let stored = _mm256_cvtps_pd(narrowed);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(stored, stored));
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        for i in n4..y.len() {
            let v = (*y.get_unchecked(i) as f64 + alpha * *x.get_unchecked(i) as f64) as f32;
            *y.get_unchecked_mut(i) = v;
            lanes[i - n4] += v as f64 * v as f64;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_f32_avx2(y: &mut [f32], alpha: f64) {
        let va = _mm256_set1_pd(alpha);
        let n4 = y.len() & !3;
        for k in (0..n4).step_by(4) {
            let yv = _mm256_cvtps_pd(_mm_loadu_ps(y.as_ptr().add(k)));
            _mm_storeu_ps(y.as_mut_ptr().add(k), _mm256_cvtpd_ps(_mm256_mul_pd(yv, va)));
        }
        super::scale_f32_scalar(&mut y[n4..], alpha);
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{
    accumulate_segment_f64_avx2, axpy_f32_avx2, axpy_norm_sqr_f32_avx2, dot_f32_avx2,
    filter_charge_masks_avx2, filter_field_sum_avx2, prefix_search_block_avx2, scale_f32_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_level_is_cached_and_valid() {
        let l = level();
        assert_eq!(l, level());
        assert!(matches!(l, SimdLevel::Scalar | SimdLevel::Avx2));
    }

    #[test]
    fn charge_filter_matches_scalar() {
        let charges = [(0x00ffu64, 2u32), (0xff00u64, 3u32)];
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        filter_charge_masks(0, 1 << 16, &charges, &mut fast);
        filter_charge_masks_scalar(0, 1 << 16, &charges, &mut slow);
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
        // Misaligned range endpoints exercise the vector remainder.
        fast.clear();
        slow.clear();
        filter_charge_masks(13, 13 + 997, &charges, &mut fast);
        filter_charge_masks_scalar(13, 13 + 997, &charges, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn charge_filter_top_of_range() {
        // Near u64::MAX: the vector loop must not overflow its cursor.
        let charges = [(u64::MAX, 63u32)];
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        filter_charge_masks(u64::MAX - 200, u64::MAX, &charges, &mut fast);
        filter_charge_masks_scalar(u64::MAX - 200, u64::MAX, &charges, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn field_sum_filter_matches_scalar() {
        for (width, n_fields, sum) in [(1u32, 16u32, 8u32), (2, 8, 7), (2, 12, 12), (1, 5, 0)] {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            let hi = 1u64 << (width * n_fields).min(18);
            filter_field_sum(0, hi, width, n_fields, sum, &mut fast);
            filter_field_sum_scalar(0, hi, width, n_fields, sum, &mut slow);
            assert_eq!(fast, slow, "width={width} n_fields={n_fields} sum={sum}");
        }
    }

    #[test]
    fn f32_kernels_match_scalar_twins_bitwise() {
        let n = 1021usize; // remainder lanes in every kernel
        let a: Vec<f32> = (0..n).map(|i| ((i * 37 % 113) as f32 - 56.0) * 0.125).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 91 % 127) as f32 - 63.0) * 0.25).collect();
        assert_eq!(dot_f32(&a, &b).to_bits(), dot_f32_scalar(&a, &b).to_bits());
        assert_eq!(norm_sqr_f32(&a).to_bits(), dot_f32_scalar(&a, &a).to_bits());

        let mut y1 = b.clone();
        let mut y2 = b.clone();
        axpy_f32(0.37, &a, &mut y1);
        axpy_f32_scalar(0.37, &a, &mut y2);
        assert_eq!(y1, y2);

        let mut y1 = b.clone();
        let mut y2 = b.clone();
        let n1 = axpy_norm_sqr_f32(-1.13, &a, &mut y1);
        let n2 = axpy_norm_sqr_f32_scalar(-1.13, &a, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(n1.to_bits(), n2.to_bits());
        // The fused norm is the norm of the stored vector.
        assert_eq!(n1.to_bits(), norm_sqr_f32(&y1).to_bits());

        let mut y1 = b.clone();
        let mut y2 = b;
        scale_f32(&mut y1, 0.031);
        scale_f32_scalar(&mut y2, 0.031);
        assert_eq!(y1, y2);
    }

    #[test]
    fn accumulate_segment_matches_scalar_bitwise() {
        let x: Vec<f64> = (0..512).map(|i| ((i * 29 % 101) as f64 - 50.0) * 0.01).collect();
        // Strictly increasing destinations within the segment (the
        // emission builder's invariant), arbitrary sources.
        let emit: Vec<u64> = (0..399u64)
            .map(|t| {
                let dest = t * 2 + (t % 3);
                let src = (t * 57) % 512;
                dest << 32 | src
            })
            .collect();
        let mut y1 = vec![0.25f64; 1024];
        let mut y2 = y1.clone();
        accumulate_segment_f64(&mut y1, &x, &emit, -0.731);
        accumulate_segment_f64_scalar(&mut y2, &x, &emit, -0.731);
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
