//! Distributed matrix-vector products `y = H x` over the hashed basis
//! distribution (paper Sec. 5.3).
//!
//! Two formulations:
//!
//! * [`matvec_pc`] — the push-style producer/consumer pipeline of
//!   Sec. 5.3 (see [`pc`]): each locale generates contributions from its
//!   own rows, producers stream `(state, coefficient)` pairs through
//!   fixed-capacity buffer channels, and consumers concurrently rank and
//!   accumulate them owner-side, overlapping generation with
//!   communication. The one product the solvers, examples and benchmarks
//!   run; `PcOptions::capacity` sets the message granularity.
//! * [`matvec_gather`] (see [`gather`]) — the pull-style baseline: every
//!   locale replicates `x` through one-sided window reads and fills its
//!   own rows locally. This is the `O(dim)`-bytes-per-product pattern
//!   the pipeline beats, kept both as the benchmark yardstick and as the
//!   solve mode that exercises the checksummed window read path.
//!
//! The bulk-synchronous `alltoallv` product the paper compares against
//! lives in `ls-baseline`.
//!
//! Under `LS_INTEGRITY=full` the push product additionally carries an
//! ABFT checksum vector (`AbftTally`): the sum of contributions
//! generated for each destination must match the destination's realized
//! part sum, catching endpoint corruption the wire CRCs cannot.

pub mod gather;
pub mod pc;

use crate::basis::DistSpinBasis;
use ls_kernels::search::NOT_FOUND;
use ls_kernels::Scalar;
use ls_runtime::{transport, AtomicAccumWindow, Cluster, DistVec, TransportError};
use std::sync::Mutex;

pub use gather::{matvec_gather, GatherOp};
pub use pc::{matvec_pc, PcOptions};

/// Relative tolerance of the ABFT checksum comparison, scaled by the
/// destination's absolute contribution mass. The realized part sum and
/// the tallied contribution sum accumulate in different orders, so they
/// drift apart by rounding — `n · ε · mass` for `n` contributions —
/// while an actual corruption perturbs a *single* contribution, which
/// for any physical operator is enormous next to `1e-10 · mass`.
const ABFT_REL_TOL: f64 = 1e-10;

/// Checksum-vector tally for algorithm-based fault tolerance over the
/// push-style product.
///
/// `y` is zeroed before a product and only ever *accumulated* into, so
/// for every destination locale `ℓ` the sum of `y.part(ℓ)` must equal
/// the sum of all contributions generated for `ℓ` — regardless of
/// delivery path (diagonal, local fast path, staged batches) or
/// accumulation order. Producers keep a private running
/// `[Σ re, Σ im, Σ(|re|+|im|)]` per destination and [`merge`] once when
/// they finish; [`verify`] then compares the realized part sums against
/// the tallies. A mismatch means contributions were lost, duplicated or
/// altered *between generation and accumulation* — endpoint corruption
/// the wire CRCs cannot see, because the bytes in flight were exactly
/// the (already wrong) bytes handed to the transport. Violations funnel
/// into the same poison → unwind → rollback pipeline as a frame CRC
/// failure.
///
/// [`merge`]: AbftTally::merge
/// [`verify`]: AbftTally::verify
pub(crate) struct AbftTally {
    /// Per destination locale: `[Σ re, Σ im, Σ(|re|+|im|)]` over every
    /// contribution generated for it *by this process*.
    sums: Mutex<Vec<[f64; 3]>>,
}

impl AbftTally {
    pub(crate) fn new(n_locales: usize) -> Self {
        Self { sums: Mutex::new(vec![[0.0; 3]; n_locales]) }
    }

    /// A fresh per-producer local tally (merged once at the end, so the
    /// per-contribution cost is three adds on private memory).
    pub(crate) fn local(&self) -> Vec<[f64; 3]> {
        vec![[0.0; 3]; self.sums.lock().unwrap().len()]
    }

    /// Notes one contribution `v` destined for locale `dest` in a
    /// producer-local tally.
    #[inline]
    pub(crate) fn note<S: Scalar>(local: &mut [[f64; 3]], dest: usize, v: S) {
        let [re, im] = v.to_reals();
        let t = &mut local[dest];
        t[0] += re;
        t[1] += im;
        // L1 mass: an upper bound on the magnitude, sqrt-free.
        t[2] += re.abs() + im.abs();
    }

    /// Folds a producer-local tally into the shared per-product sums.
    pub(crate) fn merge(&self, local: &[[f64; 3]]) {
        let mut sums = self.sums.lock().unwrap();
        for (t, l) in sums.iter_mut().zip(local) {
            t[0] += l[0];
            t[1] += l[1];
            t[2] += l[2];
        }
    }

    /// Compares every destination's realized part sum against the
    /// tallied contribution sums once the product is complete.
    ///
    /// Under the multiprocess transport this is a collective: one
    /// allreduce carries each rank's partial tallies plus its own
    /// realized part sum, after which **every rank evaluates every
    /// locale's checksum over identical reduced lanes** — so on a
    /// violation all ranks reach [`MpRuntime::report_abft_violation`] at
    /// the same program point and unwind in lockstep (no rank is left
    /// blocking in a collective against peers that already bailed).
    ///
    /// [`MpRuntime::report_abft_violation`]:
    /// ls_runtime::transport::MpRuntime::report_abft_violation
    pub(crate) fn verify<S: Scalar>(&self, y: &DistVec<S>) {
        let sums = self.sums.lock().unwrap();
        let n = sums.len();
        if let Some(mp) = transport::active() {
            // Five lanes per destination: the tallied [Σre, Σim, mass]
            // plus the realized part sum (contributed only by the
            // destination's owner; other ranks' lanes stay zero).
            let mut lanes = vec![0.0f64; n * 5];
            for (l, t) in sums.iter().enumerate() {
                lanes[l * 5..l * 5 + 3].copy_from_slice(t);
            }
            let me = mp.rank();
            let [yre, yim] = part_sum(y.part(me));
            lanes[me * 5 + 3] = yre;
            lanes[me * 5 + 4] = yim;
            let total = mp.allreduce_lanes(&lanes);
            for (l, t) in total.chunks_exact(5).enumerate() {
                if let Some(detail) = checksum_mismatch(t[0], t[1], t[2], t[3], t[4]) {
                    mp.report_abft_violation(l, &detail);
                }
            }
        } else {
            for (l, t) in sums.iter().enumerate() {
                let [yre, yim] = part_sum(y.part(l));
                if let Some(detail) = checksum_mismatch(t[0], t[1], t[2], yre, yim) {
                    // Same unwind channel as transport corruption: the
                    // rollback driver treats both identically.
                    eprintln!(
                        "ls-dist: integrity: abft checksum failed for locale {l} ({detail})"
                    );
                    std::panic::panic_any(TransportError::Corruption {
                        peer: l,
                        frame: "abft".into(),
                        kind: detail,
                    });
                }
            }
        }
    }
}

/// Lane-wise sum of one part (the realized half of the ABFT invariant).
fn part_sum<S: Scalar>(part: &[S]) -> [f64; 2] {
    let mut acc = [0.0f64; 2];
    for v in part {
        let [re, im] = v.to_reals();
        acc[0] += re;
        acc[1] += im;
    }
    acc
}

/// The checksum comparison itself: `None` when the realized sum matches
/// the tallied sum within [`ABFT_REL_TOL`] of the contribution mass.
fn checksum_mismatch(sre: f64, sim: f64, mass: f64, yre: f64, yim: f64) -> Option<String> {
    let tol = ABFT_REL_TOL * mass.max(1.0);
    let dre = (sre - yre).abs();
    let dim = (sim - yim).abs();
    // Written to *fail* on NaN: a NaN contribution sum must not pass
    // the comparison vacuously.
    if dre <= tol && dim <= tol {
        None
    } else {
        Some(format!(
            "checksum-vector mismatch: |Σ contributions − Σ y| = ({dre:.3e}, {dim:.3e}) \
             exceeds {tol:.3e}"
        ))
    }
}

/// Ranks a shipped batch of `(state, coefficient)` pairs on behalf of
/// `dest` with the bulk prefix-bucket kernel and accumulates it — the
/// owner-side half of the push product. `needles`/`idx` are
/// caller-owned scratch reused across batches.
pub(crate) fn accumulate_batch<S: Scalar>(
    basis: &DistSpinBasis,
    win: &AtomicAccumWindow<'_, S>,
    dest: usize,
    pairs: &[(u64, S)],
    needles: &mut Vec<u64>,
    idx: &mut Vec<u32>,
) {
    needles.clear();
    needles.extend(pairs.iter().map(|&(s, _)| s));
    basis.index_on_batch(dest, needles, idx);
    for (&(rep, coeff), &i) in pairs.iter().zip(idx.iter()) {
        let i = if i != NOT_FOUND {
            i as usize
        } else {
            // Cold: re-resolve through the panicking helper.
            basis.index_on_present(dest, rep)
        };
        win.fetch_add(dest, i, coeff);
    }
}

/// Checks that `x`/`y` are distributed exactly like `basis`.
///
/// # Panics
/// Panics with a per-locale diagnostic on any mismatch; in a real
/// distributed run a silent mismatch would be memory corruption.
pub(crate) fn validate_shapes<S: Scalar>(
    cluster: &Cluster,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &DistVec<S>,
) {
    let locales = cluster.n_locales();
    assert_eq!(
        basis.n_locales(),
        locales,
        "basis distributed over {} locales, cluster has {locales}",
        basis.n_locales()
    );
    assert_eq!(x.n_locales(), locales, "x distributed over the wrong locale count");
    assert_eq!(y.n_locales(), locales, "y distributed over the wrong locale count");
    for l in 0..locales {
        assert_eq!(
            x.part(l).len(),
            basis.local_dim(l),
            "x length on locale {l} does not match the basis"
        );
        assert_eq!(
            y.part(l).len(),
            basis.local_dim(l),
            "y length on locale {l} does not match the basis"
        );
    }
}

/// The test oracle of every distributed product: `H x` by the serial
/// push loop over an independently built shared-memory [`SpinBasis`],
/// returned in `dist`'s hashed layout.
///
/// [`SpinBasis`]: ls_basis::SpinBasis
#[cfg(test)]
pub(crate) fn serial_reference(
    op: &ls_basis::SymmetrizedOperator<f64>,
    dist: &DistSpinBasis,
    x: &DistVec<f64>,
) -> DistVec<f64> {
    let basis = ls_basis::SpinBasis::build(dist.sector().clone());
    let mut x_dense = vec![0.0; basis.dim()];
    for (states, xs) in dist.states().parts().iter().zip(x.parts()) {
        for (&s, &v) in states.iter().zip(xs) {
            x_dense[basis.index_of(s).unwrap()] = v;
        }
    }
    let mut y = vec![0.0; basis.dim()];
    let mut row = Vec::new();
    for j in 0..basis.dim() {
        let alpha = basis.state(j);
        y[j] += op.diagonal(alpha) * x_dense[j];
        row.clear();
        op.apply_off_diag(alpha, basis.orbit_sizes()[j], &mut row);
        for &(rep, amp) in &row {
            y[basis.index_of(rep).unwrap()] += amp * x_dense[j];
        }
    }
    DistVec::from_parts(
        dist.states()
            .parts()
            .iter()
            .map(|p| p.iter().map(|&s| y[basis.index_of(s).unwrap()]).collect())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abft_tally_accepts_clean_sums_and_flags_corruption() {
        // Clean: tallied contributions match the realized part sums.
        let tally = AbftTally::new(2);
        let mut local = tally.local();
        AbftTally::note(&mut local, 0, 1.5f64);
        AbftTally::note(&mut local, 0, -0.25f64);
        AbftTally::note(&mut local, 1, 2.0f64);
        tally.merge(&local);
        let y = DistVec::from_parts(vec![vec![1.0f64, 0.25], vec![2.0]]);
        tally.verify(&y); // must not panic
                          // Corrupt: one element of y silently changed after accumulation.
        let bad = DistVec::from_parts(vec![vec![1.0f64, 0.25 + 1e-6], vec![2.0]]);
        let err = std::panic::catch_unwind(|| tally.verify(&bad)).unwrap_err();
        let err =
            err.downcast_ref::<ls_runtime::TransportError>().expect("typed corruption payload");
        match err {
            ls_runtime::TransportError::Corruption { peer, frame, .. } => {
                assert_eq!(*peer, 0);
                assert_eq!(frame, "abft");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A NaN contribution sum must fail, never pass vacuously.
        let nan_tally = AbftTally::new(1);
        let mut local = nan_tally.local();
        AbftTally::note(&mut local, 0, f64::NAN);
        nan_tally.merge(&local);
        let y1 = DistVec::from_parts(vec![vec![0.0f64]]);
        assert!(std::panic::catch_unwind(|| nan_tally.verify(&y1)).is_err());
    }
}
