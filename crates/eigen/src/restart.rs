//! Thick-restart Lanczos: the crate's eigensolver, memory-bounded, with
//! checkpoint/restart.
//!
//! Full-reorthogonalization Lanczos retains every Krylov vector, so a
//! long solve on a large sector is memory-bound by the *solver*
//! (`m · dim` scalars), not the matrix — exactly backwards for a code
//! whose point is reaching dimensions where memory is the binding
//! constraint. Thick restart (Wu & Simon; the restarting used by the
//! Lanczos solvers in XDiag / `lattice-symmetries`) caps the basis: run a
//! cycle of the ordinary recurrence, diagonalize the projected matrix,
//! keep only the best `keep` Ritz pairs plus the trailing residual
//! direction, and continue expanding from there. The retained set plus
//! workspace never exceeds `k + extra` vectors ([`RestartOptions`]), so
//! sector size — not iteration count — sets the memory budget.
//!
//! **Whole-space mode.** When the budget covers the unrestarted solve —
//! `dim` basis vectors plus workspace plus Ritz assembly, so `extra ≥
//! dim` (or `usize::MAX`) asks for it — the same driver runs one chain of
//! up to `dim` steps instead: convergence is tested after every step,
//! nothing is ever compressed or checkpointed. Full Lanczos is this
//! driver with an unbounded budget; the breakdown rule, the health
//! checks and the rollback path are the same on both paths.
//!
//! After a restart the projected operator is no longer tridiagonal but
//! **arrowhead + tridiagonal**: locked Ritz values `θ_i` on the diagonal,
//! a border `s_i = β·y_i[m-1]` coupling each locked vector to the chain
//! seed, then the new `α/β` chain. The first cycle solves the projected
//! problem with the tridiagonal QL of [`crate::tridiag`]; restarted
//! cycles use the dense Jacobi reference ([`crate::jacobi`]) on the small
//! `m × m` projected matrix — both `O(m³) ≪` one matrix-vector product.
//!
//! The expansion is blocked CGS2 on the fused pipeline (fused
//! [`KrylovOp::apply_dot`], `multi_dot`/`multi_axpy` sweeps, fused
//! update+norm), written against [`KrylovVec`]/[`KrylovOp`] — one
//! implementation serves `Vec<S>` and the locale-partitioned
//! `DistVec<S>`, and a distributed solve stays distributed.
//!
//! Long cluster runs additionally get **checkpoint/restart**
//! ([`CheckpointPolicy`]): at restart boundaries the compressed state
//! (locked basis + chain seed + projected coefficients + restart/RNG
//! counters) is written atomically in the versioned, checksummed format
//! of [`crate::checkpoint`]. A killed solve resumed from its checkpoint
//! is **bit-identical** to the uninterrupted one — same eigenvalues,
//! same Ritz vectors, to the last bit, at any `LS_NUM_THREADS`.

use crate::checkpoint::{
    load_latest_checkpoint, save_checkpoint_ref, save_checkpoint_rotated, CheckpointStateRef,
};
use crate::health::{max_rollbacks_from_env, raise, HealthMonitor, SolverHealthError};
use crate::jacobi::eigh_real;
use crate::lanczos::{cgs2_beta, random_fill, LanczosResult, LanczosResultIn};
use crate::tridiag::tridiag_eigh;
use crate::vector::{KrylovOp, KrylovVec};
use crate::LinearOp;
use ls_kernels::Scalar;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Exact-breakdown threshold.
const BREAKDOWN: f64 = 1e-13;

/// When and where to checkpoint a thick-restart solve.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file. Writes are atomic (`<path>.tmp` + rename); the
    /// file is overwritten as the solve progresses and left in place on
    /// completion (delete it to force a fresh start).
    pub path: PathBuf,
    /// Write every `every` completed restart cycles (≥ 1).
    pub every: usize,
    /// Resume from `path` when it exists (default). The checkpoint must
    /// match the solve (same `k`, budget, storage kind, scalar width and
    /// part layout) — anything else panics with the typed
    /// [`crate::checkpoint::CheckpointError`], because a silently
    /// mismatched resume could not be bit-identical.
    pub resume: bool,
    /// Generations to retain (default 1). With `keep == 1`, `path` holds
    /// the single checkpoint file (the historical format). With
    /// `keep > 1`, `path` holds a crash-consistent manifest and the last
    /// `keep` generations live in sibling `<filename>.g<cycle>` files
    /// ([`crate::checkpoint::save_checkpoint_rotated`]): a crash mid-write
    /// strands at most the newest generation, and resumes fall back to
    /// the newest *valid* one — still bit-identical, because resuming
    /// from any cycle reproduces the same trajectory.
    pub keep: usize,
}

impl CheckpointPolicy {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), every: 1, resume: true, keep: 1 }
    }
}

/// Options for [`thick_restart_lanczos_in`].
///
/// Defaults ([`RestartOptions::new`]): `extra = max(2k, 24)` (total
/// budget `k + extra` vectors), `max_restarts = 400`, `tol = 1e-10`,
/// `seed = 0x5eed`, no vectors, no checkpointing.
#[derive(Clone, Debug)]
pub struct RestartOptions {
    /// Number of wanted (smallest) eigenpairs.
    pub k: usize,
    /// Memory headroom beyond `k`: the solve holds at most `k + extra`
    /// Krylov-state vectors at any instant (locked Ritz vectors, chain,
    /// workspace and compression scratch). Must be ≥ `k + 3` so a
    /// restart cycle can make progress. A budget covering the whole
    /// space (`extra ≥ dim`, or `dim + 1` with `want_vectors`; `k +
    /// extra` saturates, so `usize::MAX` works) selects whole-space mode.
    pub extra: usize,
    /// Cap on completed restart cycles (≥ 1), **cumulative across
    /// resumes** (the counter is stored in the checkpoint): a resumed
    /// solve continues toward the same limit. Hitting it returns the
    /// current Ritz estimates with `converged = false`.
    pub max_restarts: usize,
    /// Convergence threshold on the Ritz residual estimate
    /// `|β·y_i[m-1]|` relative to the spectral scale.
    pub tol: f64,
    /// Seed for the start vector and breakdown re-seeds. Each draw uses
    /// a counter-derived stream, so resumed runs redraw identically.
    pub seed: u64,
    /// Compute Ritz vectors?
    pub want_vectors: bool,
    /// Checkpoint/restart policy (off by default).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl RestartOptions {
    pub fn new(k: usize) -> Self {
        Self {
            k,
            extra: (2 * k).max(24),
            max_restarts: 400,
            tol: 1e-10,
            seed: 0x5eed,
            want_vectors: false,
            checkpoint: None,
        }
    }
}

impl Default for RestartOptions {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Splits the total vector budget `b = k + extra` into the locked count
/// per restart (`keep`) and the cycle expansion cap (`m`). Compression
/// transiently holds `m` old + `keep` new + 1 residual vectors, all of
/// which must fit in `b`: `m = b - keep - 1`.
pub(crate) fn split_budget(k: usize, b: usize) -> (usize, usize) {
    debug_assert!(b >= 2 * k + 3);
    let keep = (k + ((b - k) / 4).max(1)).min((b - 3) / 2).max(k);
    let m = b - keep - 1;
    debug_assert!(m > keep);
    (keep, m)
}

/// Draws the `draws`-th random vector of the solve. Every draw seeds its
/// own RNG from `(seed, draw index)`, so a resumed run reproduces the
/// exact stream without serializing RNG internals.
fn draw_random<V: KrylovVec>(v: &mut V, seed: u64, draws: &mut u64) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*draws + 1));
    random_fill(v, &mut rng);
    *draws += 1;
}

/// Dense symmetric projected matrix: locked arrowhead (diagonal `θ_i`,
/// border `s_i` in column `l`) followed by the tridiagonal chain.
fn projected_dense(diag: &[f64], border: &[f64], offdiag: &[f64], l: usize) -> Vec<f64> {
    let m = diag.len();
    let mut t = vec![0.0f64; m * m];
    for (i, &d) in diag.iter().enumerate() {
        t[i * m + i] = d;
    }
    for (i, &s) in border.iter().enumerate().take(l) {
        t[i * m + l] = s;
        t[l * m + i] = s;
    }
    for (idx, &beta) in offdiag.iter().enumerate() {
        let j = l + idx;
        t[j * m + j + 1] = beta;
        t[(j + 1) * m + j] = beta;
    }
    t
}

/// Eigen-decomposition of the projected matrix: tridiagonal QL on the
/// first cycle (`l == 0`), dense Jacobi on the arrowhead thereafter.
fn projected_eigh(
    diag: &[f64],
    border: &[f64],
    offdiag: &[f64],
    l: usize,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    if l == 0 {
        let (vals, vecs) = tridiag_eigh(diag, offdiag, true);
        (vals, vecs.unwrap())
    } else {
        eigh_real(&projected_dense(diag, border, offdiag, l), diag.len())
    }
}

/// Projected solve plus the Ritz-residual test at chain residual `beta`:
/// returns the Ritz values, the projected eigenvectors, the residual
/// estimates `|β·y_i[m-1]|` of the `k` smallest pairs, and whether all of
/// them are within `tol` of the spectral scale.
fn ritz_test(
    diag: &[f64],
    border: &[f64],
    offdiag: &[f64],
    l: usize,
    beta: f64,
    k: usize,
    tol: f64,
) -> (Vec<f64>, Vec<Vec<f64>>, Vec<f64>, bool) {
    let (vals, yvecs) = projected_eigh(diag, border, offdiag, l);
    let m = diag.len();
    let spectral_scale = vals.iter().fold(0.0f64, |acc, v| acc.max(v.abs())).max(1e-300);
    let resid: Vec<f64> = (0..k).map(|i| (beta * yvecs[i][m - 1]).abs()).collect();
    let ok = resid.iter().all(|r| *r <= tol * spectral_scale);
    (vals, yvecs, resid, ok)
}

/// Shared-memory wrapper over [`thick_restart_lanczos_in`] with
/// `V = Vec<S>`.
pub fn thick_restart_lanczos<S: Scalar, Op: LinearOp<S> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
) -> LanczosResult<S> {
    thick_restart_lanczos_in::<Vec<S>, Op>(op, opts)
}

/// Computes the `k` smallest eigenpairs of a Hermitian operator while
/// holding at most `k + extra` Krylov-state vectors, restarting the
/// recurrence through the Ritz compression of the projected matrix (or,
/// when the budget covers the whole space, running one unrestarted
/// chain — see the module docs).
///
/// Ritz vectors come back in the solver's storage; `iterations` counts
/// matrix-vector products performed *by this call* and `peak_retained`
/// reports the realized vector high-water mark.
///
/// # Panics
/// Panics if `k == 0`, `k > op.dim()`, `extra < k + 3`,
/// `max_restarts == 0`, the operator reports itself non-Hermitian, or
/// resuming from a corrupt/mismatched checkpoint (the typed
/// [`crate::checkpoint::CheckpointError`] is in the panic message).
pub fn thick_restart_lanczos_in<V: KrylovVec, Op: KrylovOp<V> + ?Sized>(
    op: &Op,
    opts: &RestartOptions,
) -> LanczosResultIn<V> {
    let n = op.dim();
    let k = opts.k;
    assert!(k >= 1, "need at least one eigenpair");
    assert!(k <= n, "k = {k} exceeds dimension {n}");
    assert!(op.is_hermitian(), "Lanczos requires a Hermitian operator");
    assert!(
        opts.extra >= k + 3,
        "restart budget too small: extra = {} but need extra >= k + 3 = {}",
        opts.extra,
        k + 3
    );
    assert!(opts.max_restarts >= 1, "max_restarts = 0 allows no restart cycle at all");
    let b = k.saturating_add(opts.extra);
    // Whole-space mode when the unrestarted high-water mark (n basis
    // vectors + workspace + Ritz assembly) provably fits the budget — the
    // `≤ k + extra` contract holds on every path. Slightly larger small
    // problems still run the restart machinery: the expansion simply
    // exhausts the space and finishes exactly.
    let assembly = if opts.want_vectors { k } else { 0 };
    let whole = n + 1 + assembly <= b;
    let (keep_max, m) = if whole { (k, n) } else { split_budget(k, b) };
    let checkpoint = if whole { None } else { opts.checkpoint.as_ref() };
    // A whole-space chain grows on demand: `n` may be the full sector.
    let cap = if whole { 0 } else { m };

    // ---- state at a restart boundary -----------------------------------
    // basis = [u_0 .. u_{l-1}, chain seed, chain ...]; diag holds the l
    // locked Ritz values then the chain alphas; border couples each
    // locked vector to the chain seed; offdiag is the chain betas.
    let mut basis: Vec<V> = Vec::with_capacity(cap);
    let mut diag: Vec<f64> = Vec::with_capacity(cap);
    let mut border: Vec<f64> = Vec::new();
    let mut offdiag: Vec<f64> = Vec::with_capacity(cap);
    let mut l = 0usize;
    let mut restarts = 0usize;
    let mut draws = 0u64;
    let mut breakdowns = 0usize;

    if let Some(cp) = checkpoint {
        if cp.resume && cp.path.exists() {
            let st = match load_latest_checkpoint::<V, Op>(&cp.path, op) {
                Ok(st) => st,
                Err(e) => {
                    panic!("cannot resume from checkpoint {}: {e}", cp.path.display())
                }
            };
            assert!(
                st.k == k && st.budget == b,
                "checkpoint {} was written for k = {}, budget = {} (this solve: k = {k}, \
                 budget = {b}); resuming under different parameters would not be \
                 bit-identical",
                cp.path.display(),
                st.k,
                st.budget,
            );
            l = st.retained;
            diag = st.diag;
            border = st.border;
            basis = st.basis;
            restarts = st.restarts;
            draws = st.draws;
            breakdowns = st.breakdowns as usize;
        }
    }
    if basis.is_empty() {
        let mut v0 = op.new_vec();
        draw_random(&mut v0, opts.seed, &mut draws);
        let nrm = v0.norm();
        v0.scale(1.0 / nrm);
        basis.push(v0);
    }

    let mut w = op.new_vec();
    let mut matvecs = 0usize;
    let mut peak = basis.len() + 1; // basis + workspace w
    let mut converged = false;
    // Current Ritz estimates (from the resumed locked set, if any) so a
    // run that performs zero new cycles still reports something sane.
    let mut vals: Vec<f64> = diag.iter().copied().take(k).collect();
    let mut residuals: Vec<f64> = border.iter().map(|s| s.abs()).take(k).collect();
    let mut eigenvectors: Option<Vec<V>> = None;

    // ---- silent-error defense ------------------------------------------
    // Each cycle runs inside `catch_unwind`; a typed corruption signal
    // (transport CRC/ABFT violation or a solver health check) rolls the
    // solve back to its newest valid checkpoint instead of dying,
    // bounded by LS_MAX_ROLLBACKS. Anything else re-raises untouched.
    let monitor = HealthMonitor::from_env();
    let max_rollbacks = max_rollbacks_from_env() as u64;
    let mut rollbacks = 0u64;

    'outer: while restarts < opts.max_restarts {
        let cycle_done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // ---- expansion: grow the chain to m vectors --------------------
            let mut beta_last = 0.0f64;
            // Set when the chain filled up via a breakdown while an
            // unexplored invariant subspace provably remains: the cycle must
            // then compress and restart from that fresh direction instead of
            // declaring the (exact but possibly multiplicity-deficient)
            // projected values converged.
            let mut forced_restart = false;
            loop {
                let j = basis.len() - 1;
                debug_assert_eq!(diag.len(), j, "projected matrix out of step with basis");
                let alpha = op.apply_dot(&basis[j], &mut w).re();
                matvecs += 1;
                diag.push(alpha);
                // Full blocked-CGS2 reorthogonalization against the *whole*
                // retained set — locked Ritz vectors and chain alike. The
                // first pass subsumes the explicit `α v_j`, `β v_{j-1}` and
                // `Σ s_i u_i` subtractions.
                let beta = cgs2_beta(&basis, &mut w);
                if let Err(e) = monitor.check_step(restarts, alpha, beta) {
                    raise(e);
                }
                if beta <= BREAKDOWN {
                    // Exact invariant subspace. Re-seed with a fresh random
                    // direction orthogonalized (CGS2) against every retained
                    // vector — including the locked Ritz vectors — so the
                    // next block explores an unexplored subspace.
                    breakdowns += 1;
                    let mut fresh = op.new_vec();
                    draw_random(&mut fresh, opts.seed, &mut draws);
                    let before = fresh.norm();
                    let nf = cgs2_beta(&basis, &mut fresh);
                    if nf <= 1e-10 * before {
                        // The basis spans the reachable space: the projected
                        // problem is exact and complete. Finish on it.
                        break;
                    }
                    fresh.scale(1.0 / nf);
                    // Test for convergence where the mode tests it: at a
                    // full chain, or at every step in whole-space mode.
                    if whole || basis.len() == m {
                        if breakdowns > k {
                            // More than k independent invariant blocks have
                            // been explored (cumulative across cycles): every
                            // copy of the wanted eigenvalues is reachable
                            // from some block, so the exact projected values
                            // stand.
                            break;
                        }
                        if !whole {
                            // The chain is full but `fresh` just proved an
                            // unexplored subspace remains — multiplicity may
                            // be unresolved. Force a restart with `fresh` as
                            // the next chain seed (β = 0: decoupled from the
                            // locked set, exactly a random-restart block).
                            w = fresh;
                            beta_last = 0.0;
                            forced_restart = true;
                            break;
                        }
                    }
                    offdiag.push(0.0);
                    basis.push(fresh);
                    peak = peak.max(basis.len() + 1);
                    continue;
                }
                if basis.len() == m
                    || (whole
                        && diag.len() >= k
                        && ritz_test(&diag, &border, &offdiag, l, beta, k, opts.tol).3)
                {
                    beta_last = beta;
                    w.scale(1.0 / beta);
                    break; // w is now the normalized residual v_res
                }
                offdiag.push(beta);
                w.scale(1.0 / beta);
                basis.push(w.clone());
                peak = peak.max(basis.len() + 1);
            }

            // ---- cycle end: projected solve + convergence test -------------
            let mcur = basis.len();
            assert!(mcur >= k, "Krylov space collapsed below k = {k} (dim {n})");
            let (cvals, yvecs, resid, within_tol) =
                ritz_test(&diag, &border, &offdiag, l, beta_last, k, opts.tol);
            if let Err(e) = monitor.check_ritz(restarts, &cvals) {
                raise(e);
            }
            if let Err(e) = monitor.check_residuals(restarts, &resid) {
                raise(e);
            }
            let ok = !forced_restart && within_tol;
            vals = cvals[..k].to_vec();
            residuals = resid;

            if ok || whole {
                // Converged (β_last ≈ 0 without a forced restart means the
                // reachable space is exhausted — the projected problem is
                // then exact), or a whole-space chain ended, which is never
                // compressed. Assemble Ritz vectors from the full cycle
                // basis before anything is compressed away.
                converged = ok;
                if opts.want_vectors {
                    let mut out = Vec::with_capacity(k);
                    for yv in yvecs.iter().take(k) {
                        let mut x = op.new_vec();
                        let coeffs: Vec<V::Scalar> =
                            yv.iter().take(mcur).map(|&t| V::Scalar::from_re(t)).collect();
                        V::multi_axpy(&coeffs, &basis[..mcur], &mut x);
                        let nx = x.norm();
                        x.scale(1.0 / nx);
                        out.push(x);
                    }
                    peak = peak.max(mcur + 1 + k);
                    eigenvectors = Some(out);
                }
                return true;
            }

            // ---- thick restart: compress to the best keep Ritz pairs -------
            let keep = keep_max.min(mcur - 2).max(k);
            let mut new_basis: Vec<V> = Vec::with_capacity(keep + 1);
            for yv in yvecs.iter().take(keep) {
                let mut u = op.new_vec();
                let coeffs: Vec<V::Scalar> =
                    yv.iter().take(mcur).map(|&t| V::Scalar::from_re(t)).collect();
                V::multi_axpy(&coeffs, &basis[..mcur], &mut u);
                new_basis.push(u);
            }
            peak = peak.max(mcur + keep + 1);
            let new_border: Vec<f64> =
                (0..keep).map(|i| beta_last * yvecs[i][mcur - 1]).collect();
            basis = new_basis; // old cycle basis freed here
            basis.push(std::mem::replace(&mut w, op.new_vec())); // residual seeds the next chain
            l = keep;
            diag = cvals[..keep].to_vec();
            border = new_border;
            offdiag.clear();
            restarts += 1;

            // Retained-set orthonormality: the compressed basis is the state
            // the *whole rest of the solve* builds on, so drift here (a
            // flipped bit in a locked Ritz vector) would silently poison
            // every later cycle. Checked at the boundary, before it is
            // checkpointed as "good".
            if let Err(e) = monitor.check_basis(restarts, &basis) {
                raise(e);
            }

            if let Some(cp) = checkpoint {
                if restarts.is_multiple_of(cp.every.max(1)) {
                    // Borrowed state: no clone of the retained basis, so the
                    // write stays inside the k + extra vector budget.
                    let st = CheckpointStateRef {
                        k,
                        budget: b,
                        restarts,
                        draws,
                        breakdowns: breakdowns as u64,
                        retained: l,
                        diag: &diag,
                        border: &border,
                        basis: &basis,
                    };
                    let written = if cp.keep > 1 {
                        save_checkpoint_rotated(&cp.path, &st, cp.keep)
                    } else {
                        save_checkpoint_ref(&cp.path, &st)
                    };
                    if let Err(e) = written {
                        panic!("failed to write checkpoint {}: {e}", cp.path.display());
                    }
                }
            }
            false
        }));

        match cycle_done {
            Ok(true) => break 'outer,
            Ok(false) => {}
            Err(payload) => {
                // Only *typed corruption signals* are recoverable: a
                // solver health violation or a transport integrity error.
                // Plain panics (bugs, assertion failures) re-raise as-is.
                let recoverable = payload.downcast_ref::<SolverHealthError>().is_some()
                    || payload.downcast_ref::<ls_runtime::TransportError>().is_some_and(|e| {
                        matches!(e, ls_runtime::TransportError::Corruption { .. })
                    });
                if !recoverable || rollbacks >= max_rollbacks {
                    std::panic::resume_unwind(payload);
                }
                rollbacks += 1;
                eprintln!(
                    "ls-eigen: corruption detected in restart cycle {restarts}; rolling back \
                     ({rollbacks}/{max_rollbacks})"
                );
                // Give the operator a chance to re-synchronize (the
                // distributed backend drains transport poison and
                // re-enters a clean communication epoch here) *before*
                // the replay issues collectives.
                op.recover();
                let restored = checkpoint
                    .filter(|cp| cp.path.exists())
                    .and_then(|cp| load_latest_checkpoint::<V, Op>(&cp.path, op).ok())
                    .filter(|st| st.k == k && st.budget == b);
                match restored {
                    Some(st) => {
                        l = st.retained;
                        diag = st.diag;
                        border = st.border;
                        basis = st.basis;
                        restarts = st.restarts;
                        draws = st.draws;
                        breakdowns = st.breakdowns as usize;
                    }
                    None => {
                        // No checkpoint written yet (or none valid): roll
                        // all the way back to the start. Draws are
                        // counter-derived, so the replayed trajectory is
                        // the uninterrupted one, bit for bit.
                        l = 0;
                        restarts = 0;
                        draws = 0;
                        breakdowns = 0;
                        diag = Vec::new();
                        border = Vec::new();
                        basis = Vec::new();
                        let mut v0 = op.new_vec();
                        draw_random(&mut v0, opts.seed, &mut draws);
                        let nrm = v0.norm();
                        v0.scale(1.0 / nrm);
                        basis.push(v0);
                    }
                }
                offdiag.clear();
                w = op.new_vec();
                vals = diag.iter().copied().take(k).collect();
                residuals = border.iter().map(|s| s.abs()).take(k).collect();
            }
        }
    }

    if opts.want_vectors && eigenvectors.is_none() && l >= k {
        // Restart budget exhausted before convergence: the locked basis
        // holds the current best Ritz vectors — return them (best
        // effort, aligned with the reported eigenvalue estimates) so
        // `want_vectors` is honored on every exit path that has them.
        eigenvectors = Some(basis[..k].to_vec());
        peak = peak.max(basis.len() + 1 + k);
    }

    LanczosResultIn {
        eigenvalues: vals,
        eigenvectors,
        iterations: matvecs,
        residuals,
        converged,
        peak_retained: peak,
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::eigh_real;
    use crate::op::DenseOp;
    use ls_kernels::Complex64;

    fn random_symmetric(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = ls_kernels::hash64_01(s.wrapping_add(1));
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        a
    }

    #[test]
    fn matches_dense_with_a_tight_budget() {
        let n = 120;
        let a = random_symmetric(n, 11);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let opts = RestartOptions {
            extra: 14, // budget 18 vectors on a 120-dim problem
            tol: 1e-11,
            want_vectors: true,
            ..RestartOptions::new(4)
        };
        let res = thick_restart_lanczos(&op, &opts);
        assert!(res.converged, "residuals {:?}", res.residuals);
        assert!(res.peak_retained <= opts.k + opts.extra, "peak {}", res.peak_retained);
        for (i, (got, want)) in res.eigenvalues.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-7, "λ{i}: {got} vs {want}");
        }
        // Ritz vectors are genuine eigenvectors.
        let op_ref = DenseOp::new(n, random_symmetric(n, 11));
        for (lam, v) in res.eigenvalues.iter().zip(res.eigenvectors.as_ref().unwrap()) {
            let mut av = vec![0.0f64; n];
            LinearOp::apply(&op_ref, v, &mut av);
            let rn: f64 = av
                .iter()
                .zip(v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(rn < 1e-6, "residual {rn}");
        }
    }

    /// Whole-space options: a budget no sector can exceed.
    fn whole_space(k: usize) -> RestartOptions {
        RestartOptions { extra: usize::MAX, ..RestartOptions::new(k) }
    }

    #[test]
    fn agrees_with_full_memory_lanczos() {
        let n = 90;
        let a = random_symmetric(n, 23);
        let op = DenseOp::new(n, a);
        let full = thick_restart_lanczos(&op, &RestartOptions { tol: 1e-11, ..whole_space(3) });
        let thick = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 10, tol: 1e-11, ..RestartOptions::new(3) },
        );
        assert!(full.converged && thick.converged);
        assert!(thick.peak_retained < full.peak_retained);
        for (a, b) in full.eigenvalues.iter().zip(&thick.eigenvalues) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn small_problems_run_one_whole_space_chain() {
        // Budget 26 covers the 12-dim space: one whole-space chain.
        let n = 12;
        let a = random_symmetric(n, 5);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(&op, &RestartOptions::new(2));
        assert!(res.converged);
        assert_eq!(res.peak_retained, res.iterations + 1, "whole-space chain compressed");
        for (got, want) in res.eigenvalues.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn whole_space_mode_stops_at_convergence_bit_identically() {
        // A random symmetric matrix with one well-separated low level:
        // the whole-space chain must stop at convergence (tested every
        // step), not run to exhaustion, and stay within its budget.
        let n = 300;
        let mut a = random_symmetric(n, 31);
        a[0] -= 60.0;
        let op = DenseOp::new(n, a);
        let opts = RestartOptions { extra: n, tol: 1e-11, ..RestartOptions::new(1) };
        let solve = |threads: usize| {
            let prev = rayon::set_thread_limit(threads);
            let res = thick_restart_lanczos(&op, &opts);
            rayon::set_thread_limit(prev);
            res
        };
        let one = solve(1);
        let wide = solve(0);
        assert!(one.converged, "residuals {:?}", one.residuals);
        assert!(one.iterations < n / 5, "{} steps: ran to exhaustion", one.iterations);
        assert!(one.peak_retained <= opts.k + opts.extra, "peak {}", one.peak_retained);
        assert_eq!(one.peak_retained, one.iterations + 1, "whole-space chain compressed");
        assert_eq!(one.iterations, wide.iterations);
        assert_eq!(one.eigenvalues[0].to_bits(), wide.eigenvalues[0].to_bits());
        // Oracle: the budget-bounded path lands on the same value.
        let bounded = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 12, tol: 1e-11, ..RestartOptions::new(1) },
        );
        assert!((one.eigenvalues[0] - bounded.eigenvalues[0]).abs() < 1e-8);
    }

    #[test]
    fn matches_jacobi_on_dense_symmetric() {
        let n = 60;
        let a = random_symmetric(n, 7);
        let (expect, _) = eigh_real(&a, n);
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(&op, &RestartOptions { tol: 1e-11, ..whole_space(4) });
        assert!(res.converged, "residuals: {:?}", res.residuals);
        for (i, (got, want)) in res.eigenvalues.iter().zip(&expect).take(4).enumerate() {
            assert!((got - want).abs() < 1e-8, "λ{i}: {got} vs {want}");
        }
    }

    #[test]
    fn ritz_vectors_have_small_residuals() {
        let n = 40;
        let a = random_symmetric(n, 99);
        let op = DenseOp::new(n, a.clone());
        let res = thick_restart_lanczos(
            &op,
            &RestartOptions { tol: 1e-11, want_vectors: true, ..whole_space(3) },
        );
        let vecs = res.eigenvectors.unwrap();
        for (lam, v) in res.eigenvalues.iter().zip(&vecs) {
            let mut av = vec![0.0f64; n];
            LinearOp::apply(&op, v, &mut av);
            let res_norm: f64 = av
                .iter()
                .zip(v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(res_norm < 1e-7, "residual {res_norm}");
        }
    }

    #[test]
    fn complex_hermitian_operator() {
        // H = [[1, i], [-i, 1]] ⊗ I_10 + diagonal perturbation.
        let n = 20;
        let mut h = vec![Complex64::ZERO; n * n];
        for b in 0..10 {
            let (i, j) = (2 * b, 2 * b + 1);
            h[i * n + i] = Complex64::new(1.0 + 0.01 * b as f64, 0.0);
            h[j * n + j] = Complex64::new(1.0 + 0.01 * b as f64, 0.0);
            h[i * n + j] = Complex64::I;
            h[j * n + i] = -Complex64::I;
        }
        let expect = crate::jacobi::eigvals_hermitian(&h, n);
        let op = DenseOp::new(n, h);
        let res = thick_restart_lanczos(&op, &RestartOptions { tol: 1e-11, ..whole_space(3) });
        for (got, want) in res.eigenvalues.iter().zip(&expect).take(3) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn small_dimension_edge_cases() {
        // dim == 1.
        let op = DenseOp::new(1, vec![4.2]);
        let res = thick_restart_lanczos(&op, &RestartOptions::new(1));
        assert!((res.eigenvalues[0] - 4.2).abs() < 1e-12);
        // k == dim.
        let op = DenseOp::new(3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]);
        let res = thick_restart_lanczos(&op, &RestartOptions::new(3));
        assert!((res.eigenvalues[0] - 1.0).abs() < 1e-10);
        assert!((res.eigenvalues[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn degenerate_spectrum_with_restart() {
        // Two distinct eigenvalues force an invariant subspace after two
        // steps, exercising the breakdown re-seed of the whole-space
        // chain. The re-seeded direction is orthogonalized against the
        // whole basis and re-seeding continues until more than k
        // independent blocks were explored, so the *full multiplicity* of
        // the degenerate ground state is recovered.
        let n = 30;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 3 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(&op, &whole_space(4));
        assert!((res.eigenvalues[0] + 1.0).abs() < 1e-9);
        // Every returned value is in the true spectrum {-1, 2}.
        for v in &res.eigenvalues {
            assert!(
                (v + 1.0).abs() < 1e-9 || (v - 2.0).abs() < 1e-9,
                "spurious eigenvalue {v}"
            );
        }
        // Multiplicity regression lock: exactly three copies of -1, then 2.
        let copies = res.eigenvalues.iter().filter(|v| (*v + 1.0).abs() < 1e-9).count();
        assert_eq!(copies, 3, "eigenvalues: {:?}", res.eigenvalues);
        assert!((res.eigenvalues[3] - 2.0).abs() < 1e-9);
        assert!(res.converged);
    }

    #[test]
    fn identity_operator_restarts_to_k_values() {
        let n = 10;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(&op, &RestartOptions::new(3));
        assert_eq!(res.eigenvalues.len(), 3);
        for v in &res.eigenvalues {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds dimension")]
    fn k_too_large_panics() {
        let op = DenseOp::new(2, vec![1.0, 0.0, 0.0, 1.0]);
        let _ = thick_restart_lanczos(&op, &RestartOptions::new(3));
    }

    /// A dense operator that hands out block-distributed vectors: drives
    /// the generic solver through the `DistVec` storage path without any
    /// cluster machinery.
    struct DistDense {
        inner: DenseOp<f64>,
        lens: Vec<usize>,
    }

    impl KrylovOp<ls_runtime::DistVec<f64>> for DistDense {
        fn dim(&self) -> usize {
            LinearOp::dim(&self.inner)
        }
        fn new_vec(&self) -> ls_runtime::DistVec<f64> {
            ls_runtime::DistVec::zeros(&self.lens)
        }
        fn apply(&self, x: &ls_runtime::DistVec<f64>, y: &mut ls_runtime::DistVec<f64>) {
            let mut dense = vec![0.0; KrylovOp::dim(self)];
            LinearOp::apply(&self.inner, &x.concat(), &mut dense);
            let mut lo = 0;
            for part in y.parts_mut() {
                let hi = lo + part.len();
                part.copy_from_slice(&dense[lo..hi]);
                lo = hi;
            }
        }
    }

    #[test]
    fn distvec_storage_agrees_with_dense_storage() {
        let n = 48;
        let a = random_symmetric(n, 41);
        let opts = RestartOptions { tol: 1e-11, want_vectors: true, ..whole_space(3) };
        let dense = thick_restart_lanczos(&DenseOp::new(n, a.clone()), &opts);
        let dist_op = DistDense { inner: DenseOp::new(n, a), lens: vec![11, 0, 30, 7] };
        let dist = thick_restart_lanczos_in(&dist_op, &opts);
        assert!(dense.converged && dist.converged);
        assert_eq!(dense.iterations, dist.iterations);
        for (a, b) in dense.eigenvalues.iter().zip(&dist.eigenvalues) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Ritz vectors come back distributed, matching up to global sign
        // and BLAS-1 reduction rounding (per-part partial sums differ
        // from the dense partition's).
        let dv = dense.eigenvectors.unwrap();
        let xv = dist.eigenvectors.unwrap();
        for (d, x) in dv.iter().zip(&xv) {
            let x = x.concat();
            let overlap: f64 = d.iter().zip(&x).map(|(p, q)| p * q).sum();
            assert!((overlap.abs() - 1.0).abs() < 1e-8, "overlap {overlap}");
        }
    }

    #[test]
    fn truncated_then_resumed_is_bit_identical() {
        let n = 150;
        let a = random_symmetric(n, 77);
        let op = DenseOp::new(n, a);
        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_resume_{}.lsck", std::process::id()));
        std::fs::remove_file(&path).ok();

        let base = RestartOptions {
            extra: 12,
            tol: 1e-12,
            want_vectors: true,
            ..RestartOptions::new(2)
        };
        let uninterrupted = thick_restart_lanczos(&op, &base);
        assert!(uninterrupted.converged);

        // Same solve, but killed after 2 restart cycles and resumed.
        let ck = CheckpointPolicy::new(path.clone());
        let truncated = thick_restart_lanczos(
            &op,
            &RestartOptions { max_restarts: 2, checkpoint: Some(ck.clone()), ..base.clone() },
        );
        assert!(!truncated.converged, "picked max_restarts too large for the test");
        let resumed = thick_restart_lanczos(
            &op,
            &RestartOptions { checkpoint: Some(ck), ..base.clone() },
        );
        assert!(resumed.converged);
        for (a, b) in uninterrupted.eigenvalues.iter().zip(&resumed.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed eigenvalue diverged");
        }
        let uv = uninterrupted.eigenvectors.unwrap();
        let rv = resumed.eigenvectors.unwrap();
        for (a, b) in uv.iter().zip(&rv) {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "resumed Ritz vector diverged");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotated_resume_survives_a_torn_newest_generation() {
        use crate::checkpoint::{generation_path, manifest_generations, remove_checkpoint};
        let n = 150;
        let a = random_symmetric(n, 77);
        let op = DenseOp::new(n, a);
        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_rotated_{}.lsck", std::process::id()));
        remove_checkpoint(&path).unwrap();

        let base = RestartOptions {
            extra: 12,
            tol: 1e-12,
            want_vectors: true,
            ..RestartOptions::new(2)
        };
        let uninterrupted = thick_restart_lanczos(&op, &base);
        assert!(uninterrupted.converged);

        // Killed after 3 cycles with keep-last-2 rotation...
        let ck = CheckpointPolicy { keep: 2, ..CheckpointPolicy::new(path.clone()) };
        let truncated = thick_restart_lanczos(
            &op,
            &RestartOptions { max_restarts: 3, checkpoint: Some(ck.clone()), ..base.clone() },
        );
        assert!(!truncated.converged);
        assert_eq!(manifest_generations(&path).unwrap(), vec![2, 3]);

        // ...then the newest generation is torn by the "crash".
        let g3 = generation_path(&path, 3);
        let bytes = std::fs::read(&g3).unwrap();
        std::fs::write(&g3, &bytes[..bytes.len() / 2]).unwrap();

        // The resume falls back to generation 2 and still converges to
        // the bit-identical answer (any-cycle resume determinism).
        let resumed = thick_restart_lanczos(
            &op,
            &RestartOptions { checkpoint: Some(ck), ..base.clone() },
        );
        assert!(resumed.converged);
        for (a, b) in uninterrupted.eigenvalues.iter().zip(&resumed.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits(), "rotated resume diverged");
        }
        remove_checkpoint(&path).unwrap();
    }

    #[test]
    fn degenerate_spectrum_recovers_multiplicity() {
        // 3 copies of -1 in a 60-dim space, solved with an 11-vector
        // budget: restarts + breakdown re-seeding must find all copies.
        let n = 60;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 3 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res =
            thick_restart_lanczos(&op, &RestartOptions { extra: 7, ..RestartOptions::new(4) });
        let copies = res.eigenvalues.iter().filter(|v| (*v + 1.0).abs() < 1e-8).count();
        assert_eq!(copies, 3, "eigenvalues {:?}", res.eigenvalues);
        assert!((res.eigenvalues[3] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn breakdown_at_chain_capacity_forces_a_restart() {
        // diag(-1 ×4, 2 ×56) with k = 4 and a budget whose expansion
        // chain (m = 6) fills with exactly three 2-dim invariant blocks:
        // the first cycle ends in a breakdown *at capacity* while a
        // fourth copy of -1 is still unexplored. Declaring the exact
        // projected values converged there would return [-1,-1,-1,2];
        // the forced restart must keep going until all four copies are
        // found.
        let n = 60;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = if i < 4 { -1.0 } else { 2.0 };
        }
        let op = DenseOp::new(n, a);
        let res = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 7, want_vectors: true, ..RestartOptions::new(4) },
        );
        for (i, v) in res.eigenvalues.iter().enumerate() {
            assert!((v + 1.0).abs() < 1e-8, "λ{i} = {v}, expected all four copies of -1");
        }
        // want_vectors is honored on every exit path.
        assert_eq!(res.eigenvectors.as_ref().map(|e| e.len()), Some(4));
    }

    #[test]
    #[should_panic(expected = "extra >= k + 3")]
    fn undersized_budget_panics() {
        let op = DenseOp::new(50, vec![0.0; 2500]);
        let _ =
            thick_restart_lanczos(&op, &RestartOptions { extra: 2, ..RestartOptions::new(2) });
    }

    #[test]
    #[should_panic(expected = "max_restarts")]
    fn zero_max_restarts_panics() {
        // Without the guard a fresh solve never enters the cycle loop and
        // returns an empty eigenvalue list.
        let n = 60;
        let op = DenseOp::new(n, random_symmetric(n, 3));
        let _ = thick_restart_lanczos(
            &op,
            &RestartOptions { extra: 8, max_restarts: 0, ..RestartOptions::new(2) },
        );
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A dense operator that corrupts exactly one matvec output: the
    /// `fire_at`-th apply gets a NaN written into `y[0]`, once. Later
    /// (replayed) applies are clean, so a rolled-back solve retraces the
    /// uncorrupted trajectory — the hermetic stand-in for a one-shot
    /// soft error.
    struct NanOnceOp {
        inner: DenseOp<f64>,
        calls: AtomicUsize,
        fire_at: usize,
        fired: AtomicBool,
    }

    impl NanOnceOp {
        fn new(inner: DenseOp<f64>, fire_at: usize) -> Self {
            Self { inner, calls: AtomicUsize::new(0), fire_at, fired: AtomicBool::new(false) }
        }
    }

    impl LinearOp<f64> for NanOnceOp {
        fn dim(&self) -> usize {
            LinearOp::dim(&self.inner)
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            LinearOp::apply(&self.inner, x, y);
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call == self.fire_at && !self.fired.swap(true, Ordering::SeqCst) {
                y[0] = f64::NAN;
            }
        }
    }

    #[test]
    fn corrupted_cycle_rolls_back_to_checkpoint_bit_identically() {
        let n = 150;
        let a = random_symmetric(n, 77);
        let clean = thick_restart_lanczos(
            &DenseOp::new(n, a.clone()),
            &RestartOptions { extra: 12, tol: 1e-12, ..RestartOptions::new(2) },
        );
        assert!(clean.converged);
        assert_eq!(clean.rollbacks, 0, "clean run must not roll back");

        let mut path = std::env::temp_dir();
        path.push(format!("ls_restart_rollback_{}.lsck", std::process::id()));
        std::fs::remove_file(&path).ok();
        // Budget 14 → chain length 8: apply #15 (0-based) lands after the
        // second restart boundary, so a checkpoint exists to roll back to.
        let op = NanOnceOp::new(DenseOp::new(n, a.clone()), 15);
        let res = thick_restart_lanczos(
            &op,
            &RestartOptions {
                extra: 12,
                tol: 1e-12,
                checkpoint: Some(CheckpointPolicy::new(path.clone())),
                ..RestartOptions::new(2)
            },
        );
        assert!(res.converged, "residuals {:?}", res.residuals);
        assert_eq!(res.rollbacks, 1, "the poisoned cycle must be detected exactly once");
        for (c, r) in clean.eigenvalues.iter().zip(&res.eigenvalues) {
            assert_eq!(c.to_bits(), r.to_bits(), "rolled-back eigenvalue diverged");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_first_checkpoint_replays_from_the_start() {
        let n = 150;
        let a = random_symmetric(n, 77);
        let base = RestartOptions { extra: 12, tol: 1e-12, ..RestartOptions::new(2) };
        let clean = thick_restart_lanczos(&DenseOp::new(n, a.clone()), &base);
        // Fire during the very first cycle: no checkpoint exists yet, so
        // the rollback resets to the initial state; counter-derived draws
        // make the replay bit-identical to the uninterrupted run.
        let op = NanOnceOp::new(DenseOp::new(n, a.clone()), 3);
        let res = thick_restart_lanczos(&op, &base);
        assert!(res.converged);
        assert_eq!(res.rollbacks, 1);
        for (c, r) in clean.eigenvalues.iter().zip(&res.eigenvalues) {
            assert_eq!(c.to_bits(), r.to_bits(), "restarted eigenvalue diverged");
        }
    }

    #[test]
    fn persistent_corruption_exhausts_the_rollback_budget_and_reraises() {
        // An operator that *always* emits NaN: every replay fails again,
        // so the default LS_MAX_ROLLBACKS budget runs out and the typed
        // health error must surface to the caller (where the process
        // supervisor takes over in a multiprocess job).
        struct AlwaysNan(usize);
        impl LinearOp<f64> for AlwaysNan {
            fn dim(&self) -> usize {
                self.0
            }
            fn apply(&self, _x: &[f64], y: &mut [f64]) {
                y.fill(f64::NAN);
            }
        }
        let op = AlwaysNan(120);
        let payload = std::panic::catch_unwind(|| {
            thick_restart_lanczos(&op, &RestartOptions { extra: 12, ..RestartOptions::new(2) })
        })
        .expect_err("a persistently corrupt operator must not converge");
        let health = payload
            .downcast_ref::<crate::health::SolverHealthError>()
            .expect("payload must stay the typed SolverHealthError");
        assert_eq!(health.check, "alpha");
    }
}
