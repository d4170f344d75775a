//! # ls-eigen
//!
//! Krylov eigensolvers for the exact-diagonalization stack.
//!
//! Exact diagonalization ultimately asks for a few extreme eigenpairs of a
//! huge Hermitian matrix; the paper (Sec. 2.1) points to Krylov subspace
//! methods as the standard tool, with the matrix-vector product (this
//! workspace's centrepiece) as the only operation touching the operator.
//!
//! This crate provides:
//! * [`vector`] — the Krylov storage abstraction: [`KrylovVec`] (fused
//!   deterministic BLAS-1 over any vector representation, implemented for
//!   `Vec<L>` and the locale-partitioned `ls_runtime::DistVec<L>` for
//!   every storage [`ls_kernels::Lane`] `L`) and [`KrylovOp`] (the
//!   matrix-free operator over that storage, with a blanket
//!   implementation turning every [`LinearOp`] into a
//!   `KrylovOp<Vec<S>>`);
//! * [`LinearOp`] — the slice-based matrix-free operator interface,
//!   including the fused matvec+dot epilogue hook
//!   ([`LinearOp::apply_dot`]);
//! * [`op`] — the BLAS-1 layer: serial helpers plus the **parallel
//!   deterministic kernels** (`par_dot`, `par_norm_sqr`, blocked
//!   multi-vector `par_multi_dot`/`par_multi_axpy`, fused axpy+norm),
//!   generic over the storage lane, whose reductions are bit-identical
//!   at any `LS_NUM_THREADS`;
//! * [`restart::thick_restart_lanczos_in`] — the eigensolver: Lanczos
//!   with full (blocked CGS2) reorthogonalization and Ritz-residual
//!   convergence control, written once against the vector abstraction
//!   ([`restart::thick_restart_lanczos`] is the slice-based wrapper). It
//!   holds at most `k + extra` Krylov vectors via Ritz compression at
//!   restart boundaries, with optional checkpoint/restart
//!   ([`restart::CheckpointPolicy`]) whose resume is bit-identical to the
//!   uninterrupted solve; a budget covering the whole space runs one
//!   unrestarted chain. [`lanczos`] holds the shared building blocks
//!   (blocked CGS2, the Krylov factorization that [`expm`] and
//!   [`spectral`] reuse for propagators and spectral functions);
//! * [`checkpoint`] — the versioned, checksummed on-disk format behind
//!   that resume contract ([`save_checkpoint`] / [`load_checkpoint`],
//!   typed [`CheckpointError`]s for truncated, corrupt or mismatched
//!   files);
//! * [`health`] — the solver layer of the silent-error defense:
//!   [`HealthMonitor`] checks Lanczos invariants (finite coefficients,
//!   `β ≥ 0`, retained-basis orthonormality, sane residuals) each cycle,
//!   and the thick-restart driver catches the typed
//!   [`SolverHealthError`] (or a transport
//!   [`ls_runtime::TransportError::Corruption`]) and rolls back to the
//!   newest valid checkpoint, bounded by `LS_MAX_ROLLBACKS`;
//! * [`tridiag::tridiag_eigh`] — implicit-shift QL for the projected
//!   tridiagonal problem (no LAPACK available offline, so this is a
//!   from-scratch implementation);
//! * [`jacobi`] — dense cyclic-Jacobi reference solvers (real symmetric
//!   and complex Hermitian via real embedding) used to validate everything
//!   else.

pub mod checkpoint;
pub mod expm;
pub mod health;
pub mod jacobi;
pub mod lanczos;
pub mod op;
pub mod precision;
pub mod restart;
pub mod spectral;
pub mod tridiag;
pub mod vector;

pub use checkpoint::{
    generation_path, load_checkpoint, load_latest_checkpoint, manifest_generations,
    remove_checkpoint, save_checkpoint, save_checkpoint_ref, save_checkpoint_rotated,
    CheckpointError, CheckpointState, CheckpointStateRef,
};
pub use expm::{
    evolve_imaginary_time, evolve_imaginary_time_in, evolve_real_time, evolve_real_time_in,
};
pub use health::{HealthMonitor, SolverHealthError};
pub use lanczos::{LanczosResult, LanczosResultIn};
pub use op::{DenseOp, LinearOp};
pub use precision::{eigensolve_precision, refine_in_f64, MixedOp, Precision};
pub use restart::{
    thick_restart_lanczos, thick_restart_lanczos_in, CheckpointPolicy, RestartOptions,
};
pub use spectral::{spectral_coefficients, spectral_coefficients_in, SpectralCoefficients};
pub use vector::{KrylovOp, KrylovVec};
