//! # ls-dist
//!
//! The distributed-memory layer of the workspace: everything from the
//! paper's Secs. 4–5, executed on the simulated PGAS runtime of
//! [`ls_runtime`].
//!
//! * [`basis`] — distributed representative enumeration ([`enumerate_dist`],
//!   the paper's Fig. 4) producing a [`DistSpinBasis`] in the *hashed*
//!   distribution: basis state `s` lives on locale
//!   `hash64_01(s) % numLocales` (Sec. 5.1), which balances both memory
//!   and matrix-row work;
//! * [`convert`] — exact conversions between the hashed distribution used
//!   for compute and the *block* distribution used for I/O (Sec. 4,
//!   Figs. 2–3); the roundtrip is bit-exact;
//! * [`distribution`] — load-balance diagnostics comparing the hashed
//!   scheme against naive contiguous range partitioning;
//! * [`matvec`] — the distributed matrix-vector product: one push-style
//!   producer/consumer pipeline (Sec. 5.3, [`matvec::matvec_pc`] /
//!   [`matvec::pc::PcEngine`]) that overlaps row generation with
//!   communication through reusable buffer channels, plus the pull-style
//!   gather baseline ([`matvec::matvec_gather`]) that replicates `x`
//!   through checksummed one-sided reads;
//! * [`eigensolve`] — distributed Lanczos running **in place on
//!   [`ls_runtime::DistVec`]** through [`ls_eigen`]'s generic Krylov
//!   solver ([`eigensolve::DistOp`] implements `KrylovOp<DistVec>`): no
//!   Krylov vector is ever gathered, and one producer/consumer engine's
//!   buffers are reused across the repeated matrix-vector products;
//! * [`dynamics`] — distributed time evolution (`exp(-itH)`, `exp(-τH)`)
//!   and spectral-function coefficients on the same in-place pipeline.
//!
//! Level-1 operations on distributed vectors are the
//! [`ls_eigen::KrylovVec`] methods of [`ls_runtime::DistVec`]
//! (`dot`, `norm_sqr`, `axpy`, the fused blocked-CGS2 kernels, …).

pub mod basis;
pub mod convert;
pub mod distribution;
pub mod dynamics;
pub mod eigensolve;
mod layout;
pub mod matvec;

pub use basis::{enumerate_dist, DistSpinBasis};
pub use convert::{block_to_hashed, hashed_to_block};
pub use dynamics::{
    dist_evolve_imaginary_time, dist_evolve_real_time, dist_spectral_coefficients,
};
pub use eigensolve::{
    dist_thick_restart_lanczos, DistLanczosResult, DistOp, DistRestartOptions,
};
pub use matvec::{matvec_pc, PcOptions};
