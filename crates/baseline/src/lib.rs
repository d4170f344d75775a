//! # ls-baseline
//!
//! A bulk-synchronous, `MPI_Alltoallv`-style matrix-vector product — the
//! stand-in for SPINPACK, the state-of-the-art MPI code the paper
//! benchmarks against (its Fig. 9).
//!
//! The paper attributes SPINPACK's inferior scaling to its communication
//! structure: collective exchanges that cannot overlap communication with
//! computation. This crate reproduces exactly that structure on the same
//! simulated runtime the asynchronous implementation uses, so the
//! comparison isolates the algorithmic difference:
//!
//! 1. **generate** — every locale materializes *all* outgoing
//!    `(state, coefficient)` pairs for its whole source range (the memory
//!    spike the producer/consumer pipeline avoids);
//! 2. **barrier**;
//! 3. **exchange** — an emulated `alltoallv`: counts first, then one bulk
//!    transfer per (source, destination) pair;
//! 4. **barrier**;
//! 5. **accumulate** — each locale ranks and adds its received pairs.
//!
//! No work proceeds while communication is in flight, and no
//! communication starts until all generation is done — the defining
//! contrast with the producer/consumer pipeline in `ls_dist::matvec::pc`.

pub mod collective;
pub mod matvec;

pub use collective::alltoallv;
pub use matvec::matvec_alltoall;
