//! Layer attribution inside one matrix-vector product, by replaying the
//! product's block loop through the library's public block calls and
//! timing each call.
//!
//! The shared-memory replay walks the same thread-independent chunk and
//! block partition as the default BatchedPull sweep and must reproduce
//! its output bit for bit, which shows the replay does the product's
//! work. The distributed replay walks each locale's part in the
//! producer's generation blocks and ranks every emission on its owner,
//! as the PcEngine's producers and consumers do. Times are summed over
//! the pool's worker threads (thread-nanoseconds for one product).

use ls_basis::{
    state_info_batch, OffDiagBlock, SpinBasis, StateInfoBatch, SymmetrizedOperator,
};
use ls_core::Operator;
use ls_dist::DistSpinBasis;
use ls_eigen::LinearOp;
use ls_kernels::chunk::{par_chunk, BATCH_ROWS};
use ls_kernels::search::NOT_FOUND;
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

/// Rows the PcEngine producer generates per block (its `GEN_BLOCK`).
const PC_GEN_BLOCK: usize = 512;

/// Per-phase thread-nanoseconds and element counts of one replayed
/// product.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    /// Channel-mask row generation (`apply_off_diag_block` on the
    /// trivial-group operator: raw emissions only).
    pub rowgen_ns: u64,
    pub rowgen_entries: u64,
    /// The fused U(1) generation + differential ranking call.
    pub rowgen_rank_ns: u64,
    /// Orbit resolution of the raw emissions (`state_info_batch`).
    pub state_info_ns: u64,
    pub state_info_states: u64,
    /// The product's own block call on a symmetrized sector
    /// (`apply_off_diag_block`: generation, orbit resolution, amplitudes).
    pub offdiag_block_ns: u64,
    /// Ranking of the stored emissions (`index_of_batch` /
    /// `index_on_batch`).
    pub rank_ns: u64,
    pub rank_lookups: u64,
    /// The gather-multiply into `y`.
    pub accumulate_ns: u64,
    /// Stored off-diagonal entries after orbit resolution.
    pub offdiag_nnz: u64,
    /// Emissions the owner's ranking did not find (must stay 0).
    pub missing: u64,
}

impl Tally {
    fn merge_into(&self, total: &Mutex<Tally>) {
        let mut t = total.lock().expect("tally poisoned by a panicking worker");
        t.rowgen_ns += self.rowgen_ns;
        t.rowgen_entries += self.rowgen_entries;
        t.rowgen_rank_ns += self.rowgen_rank_ns;
        t.state_info_ns += self.state_info_ns;
        t.state_info_states += self.state_info_states;
        t.offdiag_block_ns += self.offdiag_block_ns;
        t.rank_ns += self.rank_ns;
        t.rank_lookups += self.rank_lookups;
        t.accumulate_ns += self.accumulate_ns;
        t.offdiag_nnz += self.offdiag_nnz;
        t.missing += self.missing;
    }
}

/// Times `f`, adding the elapsed nanoseconds to `acc`.
fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as u64;
    r
}

/// Replays one BatchedPull product `y = H x` of `op`. `raw_gen` is the
/// same Hamiltonian bound to the sector's U(1)-only sector (trivial
/// group); on a symmetrized sector its block generation yields the raw
/// emissions that `state_info_batch` then resolves.
///
/// Returns the tally and whether the replayed `y` equals the library's
/// product bit for bit.
pub fn replay_shared(
    op: &Operator<f64>,
    raw_gen: &SymmetrizedOperator<f64>,
    x: &[f64],
) -> (Tally, bool) {
    let symop = op.symmetrized();
    let basis: &SpinBasis = op.basis();
    let dim = basis.dim();
    let fused = if symop.has_trivial_group() && !symop.has_signs() {
        basis.combinadic_table()
    } else {
        None
    };
    let mut diag = vec![0.0f64; dim];
    symop.diagonal_block(basis.states(), &mut diag);
    let total = Mutex::new(Tally::default());
    let mut y = vec![0.0f64; dim];
    let chunk = par_chunk(dim);
    y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
        let base = ci * chunk;
        let mut t = Tally::default();
        let mut raw = OffDiagBlock::<f64>::new();
        let mut gen = OffDiagBlock::<f64>::new();
        let mut info = StateInfoBatch::new();
        let mut idx: Vec<u32> = Vec::new();
        let (mut fired, mut emit, mut segs) = (Vec::new(), Vec::new(), Vec::new());
        let mut b0 = 0usize;
        while b0 < yc.len() {
            let b1 = (b0 + BATCH_ROWS).min(yc.len());
            let states = &basis.states()[base + b0..base + b1];
            let orbits = &basis.orbit_sizes()[base + b0..base + b1];
            let yb = &mut yc[b0..b1];
            for (k, out) in yb.iter_mut().enumerate() {
                *out = diag[base + b0 + k] * x[base + b0 + k];
            }
            // Unfused generation: the block path of every sector without
            // the fused U(1) kernel, and of PcEngine producers.
            timed(&mut t.rowgen_ns, || raw_gen.apply_off_diag_block(states, orbits, &mut raw));
            t.rowgen_entries += raw.len() as u64;
            match fused {
                Some(table) => {
                    timed(&mut t.rank_ns, || basis.index_of_batch(&raw.reps, &mut idx));
                    t.rank_lookups += idx.len() as u64;
                    timed(&mut t.rowgen_rank_ns, || {
                        symop.apply_off_diag_block_u1_ranked_channels(
                            states,
                            (base + b0) as u64,
                            table,
                            &mut fired,
                            &mut emit,
                            &mut segs,
                        )
                    });
                    t.offdiag_nnz += emit.len() as u64;
                    timed(&mut t.accumulate_ns, || {
                        let mut t0 = 0usize;
                        for &(coeff, t1) in &segs {
                            let t1 = t1 as usize;
                            ls_kernels::simd::accumulate_segment_f64(
                                yb,
                                x,
                                &emit[t0..t1],
                                coeff,
                            );
                            t0 = t1;
                        }
                    });
                }
                None => {
                    timed(&mut t.state_info_ns, || {
                        state_info_batch(symop.group(), &raw.reps, &mut info)
                    });
                    t.state_info_states += raw.len() as u64;
                    // The library call the product makes: generation,
                    // orbit resolution and amplitudes in one.
                    timed(&mut t.offdiag_block_ns, || {
                        symop.apply_off_diag_block(states, orbits, &mut gen)
                    });
                    t.offdiag_nnz += gen.len() as u64;
                    timed(&mut t.rank_ns, || basis.index_of_batch(&gen.reps, &mut idx));
                    t.rank_lookups += idx.len() as u64;
                    timed(&mut t.accumulate_ns, || {
                        for (k, &i) in idx.iter().enumerate() {
                            assert_ne!(i, NOT_FOUND, "emission outside the basis");
                            yb[gen.src[k] as usize] += gen.amps[k] * x[i as usize];
                        }
                    });
                }
            }
            b0 = b1;
        }
        t.merge_into(&total);
    });
    let mut y_lib = vec![0.0f64; dim];
    op.apply(x, &mut y_lib);
    let exact = y.iter().zip(&y_lib).all(|(a, b)| a.to_bits() == b.to_bits());
    (total.into_inner().expect("tally poisoned by a panicking worker"), exact)
}

/// Replays the generation and owner-side ranking of one distributed
/// product. Returns the tally and whether every emission ranked on its
/// owner.
pub fn replay_dist(symop: &SymmetrizedOperator<f64>, basis: &DistSpinBasis) -> (Tally, bool) {
    let locales = basis.n_locales();
    let mut blocks = Vec::new();
    for locale in 0..locales {
        let len = basis.local_dim(locale);
        blocks.extend(
            (0..len).step_by(PC_GEN_BLOCK).map(|b0| (locale, b0, (b0 + PC_GEN_BLOCK).min(len))),
        );
    }
    let total = Mutex::new(Tally::default());
    blocks.into_par_iter().for_each(|(locale, b0, b1)| {
        let mut t = Tally::default();
        let mut gen = OffDiagBlock::<f64>::new();
        let mut routed: Vec<Vec<u64>> = vec![Vec::new(); locales];
        let mut idx: Vec<u32> = Vec::new();
        let states = &basis.states().part(locale)[b0..b1];
        let orbits = &basis.orbit_sizes().part(locale)[b0..b1];
        timed(&mut t.rowgen_ns, || symop.apply_off_diag_block(states, orbits, &mut gen));
        for &rep in &gen.reps {
            routed[basis.owner(rep)].push(rep);
        }
        for (dest, reps) in routed.iter().enumerate() {
            timed(&mut t.rank_ns, || basis.index_on_batch(dest, reps, &mut idx));
            t.missing += idx.iter().filter(|&&i| i == NOT_FOUND).count() as u64;
        }
        t.rowgen_entries = gen.len() as u64;
        t.rank_lookups = gen.len() as u64;
        t.offdiag_nnz = gen.len() as u64;
        t.merge_into(&total);
    });
    let t = total.into_inner().expect("tally poisoned by a panicking worker");
    (t, t.missing == 0)
}
