//! The producer/consumer matrix-vector product (paper Sec. 5.3, Fig. 5).
//!
//! Per locale, `producers` tasks stream over the local rows *in blocks*
//! through the batch kernels (one group pass and one bulk ranking per
//! `GEN_BLOCK` rows), generating `(destination state, coefficient)`
//! pairs that are staged per destination and shipped through
//! fixed-capacity [`BufferChannel`](ls_runtime::remote::BufferChannel)s — one per (source, destination)
//! pair. Concurrently, `consumers` tasks on every locale drain the
//! channels addressed to them, rank each received batch in bulk against
//! the *local* basis part (the interleaved prefix-bucket kernel — ranking
//! happens owner-side, where the sorted state list lives) and accumulate
//! atomically into `y`. Row generation, transfer and accumulation
//! therefore overlap — the defining contrast with the bulk-synchronous
//! baseline in `ls-baseline`.
//!
//! Channel hand-off follows the paper's flag protocol: each side spins
//! only on its own flag (with backoff), and flips the peer's flag with a
//! `remoteAtomicWrite`. Buffers are reused across products via
//! [`PcEngine`] — the paper reuses its `RemoteBuffer`s across the whole
//! Lanczos run to avoid reallocation — and the producer/consumer task set
//! runs on the cluster's **persistent worker team**
//! ([`Cluster::run_tasks`]): a Lanczos solve wakes parked threads once
//! per product instead of spawning `locales × (producers + consumers)`
//! fresh threads each iteration.

use crate::basis::DistSpinBasis;
use crate::matvec::{accumulate_batch, validate_shapes, AbftTally};
use crossbeam::utils::Backoff;
use ls_basis::{OffDiagBlock, SymmetrizedOperator};
use ls_kernels::search::NOT_FOUND;
use ls_kernels::Scalar;
use ls_runtime::transport::{self, PairChannel};
use ls_runtime::{AtomicAccumWindow, Cluster, DistVec, LocaleCtx};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Rows a producer generates per batch before routing the emissions:
/// one `state_info` pass and one bulk ranking per block instead of one
/// per matrix element.
const GEN_BLOCK: usize = 512;

/// Tuning knobs of the producer/consumer pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PcOptions {
    /// Row-generating tasks per locale.
    pub producers: usize,
    /// Draining/accumulating tasks per locale.
    pub consumers: usize,
    /// Capacity of each staging buffer, in `(state, coefficient)` pairs.
    pub capacity: usize,
    /// Deterministic accumulation order: forces one producer and one
    /// consumer per locale, and the consumer *stashes* received batches
    /// (communication still overlaps generation) and applies them only
    /// after the locale's producer finished — local contributions in row
    /// order first, then each source locale's batches in source order.
    /// The result is bit-identical across runs **and across transport
    /// backends** (the racing-CAS default is deterministic only to
    /// rounding). Costs the stash memory (all remote contributions of a
    /// product buffered at once) and the overlap of accumulation.
    pub deterministic: bool,
}

impl Default for PcOptions {
    fn default() -> Self {
        Self { producers: 1, consumers: 1, capacity: 512, deterministic: false }
    }
}

/// A reusable producer/consumer matvec engine: owns the `L × L` buffer
/// channels so repeated products (e.g. every Lanczos iteration) reuse the
/// same staging memory.
pub struct PcEngine<S: Scalar> {
    n_locales: usize,
    opts: PcOptions,
    /// Row-major `[source locale][destination locale]`, transport-aware
    /// ([`PairChannel`]: in-process buffers or cross-process framed
    /// channels, selected by the active backend).
    channels: Vec<PairChannel<(u64, S)>>,
    /// Guards the channels against overlapping products: `apply` must be
    /// `&self` (it backs [`ls_eigen::LinearOp`]), so exclusivity is
    /// enforced at runtime instead of by the borrow checker.
    in_use: AtomicBool,
}

impl<S: Scalar> PcEngine<S> {
    /// Builds the reusable channel grid. Under the multiprocess transport
    /// this is SPMD-collective: every rank must construct its engines in
    /// the same program order.
    pub fn new(n_locales: usize, opts: PcOptions) -> Self {
        assert!(n_locales >= 1, "need at least one locale");
        let opts = PcOptions {
            producers: if opts.deterministic { 1 } else { opts.producers.max(1) },
            consumers: if opts.deterministic { 1 } else { opts.consumers.max(1) },
            capacity: opts.capacity.max(1),
            deterministic: opts.deterministic,
        };
        let channels = PairChannel::grid(n_locales, opts.capacity);
        Self { n_locales, opts, channels, in_use: AtomicBool::new(false) }
    }

    /// The effective options (deterministic mode pins producers and
    /// consumers to 1).
    pub fn options(&self) -> PcOptions {
        self.opts
    }

    #[inline]
    fn channel(&self, src: usize, dest: usize) -> &PairChannel<(u64, S)> {
        &self.channels[src * self.n_locales + dest]
    }

    /// One distributed product `y = H x`.
    ///
    /// The engine's channels hold per-product state, so products must not
    /// overlap: concurrent `apply` calls on one engine are detected and
    /// rejected (use one engine per concurrent product instead).
    ///
    /// # Panics
    /// Panics when the engine was sized for a different cluster, when
    /// `x`/`y` are not distributed like `basis`, or when another `apply`
    /// is still running on this engine.
    pub fn apply(
        &self,
        cluster: &Cluster,
        op: &SymmetrizedOperator<S>,
        basis: &DistSpinBasis,
        x: &DistVec<S>,
        y: &mut DistVec<S>,
    ) {
        self.apply_inner(cluster, op, basis, x, y, None);
    }

    /// One distributed product `y = H x` fused with the inner product
    /// `⟨x, y⟩` — the matvec+dot epilogue of a distributed Lanczos
    /// iteration (`α_j = ⟨v_j, H v_j⟩` falls out of the product).
    ///
    /// The fusion is locale-local: every contribution to locale `l`'s
    /// part of `y` is accumulated by locale `l`'s own tasks (owner-side
    /// ranking), so the moment a locale's last task finishes, its part is
    /// final — that task computes the locale's dot partial right there,
    /// while the freshly written part is still cache-resident, before
    /// crossing the cluster barrier. The per-locale partials (each a
    /// deterministic [`ls_eigen::op::par_dot`]) are then combined in
    /// locale order, making the value bit-identical to `apply` followed
    /// by the `KrylovVec::dot` of [`DistVec`] at any thread count.
    pub fn apply_dot(
        &self,
        cluster: &Cluster,
        op: &SymmetrizedOperator<S>,
        basis: &DistSpinBasis,
        x: &DistVec<S>,
        y: &mut DistVec<S>,
    ) -> S {
        let mut partials = vec![S::ZERO; self.n_locales];
        self.apply_inner(cluster, op, basis, x, y, Some(&mut partials));
        if let Some(mp) = transport::active() {
            // Deterministic fault injection (`LS_FAULT=nan:...`): every
            // rank advances its matvec-epoch clock here, and the
            // configured rank replaces its local dot partial with NaN
            // *before* the reduction — silent arithmetic corruption that
            // the rank-ordered allreduce then propagates to every rank
            // identically, so the health monitor trips (and rolls back)
            // in lockstep.
            if mp.nan_fault_fires() {
                partials[mp.rank()] = S::from_re(f64::NAN);
            }
            // A real allreduce: each rank contributes its own slot (the
            // others are zero); lane-wise rank-ordered sums reproduce the
            // per-locale partials on every rank bit-identically.
            let mut lanes = Vec::with_capacity(self.n_locales * S::N_REALS);
            for p in &partials {
                lanes.extend_from_slice(&p.to_reals()[..S::N_REALS]);
            }
            let summed = mp.allreduce_lanes(&lanes);
            for (p, c) in partials.iter_mut().zip(summed.chunks_exact(S::N_REALS)) {
                let mut r = [0.0f64; 2];
                r[..S::N_REALS].copy_from_slice(c);
                *p = S::from_reals(r);
            }
        }
        // The locale-ordered sum of the partials (exactly `KrylovVec::dot`'s
        // combination order, identical on both backends).
        let mut acc = S::ZERO;
        for p in partials {
            acc += p;
        }
        acc
    }

    fn apply_inner(
        &self,
        cluster: &Cluster,
        op: &SymmetrizedOperator<S>,
        basis: &DistSpinBasis,
        x: &DistVec<S>,
        y: &mut DistVec<S>,
        dot_partials: Option<&mut Vec<S>>,
    ) {
        assert_eq!(
            cluster.n_locales(),
            self.n_locales,
            "engine built for another cluster: {} locales vs {}",
            self.n_locales,
            cluster.n_locales()
        );
        validate_shapes(cluster, basis, x, y);
        assert!(
            !self.in_use.swap(true, Ordering::Acquire),
            "PcEngine::apply called while another product is in flight on this engine"
        );
        for part in y.parts_mut() {
            part.fill(S::ZERO);
        }
        // ABFT checksum vectors (`LS_INTEGRITY=full`): producers tally
        // every contribution they generate, per destination; after the
        // product the realized part sums must match. Catches endpoint
        // corruption (contributions lost, duplicated or altered before
        // they reach `y`) that the wire CRCs cannot see.
        let abft = ls_runtime::IntegrityMode::from_env()
            .full()
            .then(|| AbftTally::new(self.n_locales));
        let win = AtomicAccumWindow::new(y);
        // Race-free indexed stores of the per-locale dot partials (each
        // slot written by exactly one locale's last task).
        let dot_lanes = dot_partials.map(|p| ls_eigen::op::atomic_lanes(p));
        let producers = self.opts.producers;
        let consumers = self.opts.consumers;
        // Per-locale countdowns: the last producer to finish closes the
        // locale's outgoing channels (releasing all remote consumers),
        // and the locale's last task of any kind computes the fused dot
        // partial (if requested) and crosses the cluster barrier on its
        // behalf — the moral equivalent of the old
        // scope-join-then-barrier, without spawning a single thread (all
        // tasks run on the cluster's persistent team).
        let live_producers: Vec<AtomicUsize> =
            (0..self.n_locales).map(|_| AtomicUsize::new(producers)).collect();
        let live_tasks: Vec<AtomicUsize> =
            (0..self.n_locales).map(|_| AtomicUsize::new(producers + consumers)).collect();
        cluster.run_tasks(producers + consumers, |ctx, task| {
            let me = ctx.locale();
            if task < producers {
                self.produce(ctx, op, basis, x, &win, task, abft.as_ref());
                if live_producers[me].fetch_sub(1, Ordering::AcqRel) == 1 {
                    for dest in 0..self.n_locales {
                        self.channel(me, dest).close();
                    }
                }
            } else if self.opts.deterministic {
                self.consume_deterministic(ctx, basis, &win, &live_producers[me]);
            } else {
                self.consume(ctx, basis, &win);
            }
            if live_tasks[me].fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(lanes) = dot_lanes {
                    // All writes into this locale's part of `y` come from
                    // this locale's own tasks (producers' local fast path
                    // and diagonal, consumers' owner-side accumulation),
                    // and this is the locale's last task — the part is
                    // final and cache-hot.
                    // SAFETY: the AcqRel countdown above synchronizes
                    // with every sibling task's writes; no further
                    // accumulation into part `me` can occur.
                    let y_local = unsafe { win.part_slice(me) };
                    let partial = ls_eigen::op::par_dot(x.part(me), y_local);
                    ls_eigen::op::store_partial(lanes, me, partial);
                }
                ctx.barrier_wait();
            }
        });
        drop(win);
        // A corruption detected during this product (poison may land at
        // any point — the window drop above already skipped its flush
        // barrier) leaves the channel grid in an arbitrary mid-product
        // state: re-arming would trip the reset invariants with a plain
        // (unrecoverable) panic, and the ABFT sums are garbage anyway.
        // Surface the corruption for rollback instead — recovery
        // rebuilds the engine wholesale, fresh grid included.
        if let Some(mp) = transport::active() {
            if mp.is_poisoned() {
                self.in_use.store(false, Ordering::Release);
                mp.raise_if_poisoned();
            }
        }
        // Re-arm the channels for the next product (buffer reuse) and
        // release the engine *before* the checksum verification: if it
        // unwinds, the engine is already back in a reusable state for
        // the retry after rollback.
        for ch in &self.channels {
            ch.reset();
        }
        self.in_use.store(false, Ordering::Release);
        if let Some(abft) = &abft {
            abft.verify(&*y);
        }
    }

    /// Producer task `p`: generates the rows of a contiguous share of the
    /// local basis part in blocks through the batch kernels
    /// ([`SymmetrizedOperator::apply_off_diag_block`]), staging off-locale
    /// contributions per destination and bulk-ranking the local ones.
    #[allow(clippy::too_many_arguments)] // internal worker of apply_inner
    fn produce(
        &self,
        ctx: &LocaleCtx<'_>,
        op: &SymmetrizedOperator<S>,
        basis: &DistSpinBasis,
        x: &DistVec<S>,
        win: &AtomicAccumWindow<'_, S>,
        p: usize,
        abft: Option<&AbftTally>,
    ) {
        let me = ctx.locale();
        let states = basis.states().part(me);
        let orbits = basis.orbit_sizes().part(me);
        let x_local = x.part(me);
        let producers = self.opts.producers;
        let lo = p * states.len() / producers;
        let hi = (p + 1) * states.len() / producers;

        let mut tally = abft.map(AbftTally::local);
        let mut staging: Vec<Vec<(u64, S)>> =
            (0..self.n_locales).map(|_| Vec::with_capacity(self.opts.capacity)).collect();
        let mut gen = OffDiagBlock::new();
        let mut diag: Vec<S> = Vec::new();
        let mut local_reps: Vec<u64> = Vec::new();
        let mut local_vals: Vec<S> = Vec::new();
        let mut local_idx: Vec<u32> = Vec::new();
        let mut b0 = lo;
        while b0 < hi {
            let b1 = (b0 + GEN_BLOCK).min(hi);
            let block = &states[b0..b1];
            diag.resize(block.len(), S::ZERO);
            op.diagonal_block(block, &mut diag);
            for (k, &d) in diag.iter().enumerate() {
                if d != S::ZERO {
                    win.fetch_add(me, b0 + k, d * x_local[b0 + k]);
                    if let Some(t) = &mut tally {
                        AbftTally::note(t, me, d * x_local[b0 + k]);
                    }
                }
            }
            op.apply_off_diag_block(block, &orbits[b0..b1], &mut gen);
            local_reps.clear();
            local_vals.clear();
            for t in 0..gen.len() {
                let rep = gen.reps[t];
                let val = gen.amps[t] * x_local[b0 + gen.src[t] as usize];
                let dest = basis.owner(rep);
                if let Some(tl) = &mut tally {
                    AbftTally::note(tl, dest, val);
                }
                if dest == me {
                    // Local contributions skip the buffers entirely (the
                    // PGAS "here" fast path) but still rank in bulk.
                    local_reps.push(rep);
                    local_vals.push(val);
                } else {
                    let pairs = &mut staging[dest];
                    pairs.push((rep, val));
                    if pairs.len() == self.opts.capacity {
                        self.ship(ctx, dest, pairs);
                    }
                }
            }
            basis.index_on_batch(me, &local_reps, &mut local_idx);
            for (k, &val) in local_vals.iter().enumerate() {
                let i = if local_idx[k] != NOT_FOUND {
                    local_idx[k] as usize
                } else {
                    basis.index_on_present(me, local_reps[k])
                };
                win.fetch_add(me, i, val);
            }
            b0 = b1;
        }
        for (dest, pairs) in staging.iter_mut().enumerate() {
            if !pairs.is_empty() {
                self.ship(ctx, dest, pairs);
            }
        }
        if let (Some(abft), Some(t)) = (abft, &tally) {
            abft.merge(t);
        }
    }

    /// Claims the channel to `dest` and publishes the staged pairs.
    fn ship(&self, ctx: &LocaleCtx<'_>, dest: usize, pairs: &mut Vec<(u64, S)>) {
        let me = ctx.locale();
        let ch = self.channel(me, dest);
        ch.claim();
        ch.send(ctx.stats(), dest != me, pairs);
        pairs.clear();
    }

    /// Consumer task: drains all channels addressed to this locale,
    /// ranking and accumulating received pairs into the local part of `y`.
    fn consume(
        &self,
        ctx: &LocaleCtx<'_>,
        basis: &DistSpinBasis,
        win: &AtomicAccumWindow<'_, S>,
    ) {
        let me = ctx.locale();
        let n = self.n_locales;
        let mut buf: Vec<(u64, S)> = Vec::with_capacity(self.opts.capacity);
        let mut needles: Vec<u64> = Vec::with_capacity(self.opts.capacity);
        let mut idx: Vec<u32> = Vec::with_capacity(self.opts.capacity);
        let mut done = vec![false; n];
        let mut n_done = 0usize;
        let mut idle_spins = 0u32;
        while n_done < n {
            let mut progress = false;
            for (src, src_done) in done.iter_mut().enumerate() {
                if *src_done {
                    continue;
                }
                let ch = self.channel(src, me);
                buf.clear();
                if ch.try_recv(ctx.stats(), src != me, &mut buf) {
                    accumulate_batch(basis, win, me, &buf, &mut needles, &mut idx);
                    progress = true;
                } else if ch.drained_after_failed_recv(ctx.stats(), &mut buf) {
                    *src_done = true;
                    n_done += 1;
                    progress = true;
                } else if !buf.is_empty() {
                    // The drain check raced with a final publish and took
                    // the data itself.
                    accumulate_batch(basis, win, me, &buf, &mut needles, &mut idx);
                    progress = true;
                }
            }
            if progress {
                idle_spins = 0;
            } else {
                // Spin briefly, then yield: oversubscribed simulated
                // locales must let producers run.
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 8 {
                    std::hint::spin_loop();
                } else {
                    // A producer that stopped feeding us would leave
                    // this loop spinning forever, so surface the cause.
                    // Two distinct failures hide behind the one call,
                    // with different exits: a *dead* peer is fail-stop
                    // (`TransportError::PeerFailed`, job aborts, the
                    // supervisor relaunches), while a *poisoned* epoch —
                    // frame CRC, segment checksum or ABFT — unwinds as a
                    // catchable `TransportError::Corruption` so the
                    // solver rolls the product back. Integrity outranks
                    // liveness in the check, so a peer that detects
                    // corruption and unwinds (going quiet mid-product)
                    // is attributed as corruption, not as a crash.
                    transport::poll_failure();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The deterministic consumer: drains eagerly (so producers never
    /// stall on flow control and communication still overlaps row
    /// generation) but *stashes* everything, applying the accumulation
    /// only once the ordering is fixed — after this locale's producer
    /// finished its row-ordered local adds — and then source by source in
    /// locale order, FIFO within each source. Batch boundaries and
    /// contents are identical on every backend (single producer, fixed
    /// capacity), so the global accumulation order is too: the output is
    /// bit-identical across runs and transports.
    fn consume_deterministic(
        &self,
        ctx: &LocaleCtx<'_>,
        basis: &DistSpinBasis,
        win: &AtomicAccumWindow<'_, S>,
        live_local_producers: &AtomicUsize,
    ) {
        let me = ctx.locale();
        let n = self.n_locales;
        let mut stash: Vec<Vec<(u64, S)>> = (0..n).map(|_| Vec::new()).collect();
        let mut done = vec![false; n];
        let mut n_done = 0usize;
        let mut idle_spins = 0u32;
        while n_done < n {
            let mut progress = false;
            for (src, src_done) in done.iter_mut().enumerate() {
                if *src_done {
                    continue;
                }
                let ch = self.channel(src, me);
                if ch.try_recv(ctx.stats(), src != me, &mut stash[src]) {
                    progress = true;
                } else if ch.drained_after_failed_recv(ctx.stats(), &mut stash[src]) {
                    // (A racing final publish lands in the stash and the
                    // next round observes the close.)
                    *src_done = true;
                    n_done += 1;
                    progress = true;
                }
            }
            if progress {
                idle_spins = 0;
            } else {
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 8 {
                    std::hint::spin_loop();
                } else {
                    // Same attribution split as `consume`: dead peer →
                    // fail-stop `PeerFailed`; poisoned epoch → catchable
                    // `Corruption` (the stash dies with the unwind, which
                    // is correct — rollback discards the whole product).
                    transport::poll_failure();
                    std::thread::yield_now();
                }
            }
        }
        // All sources closed and drained; wait out the local producer's
        // row-ordered adds, then apply the stashes in source order.
        let backoff = Backoff::new();
        while live_local_producers.load(Ordering::Acquire) != 0 {
            if backoff.is_completed() {
                // The local producer may be unwinding out of a poisoned
                // epoch rather than still working: poll so this waiter
                // joins the unwind instead of snoozing against a
                // countdown that will never reach zero.
                transport::poll_failure();
            }
            backoff.snooze();
        }
        let mut needles: Vec<u64> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        for batch in &stash {
            if !batch.is_empty() {
                accumulate_batch(basis, win, me, batch, &mut needles, &mut idx);
            }
        }
    }
}

/// One-shot producer/consumer product: builds a throwaway [`PcEngine`].
/// Reuse an engine (or [`crate::eigensolve::dist_thick_restart_lanczos`], which
/// does) when running many products.
pub fn matvec_pc<S: Scalar>(
    cluster: &Cluster,
    op: &SymmetrizedOperator<S>,
    basis: &DistSpinBasis,
    x: &DistVec<S>,
    y: &mut DistVec<S>,
    opts: PcOptions,
) {
    PcEngine::new(cluster.n_locales(), opts).apply(cluster, op, basis, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::enumerate_dist;
    use ls_basis::SectorSpec;
    use ls_expr::builders::heisenberg;
    use ls_runtime::ClusterSpec;
    use ls_symmetry::lattice::{chain_bonds, chain_group};

    fn setup(
        n: usize,
        locales: usize,
    ) -> (Cluster, SymmetrizedOperator<f64>, DistSpinBasis, DistVec<f64>) {
        let kernel = heisenberg(&chain_bonds(n), 1.0).to_kernel(n as u32).unwrap();
        let group = chain_group(n, 0, Some(0), Some(0)).unwrap();
        let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(locales, 2));
        let basis = enumerate_dist(&cluster, &sector, 3);
        let x = DistVec::from_parts(
            basis
                .states()
                .parts()
                .iter()
                .map(|p| p.iter().map(|&s| ((s as f64) * 0.11).cos()).collect())
                .collect(),
        );
        (cluster, op, basis, x)
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let (cluster, op, basis, x) = setup(12, 3);
        let lens = basis.states().lens();
        let engine = PcEngine::<f64>::new(
            3,
            PcOptions { producers: 2, consumers: 2, capacity: 16, ..PcOptions::default() },
        );
        let mut y1 = DistVec::<f64>::zeros(&lens);
        engine.apply(&cluster, &op, &basis, &x, &mut y1);
        let mut y2 = DistVec::<f64>::zeros(&lens);
        engine.apply(&cluster, &op, &basis, &x, &mut y2);
        for l in 0..3 {
            for (a, b) in y1.part(l).iter().zip(y2.part(l)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // And it matches the serial reference.
        let y3 = crate::matvec::serial_reference(&op, &basis, &x);
        for l in 0..3 {
            for (a, b) in y1.part(l).iter().zip(y3.part(l)) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tiny_capacity_still_correct() {
        let (cluster, op, basis, x) = setup(10, 4);
        let lens = basis.states().lens();
        let mut y_pc = DistVec::<f64>::zeros(&lens);
        matvec_pc(
            &cluster,
            &op,
            &basis,
            &x,
            &mut y_pc,
            PcOptions { producers: 3, consumers: 2, capacity: 1, ..PcOptions::default() },
        );
        let y_ref = crate::matvec::serial_reference(&op, &basis, &x);
        for l in 0..4 {
            for (a, b) in y_pc.part(l).iter().zip(y_ref.part(l)) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine built for another cluster")]
    fn wrong_cluster_rejected() {
        let (cluster, op, basis, x) = setup(10, 3);
        let engine = PcEngine::<f64>::new(2, PcOptions::default());
        let mut y = DistVec::<f64>::zeros(&basis.states().lens());
        engine.apply(&cluster, &op, &basis, &x, &mut y);
    }
}
