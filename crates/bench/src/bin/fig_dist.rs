//! Distributed Lanczos: in-place Krylov state vs the old gather-scatter
//! adapter, versus locale count — emitted as `BENCH_dist.json`.
//!
//! Two configurations per locale count:
//!
//! * **in_place** — the current pipeline: the shared Krylov
//!   factorization (`ls_eigen::spectral_coefficients_in` over
//!   `ls_dist::DistOp`) runs directly on `DistVec` parts through the
//!   generic `KrylovVec` pipeline; the only communication is the
//!   producer/consumer channel traffic of the matrix-vector product.
//!   Bytes gathered per iteration are read off the cluster's RMA
//!   statistics and **must be zero** — the CI bench-smoke step asserts
//!   it.
//! * **gather_scatter** — a faithful replica of the adapter this PR
//!   deleted: every product scatters the dense Krylov vector into a
//!   freshly allocated `DistVec`, runs the engine, and gathers the
//!   result back into one node-local buffer (the shared-memory solver
//!   then iterates on dense slices). The replica counts its own gather
//!   and scatter bytes, which is what the old adapter's O(dim) copies
//!   per iteration cost — on top of capping the solver at single-node
//!   memory.
//!
//! Both runs take exactly `--iters` Lanczos steps from the same start
//! vector with the same engine options, and the binary asserts their
//! ground-state estimates (the lowest Ritz value of the coefficients)
//! agree — the recurrences are mathematically identical; only reduction
//! partitioning differs. The factorization has no checkpoint rollback, so
//! a detected corruption escalates to the process supervisor.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig_dist -- \
//!     [--sites N] [--iters I] [--reps R] [--locales 1,2,4] \
//!     [--out BENCH_dist.json]
//! ```

use ls_basis::{SectorSpec, SymmetrizedOperator};
use ls_dist::eigensolve::DistOp;
use ls_dist::matvec::pc::PcEngine;
use ls_dist::{enumerate_dist, DistSpinBasis, PcOptions};
use ls_eigen::tridiag::tridiag_eigh;
use ls_eigen::{
    spectral_coefficients, spectral_coefficients_in, LinearOp, SpectralCoefficients,
};
use ls_kernels::Scalar;
use ls_runtime::transport;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use std::sync::atomic::{AtomicU64, Ordering};

/// The deleted adapter, preserved here as the benchmark baseline: dense
/// node-local Krylov vectors, scattered and gathered around every
/// product, with a fresh `DistVec` allocated per apply.
struct GatherScatterOp<'a, S: Scalar> {
    cluster: &'a Cluster,
    op: &'a SymmetrizedOperator<S>,
    basis: &'a DistSpinBasis,
    engine: PcEngine<S>,
    lens: Vec<usize>,
    gathered_bytes: AtomicU64,
    scattered_bytes: AtomicU64,
}

impl<S: Scalar> GatherScatterOp<'_, S> {
    fn scatter(&self, x: &[S]) -> DistVec<S> {
        self.scattered_bytes.fetch_add(std::mem::size_of_val(x) as u64, Ordering::Relaxed);
        let mut out = DistVec::new(self.lens.len());
        let mut cursor = 0usize;
        for (l, &len) in self.lens.iter().enumerate() {
            out.part_mut(l).extend_from_slice(&x[cursor..cursor + len]);
            cursor += len;
        }
        out
    }

    fn gather(&self, v: &DistVec<S>, out: &mut [S]) {
        self.gathered_bytes.fetch_add(std::mem::size_of_val(out) as u64, Ordering::Relaxed);
        let mut cursor = 0usize;
        for l in 0..self.lens.len() {
            let part = v.part(l);
            out[cursor..cursor + part.len()].copy_from_slice(part);
            cursor += part.len();
        }
    }
}

impl<S: Scalar> LinearOp<S> for GatherScatterOp<'_, S> {
    fn dim(&self) -> usize {
        self.basis.dim() as usize
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        let xd = self.scatter(x);
        let mut yd = DistVec::<S>::zeros(&self.lens);
        self.engine.apply(self.cluster, self.op, self.basis, &xd, &mut yd);
        self.gather(&yd, y);
    }

    fn is_hermitian(&self) -> bool {
        self.op.is_hermitian()
    }
}

/// Ground-state estimate of a Lanczos run: its lowest Ritz value.
fn lowest_ritz(c: &SpectralCoefficients) -> f64 {
    tridiag_eigh(&c.alphas, &c.betas, false).0[0]
}

struct Cell {
    locales: usize,
    mode: &'static str,
    lanczos_iter_seconds: f64,
    /// Per-iteration time of the same solve with `LS_INTEGRITY=off` —
    /// the denominator of the silent-error-defense overhead guard
    /// (in_place mode only; 0 elsewhere). The toggle is runtime-live
    /// for the checksum-vector (ABFT) verification; the wire/segment
    /// CRC level is fixed at transport launch, so under a multiprocess
    /// job both timings include it.
    integrity_off_iter_seconds: f64,
    gathered_bytes_per_iter: u64,
    scattered_bytes_per_iter: u64,
    /// Bytes that actually crossed the transport wire (TCP frames), per
    /// Lanczos iteration. Zero on the in-process backend, where locales
    /// are threads and nothing is serialized.
    wire_tx_bytes_per_iter: u64,
    wire_rx_bytes_per_iter: u64,
    /// Mean wall time of one transport barrier during the timed solve.
    mean_barrier_seconds: f64,
    energy: f64,
}

fn main() {
    transport::launch_if_requested();
    let mut sites = 16usize;
    let mut iters = 6usize;
    let mut reps = 3usize;
    let mut locales_arg = vec![1usize, 2, 4];
    let mut out_path = String::from("BENCH_dist.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--iters" => iters = value().parse().unwrap(),
            "--reps" => reps = value().parse().unwrap(),
            "--locales" => {
                locales_arg = value().split(',').map(|t| t.trim().parse().unwrap()).collect()
            }
            "--out" => out_path = value(),
            other => {
                panic!("unknown flag {other} (try --sites/--iters/--reps/--locales/--out)")
            }
        }
    }

    // Never emit simulated numbers under a multiprocess label (or vice
    // versa): if the multiprocess backend was requested this process must
    // actually be connected to a job, and the locale axis is fixed by the
    // job size. (`requested_backend` already rejects unknown
    // `LS_TRANSPORT` values loudly.)
    let mp = transport::active();
    if transport::requested_backend() == transport::Backend::MultiProcess && mp.is_none() {
        panic!(
            "LS_TRANSPORT=multiprocess requested but this process is not part of a \
             multiprocess job; refusing to emit in-process numbers under that label"
        );
    }
    if let Some(mp) = mp {
        if locales_arg != vec![mp.n_locales()] {
            println!(
                "fig_dist: multiprocess job has {} locales; ignoring --locales {:?}",
                mp.n_locales(),
                locales_arg
            );
        }
        locales_arg = vec![mp.n_locales()];
    }

    // The paper's benchmark family: Heisenberg chain, fully symmetric
    // sector at half filling.
    let kernel = ls_expr::builders::heisenberg(&ls_symmetry::lattice::chain_bonds(sites), 1.0)
        .to_kernel(sites as u32)
        .unwrap();
    let group = ls_symmetry::lattice::chain_group(sites, 0, Some(0), Some(0)).unwrap();
    let sector = SectorSpec::new(sites as u32, Some(sites as u32 / 2), group).unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();

    let pc = PcOptions::default();

    println!("fig_dist: {sites} sites, locales {locales_arg:?}, {iters} iterations");
    let mut cells: Vec<Cell> = Vec::new();
    for &locales in &locales_arg {
        let cluster = Cluster::new(ClusterSpec::new(locales, 2));
        let basis = enumerate_dist(&cluster, &sector, 4);
        let dim = basis.dim();
        // Start vector keyed by basis state, so every locale count (and
        // the dense replica, which iterates in concatenated part order)
        // starts from the same physical state.
        let start = DistVec::<f64>::from_parts(
            basis
                .states()
                .parts()
                .iter()
                .map(|p| p.iter().map(|&s| ((s as f64) * 0.37).sin()).collect())
                .collect(),
        );
        let start_dense = start.concat();

        // In-place path: median over interleaved rounds; RMA gets are the
        // gather counter (the producer/consumer pipeline issues none).
        let mut t_inplace = Vec::with_capacity(reps);
        let mut t_inplace_off = Vec::with_capacity(reps);
        let mut t_gs = Vec::with_capacity(reps);
        let mut e_inplace = f64::NAN;
        let mut e_gs = f64::NAN;
        let mut inplace_get_bytes = 0u64;
        let mut gs_gathered = 0u64;
        let mut gs_scattered = 0u64;
        let mut wire_tx = 0u64;
        let mut wire_rx = 0u64;
        let mut barrier_secs = 0.0f64;
        // Alternate which mode runs first each round so slow machine
        // drift (frequency scaling, cache warmth) biases neither mode.
        // (Across processes the gather-scatter baseline is meaningless —
        // its dense node-local Krylov vectors would read stale replicas —
        // so only the in-place path is measured there.)
        for round in 0..reps.max(1) {
            for half in 0..2 {
                if (round + half) % 2 == 0 {
                    // Each round times the solve twice — integrity
                    // checking as configured (default full: matvec
                    // checksum vectors verified every product) and
                    // explicitly off — alternating order so neither
                    // variant systematically runs warmer. Their ratio is
                    // the overhead the CI bench guard bounds.
                    let both = if round % 2 == 0 { [false, true] } else { [true, false] };
                    for off in both {
                        if off {
                            std::env::set_var(transport::ENV_INTEGRITY, "off");
                        }
                        cluster.reset_stats();
                        if let Some(mp) = mp {
                            mp.stats().reset();
                        }
                        let t = std::time::Instant::now();
                        let dist_op = DistOp::new(&cluster, &op, &basis, pc);
                        let coeffs = spectral_coefficients_in(&dist_op, &start, iters);
                        let its = coeffs.alphas.len().max(1) as u64;
                        let per_iter = t.elapsed().as_secs_f64() / its as f64;
                        if off {
                            std::env::remove_var(transport::ENV_INTEGRITY);
                            t_inplace_off.push(per_iter);
                            continue;
                        }
                        t_inplace.push(per_iter);
                        e_inplace = lowest_ritz(&coeffs);
                        inplace_get_bytes = cluster.stats_total().get_bytes;
                        if let Some(mp) = mp {
                            let w = mp.stats().snapshot();
                            wire_tx = w.tx_bytes / its;
                            wire_rx = w.rx_bytes / its;
                            barrier_secs = w.mean_barrier_seconds();
                        }
                    }
                } else if mp.is_none() {
                    let gs_op = GatherScatterOp {
                        cluster: &cluster,
                        op: &op,
                        basis: &basis,
                        engine: PcEngine::new(locales, pc),
                        lens: basis.states().lens(),
                        gathered_bytes: AtomicU64::new(0),
                        scattered_bytes: AtomicU64::new(0),
                    };
                    let t = std::time::Instant::now();
                    let coeffs = spectral_coefficients(&gs_op, &start_dense, iters);
                    let its = coeffs.alphas.len().max(1) as u64;
                    t_gs.push(t.elapsed().as_secs_f64() / its as f64);
                    e_gs = lowest_ritz(&coeffs);
                    gs_gathered = gs_op.gathered_bytes.load(Ordering::Relaxed) / its;
                    gs_scattered = gs_op.scattered_bytes.load(Ordering::Relaxed) / its;
                }
            }
        }
        assert_eq!(
            inplace_get_bytes, 0,
            "in-place distributed Lanczos gathered {inplace_get_bytes} bytes"
        );
        let median = |mut s: Vec<f64>| -> f64 {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let ti = median(t_inplace);
        let ti_off = median(t_inplace_off);
        cells.push(Cell {
            locales,
            mode: "in_place",
            lanczos_iter_seconds: ti,
            integrity_off_iter_seconds: ti_off,
            gathered_bytes_per_iter: 0,
            scattered_bytes_per_iter: 0,
            wire_tx_bytes_per_iter: wire_tx,
            wire_rx_bytes_per_iter: wire_rx,
            mean_barrier_seconds: barrier_secs,
            energy: e_inplace,
        });
        if mp.is_some() {
            if transport::is_primary() {
                println!(
                    "  locales {locales}: dim {dim}, in-place {}/iter (0 B gathered, \
                     {} with LS_INTEGRITY=off), wire {} B tx + {} B rx per iter, \
                     mean barrier {}",
                    ls_bench::fmt_secs(ti),
                    ls_bench::fmt_secs(ti_off),
                    wire_tx,
                    wire_rx,
                    ls_bench::fmt_secs(barrier_secs),
                );
            }
        } else {
            assert!(
                (e_inplace - e_gs).abs() < 1e-6 * e_gs.abs().max(1.0),
                "paths disagree at {locales} locales: {e_inplace} vs {e_gs}"
            );
            let tg = median(t_gs);
            println!(
                "  locales {locales}: dim {dim}, in-place {}/iter (0 B gathered, \
                 {} with LS_INTEGRITY=off), gather-scatter {}/iter \
                 ({} B gathered + {} B scattered per iter)",
                ls_bench::fmt_secs(ti),
                ls_bench::fmt_secs(ti_off),
                ls_bench::fmt_secs(tg),
                gs_gathered,
                gs_scattered,
            );
            cells.push(Cell {
                locales,
                mode: "gather_scatter",
                lanczos_iter_seconds: tg,
                integrity_off_iter_seconds: 0.0,
                gathered_bytes_per_iter: gs_gathered,
                scattered_bytes_per_iter: gs_scattered,
                wire_tx_bytes_per_iter: 0,
                wire_rx_bytes_per_iter: 0,
                mean_barrier_seconds: 0.0,
                energy: e_gs,
            });
        }

        // Smoke the in-place dynamics entry points on the same layout
        // (cheap: a handful of extra products) so the bench also guards
        // the distributed propagators against gathers.
        cluster.reset_stats();
        let psi = DistVec::<f64>::from_parts(
            basis.states().lens().iter().map(|&l| vec![1.0; l]).collect(),
        );
        let _ = ls_dist::dist_evolve_imaginary_time(&cluster, &op, &basis, &psi, 0.5, 5, pc);
        let _ = ls_dist::dist_spectral_coefficients(&cluster, &op, &basis, &psi, 5, pc);
        let dyn_gets = cluster.stats_total().get_bytes;
        assert_eq!(dyn_gets, 0, "distributed dynamics gathered {dyn_gets} bytes");

        // And the fused apply_dot contract: bit-identical to the separate
        // locale-ordered dot over the same product output.
        let dist_op = DistOp::new(&cluster, &op, &basis, pc);
        let mut y = ls_eigen::KrylovOp::new_vec(&dist_op);
        let d = ls_eigen::KrylovOp::apply_dot(&dist_op, &psi, &mut y);
        assert_eq!(d.to_bits(), ls_eigen::KrylovVec::dot(&psi, &y).to_bits());
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"locales\": {}, \"mode\": \"{}\", \"lanczos_iter_seconds\": {:.9}, \
                 \"integrity_off_iter_seconds\": {:.9}, \
                 \"gathered_bytes_per_iter\": {}, \"scattered_bytes_per_iter\": {}, \
                 \"wire_tx_bytes_per_iter\": {}, \"wire_rx_bytes_per_iter\": {}, \
                 \"mean_barrier_seconds\": {:.9}, \"energy\": {:.12}}}",
                c.locales,
                c.mode,
                c.lanczos_iter_seconds,
                c.integrity_off_iter_seconds,
                c.gathered_bytes_per_iter,
                c.scattered_bytes_per_iter,
                c.wire_tx_bytes_per_iter,
                c.wire_rx_bytes_per_iter,
                c.mean_barrier_seconds,
                c.energy
            )
        })
        .collect();
    let dim = sector.dimension();
    // Recovery columns: how the job got here. `restarts` counts
    // supervisor relaunches (nonzero means this incarnation resumed from
    // a checkpoint after a failure); the failure counters describe what
    // *this* incarnation observed — a recovered run that proceeds
    // cleanly reports restarts > 0 with zero fresh failures.
    let (restarts, peer_failures, aborts_sent, mean_detection) = match mp {
        Some(mp) => {
            let w = mp.stats().snapshot();
            (w.restarts, w.peer_failures, w.aborts_sent, w.mean_detection_seconds())
        }
        None => (0, 0, 0, 0.0),
    };
    // Silent-error columns: corruption events this incarnation observed
    // (a clean run must report zeros) and the integrity-checking cost —
    // the worst in-place full/off per-iteration ratio across the locale
    // axis, which the CI bench guard bounds at 1.05. `rollbacks` is 0 by
    // construction: the timed factorization has no in-process rollback.
    let (frames_corrupted, crc_bytes_checked) = match mp {
        Some(mp) => {
            let w = mp.stats().snapshot();
            (w.frames_corrupted, w.crc_bytes_checked)
        }
        None => (0, 0),
    };
    let integrity_overhead = cells
        .iter()
        .filter(|c| c.mode == "in_place" && c.integrity_off_iter_seconds > 0.0)
        .map(|c| c.lanczos_iter_seconds / c.integrity_off_iter_seconds)
        .fold(0.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"dist\",\n  \"backend\": \"{}\",\n  \"sites\": {sites},\n  \
         \"dim\": {dim},\n  \"iters\": {iters},\n  \"reps\": {reps},\n  \
         \"integrity\": \"{}\",\n  \"integrity_overhead\": {integrity_overhead:.6},\n  \
         \"frames_corrupted\": {frames_corrupted},\n  \
         \"crc_bytes_checked\": {crc_bytes_checked},\n  \
         \"rollbacks\": 0,\n  \
         \"restarts\": {restarts},\n  \"peer_failures_detected\": {peer_failures},\n  \
         \"aborts_sent\": {aborts_sent},\n  \"mean_detection_seconds\": {mean_detection:.9},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        transport::backend().name(),
        transport::IntegrityMode::from_env().name(),
        rows.join(",\n")
    );
    // In a multiprocess job every rank computes the same numbers modulo
    // timing noise; rank 0's file is the job's output.
    if transport::is_primary() {
        std::fs::write(&out_path, &json).expect("write benchmark JSON");
        println!("wrote {out_path}");
    }
}
