//! Batched vs scalar matrix-vector products: the ablation behind the
//! batched engine (`matvec::apply_batched_pull`).
//!
//! Times the batched pull against its two scalar oracles (the serial
//! push-order reference and the scalar pull) on a U(1) sector and on a
//! fully symmetrized sector (the `state_info_batch` path), each at the
//! sector's own ranking, verifies agreement against the serial reference
//! while doing so, and emits the measurements as `BENCH_matvec.json` so
//! the repository's performance trajectory is recorded run over run.
//!
//! ```sh
//! cargo run --release -p ls-bench --bin fig_batch -- \
//!     [--sites N] [--weight W] [--reps R] [--out BENCH_matvec.json]
//! ```

use ls_basis::basis::RankingKind;
use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_core::matvec::{apply_batched_pull_pooled, apply_pull_pooled, apply_serial_pooled};
use ls_core::MatvecScratchPool;
use ls_symmetry::lattice::{chain_bonds, chain_group};

/// The timed shared-memory paths; the `Debug` names are the `strategy`
/// labels of `BENCH_matvec.json`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Strategy {
    /// `apply_serial`: single-threaded push-order oracle.
    Serial,
    /// `apply_pull`: scalar gather, the batched pull's bit-exact twin.
    PullParallel,
    /// `apply_batched_pull`: the production path.
    BatchedPull,
}

const STRATEGIES: [Strategy; 3] =
    [Strategy::Serial, Strategy::PullParallel, Strategy::BatchedPull];

struct Measurement {
    strategy: Strategy,
    seconds: f64,
}

struct SectorReport {
    label: &'static str,
    n_sites: usize,
    dim: usize,
    group_order: usize,
    ranking: RankingKind,
    /// Off-diagonal row entries of the sector (for the traffic model).
    nnz_offdiag: usize,
    /// Modelled bytes moved by one matvec (see
    /// [`ls_bench::matvec_traffic_bytes`]).
    bytes_moved: u64,
    results: Vec<Measurement>,
}

impl SectorReport {
    /// Median seconds of `strategy`.
    fn time(&self, strategy: Strategy) -> f64 {
        self.results
            .iter()
            .find(|m| m.strategy == strategy)
            .map(|m| m.seconds)
            .expect("every strategy is measured")
    }

    /// Achieved bandwidth of a measurement under the traffic model.
    fn gbps(&self, seconds: f64) -> f64 {
        self.bytes_moved as f64 / seconds / 1e9
    }

    fn to_json(&self, stream_gbps: f64) -> String {
        let rows: Vec<String> = self
            .results
            .iter()
            .map(|m| {
                format!(
                    "      {{\"strategy\": \"{:?}\", \"ranking\": \"{:?}\", \
                     \"seconds\": {:.9}, \"gbps\": {:.4}, \"roofline_frac\": {:.4}}}",
                    m.strategy,
                    self.ranking,
                    m.seconds,
                    self.gbps(m.seconds),
                    self.gbps(m.seconds) / stream_gbps
                )
            })
            .collect();
        format!(
            "  \"{}\": {{\n    \"n_sites\": {},\n    \"dim\": {},\n    \
             \"group_order\": {},\n    \"default_ranking\": \"{:?}\",\n    \
             \"nnz_offdiag\": {},\n    \"bytes_moved\": {},\n    \
             \"results\": [\n{}\n    ]\n  }}",
            self.label,
            self.n_sites,
            self.dim,
            self.group_order,
            self.ranking,
            self.nnz_offdiag,
            self.bytes_moved,
            rows.join(",\n")
        )
    }
}

fn run_sector(
    label: &'static str,
    sector: SectorSpec,
    n_sites: usize,
    reps: usize,
) -> SectorReport {
    let kernel = ls_expr::builders::heisenberg(&chain_bonds(n_sites), 1.0)
        .to_kernel(n_sites as u32)
        .unwrap();
    let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
    let group_order = sector.group().order();
    let basis = SpinBasis::build(sector);
    let dim = basis.dim();
    let x: Vec<f64> = (0..dim)
        .map(|i| (ls_kernels::hash64_01(i as u64) >> 11) as f64 * 1e-16 - 0.4)
        .collect();
    let mut y = vec![0.0f64; dim];
    let mut y_ref = vec![0.0f64; dim];
    let pool = MatvecScratchPool::new();
    apply_serial_pooled(&op, &basis, &x, &mut y_ref, &pool);

    // Interleaved rounds: one sample of every strategy per round, so slow
    // machine-load drift biases none of them; the per-strategy median is
    // reported.
    let mut samples = vec![Vec::with_capacity(reps); STRATEGIES.len()];
    for round in 0..reps.max(1) {
        for (si, &strategy) in STRATEGIES.iter().enumerate() {
            let t = std::time::Instant::now();
            match strategy {
                Strategy::Serial => apply_serial_pooled(&op, &basis, &x, &mut y, &pool),
                Strategy::PullParallel => apply_pull_pooled(&op, &basis, &x, &mut y, &pool),
                Strategy::BatchedPull => {
                    apply_batched_pull_pooled(&op, &basis, &x, &mut y, &pool)
                }
            }
            samples[si].push(t.elapsed().as_secs_f64());
            if round == 0 {
                // Every measurement doubles as a correctness check.
                for i in 0..dim {
                    assert!(
                        (y[i] - y_ref[i]).abs() < 1e-10,
                        "{strategy:?} disagrees with serial at {i}"
                    );
                }
            }
        }
    }
    let results = STRATEGIES
        .iter()
        .zip(&mut samples)
        .map(|(&strategy, times)| {
            times.sort_by(f64::total_cmp);
            Measurement { strategy, seconds: times[times.len() / 2] }
        })
        .collect();
    let nnz_offdiag = ls_bench::count_offdiag_entries(&op, &basis);
    let bytes_moved = ls_bench::matvec_traffic_bytes(dim, nnz_offdiag);
    SectorReport {
        label,
        n_sites,
        dim,
        group_order,
        ranking: basis.ranking(),
        nnz_offdiag,
        bytes_moved,
        results,
    }
}

fn print_report(r: &SectorReport, reps: usize, stream_gbps: f64) {
    let rows: Vec<Vec<String>> = r
        .results
        .iter()
        .map(|m| {
            vec![
                format!("{:?}", m.strategy),
                ls_bench::fmt_secs(m.seconds),
                format!("{:.2}×", r.time(Strategy::Serial) / m.seconds),
                format!("{:.1}", r.gbps(m.seconds)),
                format!("{:.0}%", 100.0 * r.gbps(m.seconds) / stream_gbps),
            ]
        })
        .collect();
    ls_bench::print_table(
        &format!(
            "{}: {} sites, dim {}, |G| = {}, {:?} ranking, {:.1} MB moved/matvec \
             (median of {reps}, ceiling {stream_gbps:.1} GB/s)",
            r.label,
            r.n_sites,
            r.dim,
            r.group_order,
            r.ranking,
            r.bytes_moved as f64 / 1e6
        ),
        &["strategy", "time", "vs serial", "GB/s", "roofline"],
        &rows,
    );
}

fn main() {
    let mut sites = 24usize;
    let mut weight: Option<usize> = None;
    let mut reps = 3usize;
    let mut out_path = String::from("BENCH_matvec.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value for flag");
        match arg.as_str() {
            "--sites" => sites = value().parse().unwrap(),
            "--weight" => weight = Some(value().parse().unwrap()),
            "--reps" => reps = value().parse().unwrap(),
            "--out" => out_path = value(),
            other => panic!("unknown flag {other} (try --sites/--weight/--reps/--out)"),
        }
    }
    let weight = weight.unwrap_or(sites / 2);
    let threads = rayon::current_num_threads();

    // The measured memory-bandwidth ceiling every achieved-GB/s column
    // is attributed against, and the active SIMD dispatch level.
    let stream_gbps = ls_bench::stream_triad_gbps(3);
    let simd_level = format!("{:?}", ls_kernels::simd::level());
    println!(
        "STREAM triad ceiling: {stream_gbps:.1} GB/s at {threads} threads (SIMD {simd_level})"
    );

    // U(1)-only sector: the trivial-group fast path (combinadic ranking).
    let u1 = run_sector(
        "u1",
        SectorSpec::with_weight(sites as u32, weight as u32).unwrap(),
        sites,
        reps,
    );
    print_report(&u1, reps, stream_gbps);

    // Fully symmetrized sector (translation + reflection + spin flip):
    // exercises `state_info_batch`. The dimension shrinks by ~|G|, so the
    // same site count stays cheap.
    let group = chain_group(sites, 0, Some(0), Some(0)).unwrap();
    let symmetrized = run_sector(
        "symmetrized",
        SectorSpec::new(sites as u32, Some(weight as u32), group).unwrap(),
        sites,
        reps,
    );
    print_report(&symmetrized, reps, stream_gbps);

    let speedup_pull = u1.time(Strategy::PullParallel) / u1.time(Strategy::BatchedPull);
    println!("\nU(1) speedup at the sector's ranking ({:?}):", u1.ranking);
    println!("  BatchedPull vs PullParallel: {speedup_pull:.2}×");

    // SIMD vs forced-scalar A/B on the U(1) BatchedPull product (the
    // dispatch is bit-exact, so the outputs agree; only speed differs).
    // Interleaved samples, median of each arm.
    let simd_speedup_pull = {
        let sector = SectorSpec::with_weight(sites as u32, weight as u32).unwrap();
        let kernel = ls_expr::builders::heisenberg(&chain_bonds(sites), 1.0)
            .to_kernel(sites as u32)
            .unwrap();
        let op = SymmetrizedOperator::<f64>::new(&kernel, &sector).unwrap();
        let basis = SpinBasis::build(sector);
        let dim = basis.dim();
        let x: Vec<f64> = (0..dim)
            .map(|i| (ls_kernels::hash64_01(i as u64) >> 11) as f64 * 1e-16 - 0.4)
            .collect();
        let mut y = vec![0.0f64; dim];
        let pool = MatvecScratchPool::new();
        let mut times = [Vec::new(), Vec::new()];
        apply_batched_pull_pooled(&op, &basis, &x, &mut y, &pool); // warm-up
        for _ in 0..reps.max(3) {
            for (arm, samples) in times.iter_mut().enumerate() {
                ls_kernels::simd::set_force_scalar(arm == 0);
                let t = std::time::Instant::now();
                apply_batched_pull_pooled(&op, &basis, &x, &mut y, &pool);
                samples.push(t.elapsed().as_secs_f64());
            }
        }
        ls_kernels::simd::set_force_scalar(false);
        let median = |s: &mut Vec<f64>| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let (scalar_t, simd_t) = (median(&mut times[0]), median(&mut times[1]));
        println!(
            "  BatchedPull SIMD vs scalar dispatch: {:.2}× ({} vs {})",
            scalar_t / simd_t,
            ls_bench::fmt_secs(simd_t),
            ls_bench::fmt_secs(scalar_t)
        );
        scalar_t / simd_t
    };

    let json = format!(
        "{{\n  \"bench\": \"matvec\",\n  \"threads\": {threads},\n  \"reps\": {reps},\n  \
         \"stream_gbps\": {stream_gbps:.4},\n  \"simd_level\": \"{simd_level}\",\n\
         {},\n{},\n  \"speedup_batched_pull_vs_pull\": {speedup_pull:.4},\n  \
         \"simd_speedup_batched_pull\": {simd_speedup_pull:.4}\n}}\n",
        u1.to_json(stream_gbps),
        symmetrized.to_json(stream_gbps)
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
