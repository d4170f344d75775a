//! The three workloads: set-up, the timed solve loop, and (traced runs)
//! the per-layer metrics.
//!
//! Every workload is the Heisenberg ring at half filling, solved for its
//! two lowest eigenvalues with thick-restart Lanczos at the library's
//! defaults (tol 1e-10, budget k + 24 = 26 vectors).

use crate::median;
use crate::replay::{self, Tally};
use crate::trace::{self, Span, Tracer};
use ls_basis::{SectorSpec, SpinBasis, SymmetrizedOperator};
use ls_core::Operator;
use ls_dist::{
    dist_thick_restart_lanczos, enumerate_dist, DistOp, DistRestartOptions, DistSpinBasis,
    PcOptions,
};
use ls_eigen::{
    load_checkpoint, remove_checkpoint, save_checkpoint, thick_restart_lanczos,
    thick_restart_lanczos_in, CheckpointPolicy, KrylovOp, LanczosResultIn, LinearOp,
    RestartOptions,
};
use ls_expr::builders::heisenberg;
use ls_expr::LocalHilbert;
use ls_runtime::stats::StatsSnapshot;
use ls_runtime::{Cluster, ClusterSpec, DistVec};
use ls_symmetry::lattice::{chain_bonds, chain_group};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Eigenvalues wanted per solve.
const K: usize = 2;
/// Locales of the in-process cluster (one core each).
const LOCALES: usize = 2;
/// Enumeration chunks per locale for `enumerate_dist`.
const CHUNKS_PER_LOCALE: usize = 8;
/// Products timed for the shared-memory reference of `dist.vs_shared`.
const REFERENCE_PRODUCTS: usize = 5;

pub struct Spec {
    pub name: &'static str,
    pub sites: usize,
    /// Momentum 0, parity +, spin flip + on top of U(1).
    pub symmetric: bool,
    pub distributed: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The two lowest eigenvalues, measured at tol 1e-10.
    pub reference: [f64; 2],
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "u1_22",
        sites: 22,
        symmetric: false,
        distributed: false,
        setup_reps: 41,
        reference: [-9.786880651766, -9.588107240606],
    },
    Spec {
        name: "sym_24",
        sites: 24,
        symmetric: true,
        distributed: false,
        setup_reps: 9,
        reference: [-10.670014516537, -9.967721622474],
    },
    Spec {
        name: "dist2_u1_20_ckpt",
        sites: 20,
        symmetric: false,
        distributed: true,
        setup_reps: 41,
        reference: [-8.904386529877, -8.686440986187],
    },
];

/// Every per-layer metric of a traced run, with its unit, in report
/// order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("expr.compile_s", "s"),
    ("basis.enumerate_s", "s"),
    ("dist.enumerate_s", "s"),
    ("basis.dim", "count"),
    ("basis.memory_bytes", "B"),
    ("basis.rowgen_s", "s"),
    ("basis.rowgen_entries", "count"),
    ("basis.rowgen_rank_s", "s"),
    ("basis.state_info_s", "s"),
    ("basis.state_info_ns_per_state", "ns"),
    ("basis.offdiag_block_s", "s"),
    ("basis.rank_s", "s"),
    ("basis.rank_ns_per_lookup", "ns"),
    ("basis.accumulate_s", "s"),
    ("core.matvec_s", "s"),
    ("core.matvecs", "count"),
    ("core.matvec_share", "ratio"),
    ("core.offdiag_nnz", "count"),
    ("core.ns_per_entry", "ns"),
    ("core.bytes_per_matvec", "B"),
    ("core.gbps", "GB/s"),
    ("core.roofline_frac", "ratio"),
    ("eigen.matvecs_to_tol", "count"),
    ("eigen.self_s", "s"),
    ("eigen.self_share", "ratio"),
    ("eigen.peak_vectors", "count"),
    ("eigen.krylov_bytes", "B"),
    ("eigen.rollbacks", "count"),
    ("eigen.ckpt_write_s", "s"),
    ("eigen.ckpt_writes", "count"),
    ("eigen.ckpt_load_s", "s"),
    ("eigen.ckpt_bytes", "B"),
    ("dist.matvec_s", "s"),
    ("dist.matvecs", "count"),
    ("dist.self_s", "s"),
    ("dist.vs_shared", "ratio"),
    ("runtime.put_bytes_per_matvec", "B"),
    ("runtime.puts_per_matvec", "count"),
    ("runtime.flag_msgs_per_matvec", "count"),
    ("runtime.barriers_per_matvec", "count"),
    ("runtime.remote_atomics_per_matvec", "count"),
    ("runtime.get_bytes", "B"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// One eigensolve and the facts the correctness gate checks.
#[derive(Clone)]
pub struct Solve {
    pub secs: f64,
    pub traced: bool,
    pub matvecs: usize,
    pub eigenvalues: Vec<f64>,
    pub converged: bool,
    pub rollbacks: u64,
    pub peak_vectors: usize,
    /// Remote-get bytes during the solve (distributed workload only).
    pub get_bytes: u64,
    pub failure: Option<String>,
}

impl Solve {
    fn new<V>(res: &LanczosResultIn<V>, secs: f64, traced: bool, get_bytes: u64) -> Self {
        Self {
            secs,
            traced,
            matvecs: res.iterations,
            eigenvalues: res.eigenvalues.clone(),
            converged: res.converged,
            rollbacks: res.rollbacks,
            peak_vectors: res.peak_retained,
            get_bytes,
            failure: None,
        }
    }

    pub fn eigenvalue_bits(&self) -> Vec<String> {
        self.eigenvalues.iter().map(|v| format!("{:016x}", v.to_bits())).collect()
    }
}

pub struct Run {
    pub dim: usize,
    pub setup_s: Vec<f64>,
    pub solves: Vec<Solve>,
    pub layers: BTreeMap<&'static str, f64>,
    /// The shared-memory replay reproduced the library's product bit for
    /// bit, or the distributed replay ranked every emission on its owner.
    pub replay_exact: bool,
}

/// Runs `spec`'s set-ups and solves; traced runs add the layer table.
/// `stem` prefixes the files the run writes (checkpoints).
pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &Tracer, stem: &Path) -> Run {
    if spec.distributed {
        run_dist(spec, seed, seconds, tracer, stem)
    } else {
        run_shared(spec, seed, seconds, tracer)
    }
}

/// Solves until `seconds` have passed or the next solve would overrun
/// them, at least once. Traced runs alternate untraced and traced solves
/// of the same seed, at least one of each, so the tracing overhead is
/// their difference.
fn solve_loop(
    seconds: f64,
    trace: bool,
    mut one: impl FnMut(usize, bool) -> Solve,
) -> Vec<Solve> {
    let start = Instant::now();
    let mut solves: Vec<Solve> = Vec::new();
    loop {
        let i = solves.len();
        solves.push(one(i, trace && i % 2 == 1));
        let typical = median(&solves.iter().map(|s| s.secs).collect::<Vec<_>>());
        let enough = solves.len() >= if trace { 2 } else { 1 };
        if enough && start.elapsed().as_secs_f64() + typical > seconds {
            return solves;
        }
    }
}

fn sector(sites: usize, symmetric: bool) -> SectorSpec {
    let n = sites as u32;
    if symmetric {
        let group = chain_group(sites, 0, Some(0), Some(0)).expect("chain group of the ring");
        SectorSpec::new(n, Some(n / 2), group).expect("half-filled symmetric sector")
    } else {
        SectorSpec::with_weight(n, n / 2).expect("half-filled U(1) sector")
    }
}

/// The expression-to-kernel compile and its binding to `sector`
/// (the first half of `Operator::from_expr`).
fn compile(sites: usize, sector: &SectorSpec, tracer: &Tracer) -> SymmetrizedOperator<f64> {
    let _span = tracer.span("expr.compile", None);
    let expr = heisenberg(&chain_bonds(sites), 1.0);
    let kernel = expr
        .to_kernel_in(&LocalHilbert::from_encoding(sector.encoding()), sector.n_sites())
        .expect("the Heisenberg ring compiles on its own sites");
    SymmetrizedOperator::new(&kernel, sector)
        .expect("the Heisenberg ring commutes with the group")
}

/// Repeats `setup` `reps` times, keeping the last result and each
/// wall time.
fn repeat_setup<T>(
    reps: usize,
    tracer: &Tracer,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        let t = Instant::now();
        let _span = tracer.span("setup", None);
        built = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), times)
}

/// Median duration of the spans called `name`.
fn span_median(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans.iter().filter(|s| s.name == name).map(Span::secs).collect();
    median(&d)
}

/// A deterministic dense test vector for the replayed products.
fn probe_vector(dim: usize) -> Vec<f64> {
    (0..dim).map(|i| ((i as f64) * 0.618_033_988_75).sin()).collect()
}

// ---------------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------------

/// Spans every product of the wrapped operator as `core.matvec`.
struct TimedOp<'a> {
    op: &'a Operator<f64>,
    tracer: &'a Tracer,
    solve: usize,
}

impl LinearOp<f64> for TimedOp<'_> {
    fn dim(&self) -> usize {
        LinearOp::dim(self.op)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _span = self.tracer.span("core.matvec", Some(self.solve));
        LinearOp::apply(self.op, x, y);
    }

    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let _span = self.tracer.span("core.matvec", Some(self.solve));
        LinearOp::apply_dot(self.op, x, y)
    }

    fn is_hermitian(&self) -> bool {
        LinearOp::is_hermitian(self.op)
    }
}

fn run_shared(spec: &Spec, seed: u64, seconds: f64, tracer: &Tracer) -> Run {
    let (op, setup_s) = repeat_setup(spec.setup_reps, tracer, || {
        let sector = sector(spec.sites, spec.symmetric);
        let symop = compile(spec.sites, &sector, tracer);
        let basis = {
            let _span = tracer.span("basis.enumerate", None);
            Arc::new(SpinBasis::build(sector))
        };
        Operator::from_parts(symop, basis)
    });
    let dim = op.basis().dim();
    // Fill the operator's lazily built diagonal and scratch before timing.
    let x = probe_vector(dim);
    LinearOp::apply(&op, &x, &mut vec![0.0; dim]);

    let opts = RestartOptions { seed, ..RestartOptions::new(K) };
    let solves = solve_loop(seconds, tracer.enabled(), |i, traced| {
        let t = Instant::now();
        let res = if traced {
            let _span = tracer.span("solve", Some(i));
            thick_restart_lanczos(&TimedOp { op: &op, tracer, solve: i }, &opts)
        } else {
            thick_restart_lanczos(&op, &opts)
        };
        Solve::new(&res, t.elapsed().as_secs_f64(), traced, 0)
    });
    let mut run = Run { dim, setup_s, solves, layers: BTreeMap::new(), replay_exact: true };
    if tracer.enabled() {
        let l = &mut run.layers;
        let spans = tracer.spans();
        l.insert("expr.compile_s", span_median(&spans, "expr.compile"));
        l.insert("basis.enumerate_s", span_median(&spans, "basis.enumerate"));
        l.insert("basis.dim", dim as f64);
        l.insert("basis.memory_bytes", op.basis().memory_bytes() as f64);
        let (matvec_s, matvecs, solve_s) =
            solver_layers(&spans, &run.solves, "core.matvec", dim, l);
        l.insert("core.matvec_s", matvec_s);
        l.insert("core.matvecs", matvecs);
        l.insert("core.matvec_share", matvec_s / solve_s);

        let raw_gen = compile(spec.sites, &sector(spec.sites, false), &Tracer::new(false));
        let (tally, exact) = {
            let _span = tracer.span("replay", None);
            replay::replay_shared(&op, &raw_gen, &x)
        };
        run.replay_exact = exact;
        basis_layers(&tally, spec, l);
        let nnz = tally.offdiag_nnz as f64;
        l.insert("core.offdiag_nnz", nnz);
        l.insert("core.ns_per_entry", matvec_s / matvecs / nnz * 1e9);
        l.insert(
            "core.bytes_per_matvec",
            ls_bench::matvec_traffic_bytes(dim, tally.offdiag_nnz as usize) as f64,
        );
    }
    run
}

/// Solver-side layers averaged over the traced solves: the solver's own
/// time around the operator wrapper's `op_span` spans, and its counters.
/// Returns the mean time and count of `op_span` and the mean solve time.
fn solver_layers(
    spans: &[Span],
    solves: &[Solve],
    op_span: &str,
    dim: usize,
    l: &mut BTreeMap<&'static str, f64>,
) -> (f64, f64, f64) {
    let traced: Vec<(usize, &Solve)> =
        solves.iter().enumerate().filter(|(_, s)| s.traced).collect();
    let n = traced.len() as f64;
    let (mut op_s, mut op_n, mut solve_s, mut self_s) = (0.0, 0.0, 0.0, 0.0);
    for &(i, _) in &traced {
        let op = trace::totals(spans, op_span, Some(i));
        let solve = trace::totals(spans, "solve", Some(i));
        op_s += op.total_s / n;
        op_n += op.count as f64 / n;
        solve_s += solve.total_s / n;
        self_s += solve.self_s / n;
    }
    l.insert("eigen.self_s", self_s);
    l.insert("eigen.self_share", self_s / solve_s);
    let last = traced.last().expect("a traced run has a traced solve").1;
    l.insert("eigen.matvecs_to_tol", last.matvecs as f64);
    l.insert("eigen.peak_vectors", last.peak_vectors as f64);
    l.insert("eigen.krylov_bytes", (last.peak_vectors * dim * 8) as f64);
    l.insert("eigen.rollbacks", last.rollbacks as f64);
    (op_s, op_n, solve_s)
}

/// The replayed phases `spec`'s product runs.
fn basis_layers(t: &Tally, spec: &Spec, l: &mut BTreeMap<&'static str, f64>) {
    let secs = |ns: u64| ns as f64 * 1e-9;
    let per = |ns: u64, n: u64| ns as f64 / n as f64;
    l.insert("basis.rowgen_s", secs(t.rowgen_ns));
    l.insert("basis.rowgen_entries", t.rowgen_entries as f64);
    l.insert("basis.rank_s", secs(t.rank_ns));
    l.insert("basis.rank_ns_per_lookup", per(t.rank_ns, t.rank_lookups));
    if spec.distributed {
        return;
    }
    l.insert("basis.accumulate_s", secs(t.accumulate_ns));
    if spec.symmetric {
        l.insert("basis.state_info_s", secs(t.state_info_ns));
        l.insert("basis.state_info_ns_per_state", per(t.state_info_ns, t.state_info_states));
        l.insert("basis.offdiag_block_s", secs(t.offdiag_block_ns));
    } else {
        l.insert("basis.rowgen_rank_s", secs(t.rowgen_rank_ns));
    }
}

// ---------------------------------------------------------------------------
// Distributed
// ---------------------------------------------------------------------------

/// Spans every product of the wrapped `DistOp` as `dist.matvec`.
struct TimedDistOp<'a> {
    inner: DistOp<'a, f64>,
    tracer: &'a Tracer,
    solve: usize,
}

impl KrylovOp<DistVec<f64>> for TimedDistOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn new_vec(&self) -> DistVec<f64> {
        self.inner.new_vec()
    }

    fn apply(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) {
        let _span = self.tracer.span("dist.matvec", Some(self.solve));
        self.inner.apply(x, y);
    }

    fn apply_dot(&self, x: &DistVec<f64>, y: &mut DistVec<f64>) -> f64 {
        let _span = self.tracer.span("dist.matvec", Some(self.solve));
        self.inner.apply_dot(x, y)
    }

    fn is_hermitian(&self) -> bool {
        self.inner.is_hermitian()
    }

    fn recover(&self) {
        self.inner.recover();
    }
}

fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        puts: after.puts - before.puts,
        put_bytes: after.put_bytes - before.put_bytes,
        gets: after.gets - before.gets,
        get_bytes: after.get_bytes - before.get_bytes,
        local_ops: after.local_ops - before.local_ops,
        local_bytes: after.local_bytes - before.local_bytes,
        remote_atomics: after.remote_atomics - before.remote_atomics,
        flag_messages: after.flag_messages - before.flag_messages,
        barriers: after.barriers - before.barriers,
        size_histogram: after
            .size_histogram
            .iter()
            .zip(&before.size_histogram)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

fn run_dist(spec: &Spec, seed: u64, seconds: f64, tracer: &Tracer, stem: &Path) -> Run {
    let cluster = Cluster::new(ClusterSpec::new(LOCALES, 1));
    let ((symop, basis), setup_s) = repeat_setup(spec.setup_reps, tracer, || {
        let sector = sector(spec.sites, spec.symmetric);
        let symop = compile(spec.sites, &sector, tracer);
        let basis = {
            let _span = tracer.span("dist.enumerate", None);
            enumerate_dist(&cluster, &sector, CHUNKS_PER_LOCALE)
        };
        (symop, basis)
    });
    let dim = basis.dim() as usize;
    let ckpt = stem.with_extension("ckpt");
    let opts = DistRestartOptions {
        restart: RestartOptions {
            seed,
            checkpoint: Some(CheckpointPolicy {
                every: 1,
                resume: false,
                ..CheckpointPolicy::new(&ckpt)
            }),
            ..RestartOptions::new(K)
        },
        pc: PcOptions::default(),
    };
    let mut deltas: Vec<StatsSnapshot> = Vec::new();
    let solves = solve_loop(seconds, tracer.enabled(), |i, traced| {
        let _ = remove_checkpoint(&ckpt);
        let before = cluster.stats_total();
        let t = Instant::now();
        let res = if traced {
            let _span = tracer.span("solve", Some(i));
            let op = TimedDistOp {
                inner: DistOp::new(&cluster, &symop, &basis, opts.pc),
                tracer,
                solve: i,
            };
            thick_restart_lanczos_in(&op, &opts.restart)
        } else {
            dist_thick_restart_lanczos(&cluster, &symop, &basis, &opts)
        };
        let secs = t.elapsed().as_secs_f64();
        let delta = stats_delta(&cluster.stats_total(), &before);
        let solve = Solve::new(&res, secs, traced, delta.get_bytes);
        deltas.push(delta);
        solve
    });
    let mut run = Run { dim, setup_s, solves, layers: BTreeMap::new(), replay_exact: true };
    if tracer.enabled() {
        dist_layers(spec, &cluster, &symop, &basis, &ckpt, stem, tracer, &deltas, &mut run);
    }
    let _ = remove_checkpoint(&ckpt);
    run
}

#[allow(clippy::too_many_arguments)]
fn dist_layers(
    spec: &Spec,
    cluster: &Cluster,
    symop: &SymmetrizedOperator<f64>,
    basis: &DistSpinBasis,
    ckpt: &Path,
    stem: &Path,
    tracer: &Tracer,
    deltas: &[StatsSnapshot],
    run: &mut Run,
) {
    let dim = run.dim;
    let l = &mut run.layers;
    let spans = tracer.spans();
    l.insert("expr.compile_s", span_median(&spans, "expr.compile"));
    l.insert("dist.enumerate_s", span_median(&spans, "dist.enumerate"));
    l.insert("basis.dim", dim as f64);
    l.insert("basis.memory_bytes", basis.memory_bytes() as f64);
    let (matvec_s, matvecs, _) = solver_layers(&spans, &run.solves, "dist.matvec", dim, l);
    l.insert("dist.matvec_s", matvec_s);
    l.insert("dist.matvecs", matvecs);
    l.insert("dist.self_s", l["eigen.self_s"]);

    // Communication per product over the traced solves.
    let (mut put_bytes, mut puts, mut flags, mut barriers, mut atomics, mut gets) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut products = 0usize;
    for (s, d) in run.solves.iter().zip(deltas).filter(|(s, _)| s.traced) {
        put_bytes += d.put_bytes;
        puts += d.puts;
        flags += d.flag_messages;
        barriers += d.barriers;
        atomics += d.remote_atomics;
        gets += d.get_bytes;
        products += s.matvecs;
    }
    let per = |v: u64| v as f64 / products as f64;
    l.insert("runtime.put_bytes_per_matvec", per(put_bytes));
    l.insert("runtime.puts_per_matvec", per(puts));
    l.insert("runtime.flag_msgs_per_matvec", per(flags));
    l.insert("runtime.barriers_per_matvec", per(barriers));
    l.insert("runtime.remote_atomics_per_matvec", per(atomics));
    l.insert("runtime.get_bytes", gets as f64);

    // Checkpoint I/O, replayed on the last solve's final checkpoint: one
    // load and one write of the same state. The solver wrote it once per
    // completed restart cycle.
    let op = DistOp::new(cluster, symop, basis, PcOptions::default());
    let t = Instant::now();
    let state = {
        let _span = tracer.span("eigen.ckpt_load", None);
        load_checkpoint::<DistVec<f64>, _>(ckpt, &op)
            .expect("the solve left a valid checkpoint")
    };
    l.insert("eigen.ckpt_load_s", t.elapsed().as_secs_f64());
    l.insert("eigen.ckpt_writes", state.restarts as f64);
    l.insert("eigen.ckpt_bytes", std::fs::metadata(ckpt).map_or(f64::NAN, |m| m.len() as f64));
    let copy = stem.with_extension("ckpt-copy");
    let t = Instant::now();
    {
        let _span = tracer.span("eigen.ckpt_write", None);
        save_checkpoint(&copy, &state).expect("checkpoint write");
    }
    l.insert("eigen.ckpt_write_s", t.elapsed().as_secs_f64());
    let _ = remove_checkpoint(&copy);

    // The same sector's product in shared memory (BatchedPull, same
    // thread pool) against the PcEngine product of the solve.
    let shared = Operator::from_parts(
        symop.clone(),
        Arc::new(SpinBasis::build(sector(spec.sites, spec.symmetric))),
    );
    let x = probe_vector(dim);
    let mut y = vec![0.0; dim];
    LinearOp::apply(&shared, &x, &mut y);
    let mut times = Vec::with_capacity(REFERENCE_PRODUCTS);
    for _ in 0..REFERENCE_PRODUCTS {
        let t = Instant::now();
        LinearOp::apply(&shared, &x, &mut y);
        times.push(t.elapsed().as_secs_f64());
    }
    l.insert("dist.vs_shared", matvec_s / matvecs / median(&times));

    let (tally, exact) = {
        let _span = tracer.span("replay", None);
        replay::replay_dist(symop, basis)
    };
    run.replay_exact = exact;
    basis_layers(&tally, spec, l);
}
