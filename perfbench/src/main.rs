//! Time-to-eigenvalues benchmark: full thick-restart eigensolves of the
//! Heisenberg ring on three workloads, with a separate traced run that
//! attributes the time to the library's layers. See `README.md` for the
//! workloads, the metrics and the command.
//!
//! ```text
//! perfbench --workload <u1_22|sym_24|dist2_u1_20_ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it is the full report (machine block, every solve, the layer table),
//! also written to `.bench_out/`.

mod json;
mod machine;
mod replay;
mod trace;
mod workloads;

use json::Obj;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Solve, Spec, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Where checkpoints, span dumps and reports go (relative to the working
/// directory, which is the root of the checkout).
const OUT_DIR: &str = ".bench_out";

/// Relative tolerance of the eigenvalue check against the references.
const REFERENCE_RTOL: f64 = 1e-8;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// SplitMix64: the solver seed is derived from the workload seed, so the
/// program receives only the derived value.
fn derive_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` below eleven samples.
fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Marks a solve failed when it misses a reference eigenvalue, did not
/// converge, rolled back, read remote memory, or (on a deterministic
/// workload) disagrees with the run's first solve, which used the same
/// seed.
fn check(spec: &Spec, s: &mut Solve, first: Option<&Solve>) {
    let mut why = Vec::new();
    if !s.converged {
        why.push("not converged".to_string());
    }
    for (i, (&got, &want)) in s.eigenvalues.iter().zip(&spec.reference).enumerate() {
        if (got - want).abs() > REFERENCE_RTOL * want.abs() {
            why.push(format!("eigenvalue {i} = {got:.12} misses the reference {want:.12}"));
        }
    }
    if s.eigenvalues.len() != spec.reference.len() {
        why.push(format!("{} eigenvalues returned", s.eigenvalues.len()));
    }
    if s.rollbacks != 0 {
        why.push(format!("{} rollbacks", s.rollbacks));
    }
    if s.get_bytes != 0 {
        why.push(format!("{} bytes of remote gets", s.get_bytes));
    }
    if let (Some(f), false) = (first, spec.distributed) {
        if f.eigenvalue_bits() != s.eigenvalue_bits() || f.matvecs != s.matvecs {
            why.push("same seed, different eigenvalue bits or matvec count".to_string());
        }
    }
    s.failure = (!why.is_empty()).then(|| why.join("; "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let spec = args.spec;
    let tracer = Tracer::new(args.trace);
    let solve_seed = derive_seed(args.seed);
    let tag = format!("{}-seed{}-trace{}", spec.name, args.seed, args.trace as u8);

    let steal0 = machine::steal_jiffies();
    let mut run = workloads::run(spec, solve_seed, args.seconds, &tracer, &out_dir.join(&tag));
    let first = run.solves.first().cloned();
    for (i, s) in run.solves.iter_mut().enumerate() {
        check(spec, s, if i == 0 { None } else { first.as_ref() });
    }
    let untraced: Vec<f64> = run.solves.iter().filter(|s| !s.traced).map(|s| s.secs).collect();
    let traced: Vec<f64> = run.solves.iter().filter(|s| s.traced).map(|s| s.secs).collect();
    let attempted = run.solves.len();
    let failed = run.solves.iter().filter(|s| s.failure.is_some()).count();
    // Measured after the solves so the triad arrays do not count toward
    // the workload's peak.
    let peak_rss_mb = machine::peak_rss_mb();
    let steal1 = machine::steal_jiffies();
    let steal_frac = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let triad = machine::stream_triad();
    let llc = machine::llc_bytes();

    if args.trace {
        let l = &mut run.layers;
        let solve_untraced = median(&untraced);
        let solve_traced = median(&traced);
        l.insert("trace.solve_s", solve_traced);
        l.insert("trace.overhead_s", solve_traced - solve_untraced);
        l.insert("trace.overhead_frac", (solve_traced - solve_untraced) / solve_untraced);
        if let Some(&bytes) = l.get("core.bytes_per_matvec") {
            let matvec_s = l["core.matvec_s"] / l["core.matvecs"];
            let gbps = bytes / matvec_s / 1e9;
            l.insert("core.gbps", gbps);
            l.insert("core.roofline_frac", gbps / triad.gbps);
        }
        if let Err(e) = tracer.write_json(&out_dir.join(format!("{tag}-spans.json"))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }

    let mut machine_block = Obj::new();
    machine_block
        .int("nproc", machine::nproc() as u64)
        .int("threads", rayon::current_num_threads() as u64)
        .str("simd_level", &machine::simd_level())
        .num("stream_triad_gbps", triad.gbps)
        .int("stream_array_bytes", triad.array_bytes)
        .int("llc_bytes", llc)
        .num("steal_frac", steal_frac)
        .str("byte_counts", "computed from array sizes and entry counts, not measured");

    let mut solves_json = Vec::new();
    for s in &run.solves {
        let mut o = Obj::new();
        o.num("solve_s", s.secs)
            .bool("traced", s.traced)
            .int("matvecs", s.matvecs as u64)
            .nums("eigenvalues", &s.eigenvalues)
            .strs("eigenvalue_bits", &s.eigenvalue_bits())
            .bool("converged", s.converged)
            .int("rollbacks", s.rollbacks)
            .int("peak_vectors", s.peak_vectors as u64)
            .int("get_bytes", s.get_bytes);
        match &s.failure {
            Some(f) => o.str("failure", f),
            None => o.raw("failure", "null".into()),
        };
        solves_json.push(o.render());
    }
    let mut report = Obj::new();
    report
        .str("workload", spec.name)
        .int("seed", args.seed)
        .int("solver_seed", solve_seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .raw("machine", machine_block.render())
        .int("dim", run.dim as u64)
        .nums("setup_s_samples", &run.setup_s)
        .num("solve_s_median", median(&untraced))
        .int("solve_samples", untraced.len() as u64);
    match tail_percentile(&untraced) {
        Some((p, v)) => report.num("solve_s_tail_percentile", p).num("solve_s_tail", v),
        None => report
            .raw("solve_s_tail_percentile", "null".into())
            .raw("solve_s_tail", "null".into()),
    };
    report
        .num("peak_rss_mb", peak_rss_mb)
        .num("fail_frac", failed as f64 / attempted as f64)
        .raw("solves", format!("[{}]", solves_json.join(", ")));
    if args.trace {
        let mut layers = Obj::new();
        for &(name, unit) in workloads::PER_LAYER {
            let mut m = Obj::new();
            match run.layers.get(name) {
                Some(&v) => m.num("value", v),
                None => m.raw("value", "null".into()),
            };
            m.str("unit", unit);
            layers.raw(name, m.render());
        }
        report.raw("layers", layers.render());
    }
    let report = report.render();
    if let Err(e) = std::fs::write(out_dir.join(format!("{tag}.json")), &report) {
        eprintln!("perfbench: cannot write the report: {e}");
    }

    // The result line: end-to-end metrics untraced, per-layer traced. A
    // layer the workload does not run reports 0.
    let mut metrics = Obj::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        let mut m = Obj::new();
        m.num("value", value).str("unit", unit);
        metrics.raw(name, m.render());
    };
    if args.trace {
        for &(name, unit) in workloads::PER_LAYER {
            metric(name, run.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        metric("solve_s", median(&untraced), "s");
        metric("setup_s", median(&run.setup_s), "s");
        metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    let mut result = Obj::new();
    result
        .bool("correct", failed == 0 && run.replay_exact)
        .int("attempted", attempted as u64)
        .int("failed", failed as u64)
        .raw("metrics", metrics.render());
    println!("{report}");
    println!("{}", result.render());
    ExitCode::SUCCESS
}
