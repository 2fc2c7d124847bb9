//! bskel's benchmark: one workload per run, timed end to end and, in a
//! traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Workloads: `pool_echo`, `pool_chaos` (see [`pool`]), `farm_contract`
//! (see [`farm`]) and `tenant_flood` (see [`tenant`]), as listed in
//! BENCHMARK.json, plus `pool_bulk` (64 KiB echo), which runs by name
//! but is not gated: on a 2-vCPU VM its latency and peak memory move
//! 10-25% from run to run. Each drives the library through its public
//! API only.
//!
//! The last line of standard output is one JSON object: the workload's
//! metrics (name, value, unit), its correctness checks, task counts and
//! notes. The process exits 1 if any check fails or the run breaks.
//!
//! An untraced run (`--trace 0`) records no spans: its numbers are the
//! end-to-end ones. A traced run (`--trace 1`) runs the workload twice
//! for half the time each, first untraced and then traced, reports the
//! traced run's per-layer metrics with the throughput cost of tracing
//! (`loadgen.tracing_overhead_pct`), and writes the spans to
//! `<out>/spans-<workload>-s<seed>.jsonl`.

mod farm;
mod loadgen;
mod outcome;
mod pool;
mod probes;
mod stats;
mod tenant;
mod trace;

use outcome::Outcome;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

/// What a workload run is given.
pub struct Ctx {
    /// Seed of the run's inputs.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Span recorder (disabled on untraced runs).
    pub tracer: Arc<Tracer>,
}

/// Pause between the set-ups a workload repeats for `setup_s`. The host
/// lends this VM CPU at a speed that changes every few tens of
/// milliseconds; spreading the set-ups over a second samples many such
/// states instead of one.
pub const SETUP_GAP: Duration = Duration::from_millis(50);

const WORKLOADS: [&str; 5] = [
    "pool_echo",
    "pool_bulk",
    "pool_chaos",
    "farm_contract",
    "tenant_flood",
];

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "pool_echo" => pool::run_fault_free(pool::Kind::Echo, ctx),
        "pool_bulk" => pool::run_fault_free(pool::Kind::Bulk, ctx),
        "pool_chaos" => pool::run_chaos(ctx),
        "farm_contract" => farm::run(ctx),
        "tenant_flood" => tenant::run(ctx),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--out" => args.out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn measure(args: &Args) -> Result<Outcome, String> {
    let ctx = |enabled: bool, seconds: f64| Ctx {
        seed: args.seed,
        seconds,
        tracer: Arc::new(Tracer::new(enabled)),
    };
    if !args.trace {
        return run_workload(&args.workload, &ctx(false, args.seconds));
    }
    let untraced = run_workload(&args.workload, &ctx(false, args.seconds / 2.0))?;
    let traced_ctx = ctx(true, args.seconds / 2.0);
    let mut traced = run_workload(&args.workload, &traced_ctx)?;
    // Open-loop throughput is pinned by the schedule; where a workload
    // also measures saturation, tracing's cost shows there.
    let capacity = |o: &Outcome| {
        o.get("net.saturation_tps")
            .or_else(|| o.get("throughput_tps"))
            .unwrap_or(0.0)
    };
    let (u, t) = (capacity(&untraced), capacity(&traced));
    traced.metric(
        "loadgen.tracing_overhead_pct",
        if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 },
        "%",
    );
    traced.absorb_checks(untraced);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let path = format!("{}/spans-{}-s{}.jsonl", args.out, args.workload, args.seed);
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    traced_ctx
        .tracer
        .write_jsonl(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| format!("{path}: {e}"))?;
    traced.note("spans_file", path);
    Ok(traced)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match measure(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            let mut o = Outcome::default();
            o.check("run_completes", false);
            o.note("error", e);
            o
        }
    };
    out.metric(
        "delivered_ratio",
        out.delivered as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if out.get("rss_peak_mb").is_none() {
        out.metric("rss_peak_mb", outcome::rss_peak_mb(), "MB");
    }
    println!("{}", out.to_json(&args.workload, args.seed, args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
