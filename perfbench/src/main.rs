//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2-small|multigpu-d4|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs it for about
//! `--seconds`, checks every output, and prints one line per metric
//! followed by the JSON result object as the last line of standard
//! output. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the traced mode and reports the per-layer metrics. `perfbench/METRICS.md`
//! defines every metric.

mod batch;
mod inputs;
mod kernels;
mod ledger;
mod multigpu;
mod replay;
mod report;
mod serve;
mod stats;
mod table2;
mod trace;

use report::Report;

const WORKLOADS: [&str; 3] = ["table2-small", "multigpu-d4", "serve-mixed"];

/// Host threads the benchmark may use: one process on a two-core budget.
const MAX_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Keep the spans of a traced run next to the benchmark's scratch files.
pub fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64, rep: &mut Report) {
    let dir = inputs::work_dir();
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path)) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => rep.error(format!("write {}: {e}", path.display())),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Inputs come from the seed alone: no fault plan from the environment.
    // The pool reads GPM_THREADS once, at first use; cap it at the host
    // budget (a smaller value, as the determinism check uses, is kept).
    std::env::remove_var("GPM_FAULTS");
    let threads = std::env::var("GPM_THREADS")
        .ok()
        .and_then(|t| t.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .map_or(MAX_THREADS, |t| t.min(MAX_THREADS));
    std::env::set_var("GPM_THREADS", threads.to_string());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut rep = Report::default();
    match args.workload.as_str() {
        "table2-small" => table2::run(args.seed, args.seconds, args.trace, &mut rep),
        "multigpu-d4" => multigpu::run(args.seed, args.seconds, args.trace, &mut rep),
        _ => serve::run(args.seed, args.seconds, args.trace, &mut rep),
    }
    if args.trace {
        let applies = layer_filter(&args.workload);
        rep.print(&report::per_layer(), |name| !applies(name));
    } else {
        rep.print(&report::end_to_end(), |_| false);
    }
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// Per-layer metrics each workload measures; the rest read 0.
fn layer_filter(workload: &str) -> impl Fn(&str) -> bool + '_ {
    move |name: &str| {
        let prefix = name.split('.').next().unwrap_or("");
        match workload {
            "table2-small" => matches!(
                prefix,
                "gpu" | "phase" | "core" | "overlap" | "mtmetis" | "pool" | "graph" | "trace"
            ),
            "multigpu-d4" => {
                matches!(prefix, "mg" | "overlap" | "pool" | "graph" | "trace")
            }
            _ => {
                matches!(prefix, "serve" | "faults" | "pool" | "trace")
                    || name == "gpu.wall_us_per_launch"
            }
        }
    }
}
