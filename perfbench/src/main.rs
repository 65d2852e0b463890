//! The hodlr-rs benchmark: one command that takes a workload name and a
//! seed, drives the public API, checks the results and prints every
//! metric by name with its unit.  See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <laplace-2d|helmholtz-2d|gp-3d|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run.  The last line of
//! standard output is one JSON object; the exit code is non-zero when a
//! correctness gate fails.

mod probes;
mod report;
mod serve;
mod solver;
mod stats;
mod trace;

use report::{Gates, Metrics, Tally};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads of the build and the batched backend: every core.
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut gates = Gates::default();
    let mut tally = Tally::default();
    let tracer = trace::Tracer::new(args.trace);
    let solver = match args.workload.as_str() {
        "laplace-2d" => Some(solver::Workload::Laplace),
        "helmholtz-2d" => Some(solver::Workload::Helmholtz),
        "gp-3d" => Some(solver::Workload::Gp),
        "serve-mixed" => None,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} threads {} trace {}",
        args.workload, args.seed, args.threads, args.trace
    );
    match solver {
        Some(w) => solver::run(w, &args, &tracer, &mut metrics, &mut gates, &mut tally),
        None => serve::run(&args, &tracer, &mut metrics, &mut gates, &mut tally),
    }
    if args.trace {
        absent(&args.workload, &mut metrics);
        // Spans are kept in memory while measuring and written out at exit.
        let path = format!("perfbench/traces/{}-seed{}.json", args.workload, args.seed);
        if let Err(e) = tracer.write_json(std::path::Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    report::print(&metrics, &gates, tally);
    if !gates.passed() || tally.failed > 0 || metrics.0.is_empty() {
        std::process::exit(1);
    }
}

/// Per-layer metrics of layers a workload does not exercise are reported
/// as 0, with the reason on standard error.
fn absent(workload: &str, m: &mut Metrics) {
    let mut names = Vec::new();
    for &(name, unit) in report::PER_LAYER {
        if m.get(name).is_none() {
            names.push(name);
            m.push(name, 0.0, unit, 0);
        }
    }
    if !names.is_empty() {
        eprintln!(
            "perfbench: absent on {workload}, whose run does no work in these layers: {}",
            names.join(", ")
        );
    }
}
