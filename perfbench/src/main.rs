//! The ORTHRUS benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all four, one after another, in this process)
//! against the engine crates' public API and prints a header, the
//! correctness checks and the metrics as text, then one JSON result line
//! last. `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` reports the per-layer metrics from a traced run. A failed
//! correctness check makes the exit code 1.
//!
//! Files (the partitioned workload's command log, span dumps) go under
//! `.bench_build/perfbench/` in the working directory.

mod load;
mod os;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use load::Opts;
use report::{Report, END_TO_END, PER_LAYER};
use workloads::{HOT_RECORDS, UNIFORM_RECORDS, WORKLOADS, XPART_RECORDS};

const USAGE: &str = "usage: perfbench --workload <hot_closed|uniform_wire|xpart|uniform_open|all> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Where the benchmark writes: inside the working directory, next to the
/// build output.
const OUT_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = args.opts;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("create the benchmark's run directory");

    println!(
        "# perfbench seed={} seconds={} trace={} rev={} nproc={} kernel={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        os::git_revision(),
        os::host_cores(),
        os::kernel_version(),
    );
    println!(
        "# tables: hot_closed {HOT_RECORDS} x {} B; uniform_wire, uniform_open {UNIFORM_RECORDS} x {} B; \
         xpart {} partitions x {XPART_RECORDS} x {} B",
        load::RECORD_SIZE,
        load::RECORD_SIZE,
        2,
        load::RECORD_SIZE
    );

    let mut reports: Vec<(&str, Report)> = Vec::new();
    for name in names {
        let report = workloads::run(name, &opts, &run_dir);
        println!("## {name}");
        print!("{}", report.human(catalogue));
        if opts.trace {
            write_spans(name, &opts, &report);
        }
        reports.push((name, report));
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let correct = reports.iter().all(|(_, r)| r.correct());
    let line = match reports.as_slice() {
        [(_, only)] => only.json(catalogue),
        many => combined_json(many, catalogue),
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_spans(name: &str, opts: &Opts, report: &Report) {
    let path = Path::new(OUT_DIR).join(format!("spans-{name}-seed{}.tsv", opts.seed));
    match report.spans.as_ref().map(|t| t.write(&path)) {
        Some(Ok(())) => println!("# spans written to {}", path.display()),
        Some(Err(e)) => eprintln!("cannot write spans to {}: {e}", path.display()),
        None => {}
    }
}

/// The result line of a run over every workload: metric names prefixed
/// with the workload's.
fn combined_json(reports: &[(&str, Report)], catalogue: &[(&str, &str)]) -> String {
    let correct = reports.iter().all(|(_, r)| r.correct());
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|(name, r)| {
            catalogue.iter().map(move |(metric, unit)| {
                let v = r.get(metric);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}.{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
