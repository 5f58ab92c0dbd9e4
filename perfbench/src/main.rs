//! Command line of the PDTL benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a table of the run's metrics and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 2 on bad usage or a refused
//! environment, 1 when set-up fails.

use std::process::ExitCode;

use perfbench::stats::{tail_level, MIN_BEYOND};
use perfbench::{env, run, Config, Outcome, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <count-multipass|count-singlepass|cluster-listing|serve-closed|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed arguments.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = env::refuse_overrides() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let work_root = match std::env::current_dir() {
        Ok(d) => d.join(".perfbench"),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut lines = Vec::new();
    let mut total = Outcome::default();
    for &workload in &args.workloads {
        let cfg = Config {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale::Full,
            work_root: work_root.clone(),
        };
        let out = match run(&cfg) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {}: set-up failed: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        println!(
            "== {} (seed {}, {} s, trace {})",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (k, v) in &out.env {
            println!("  env {k}: {v}");
        }
        let tail = tail_level(out.samples).map_or_else(
            || "none".to_string(),
            |pm| format!("p{}", f64::from(pm) / 10.0),
        );
        println!(
            "  ops: {} attempted, {} failed; op_p50_ms over {} untraced samples; \
             highest percentile with {MIN_BEYOND} samples beyond it: {tail}",
            out.attempted, out.failed, out.samples
        );
        print!("{}", out.table(args.trace));
        for note in &out.notes {
            eprintln!("perfbench: {}: {note}", workload.name());
        }
        lines.push(out.result_json(args.trace));
        total.attempted += out.attempted;
        total.failed += out.failed;
    }
    if lines.len() > 1 {
        // One process ran every workload: print each result line, then
        // the combined count as the last line.
        for line in &lines {
            println!("{line}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            total.correct(),
            total.attempted,
            total.failed
        );
    } else if let Some(line) = lines.pop() {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
