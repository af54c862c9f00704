//! Command line of the serve-path benchmark.
//!
//! ```text
//! perfbench --server PATH --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --server PATH --work-dir DIR --smoke
//! ```
//!
//! Usually started through `run.sh`, which builds `qmatch` and this
//! binary first. The last stdout line is the JSON result.

use perfbench::runner::{self, Config, Outcome};
use perfbench::server::Launcher;
use perfbench::workload::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --server PATH --work-dir DIR \
(--workload match-protein|match-deep|topk-1k|put-evolve --seed N --seconds S --trace 0|1 | --smoke)";

/// Setups per run (`setup_s` reports their median). The setups of
/// match-protein (a cold 867k-pair label cache) and topk-1k (a
/// 1000-schema registry) take seconds, so they repeat fewer times.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::MatchProtein | Workload::Topk1k => 3,
        Workload::MatchDeep | Workload::PutEvolve => 5,
    }
}

struct Args {
    server: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        server: None,
        work_dir: None,
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--server" => out.server = Some(PathBuf::from(&value)),
            "--work-dir" => out.work_dir = Some(PathBuf::from(&value)),
            "--workload" => out.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Prints the notes, the metric table and, last, the JSON result line.
fn report(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for e in &outcome.errors {
        println!("# FAILED: {e}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (Some(server), Some(work_dir)) = (args.server, args.work_dir) else {
        eprintln!("perfbench: --server and --work-dir are required\n{USAGE}");
        return ExitCode::from(2);
    };
    if !server.is_file() {
        eprintln!("perfbench: server binary {} not found", server.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let launcher = Launcher::Binary(server);
    if args.smoke {
        return match runner::smoke(&launcher, &work_dir) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (args.workload, args.seed, args.seconds, args.trace)
    else {
        eprintln!("perfbench: --workload, --seed, --seconds and --trace are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        launcher,
        work_dir,
        scale: Scale::FULL,
        setup_repeats: setup_repeats(workload),
        corrupt_reference: false,
    };
    match runner::run(&cfg) {
        Ok(outcome) => {
            report(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
