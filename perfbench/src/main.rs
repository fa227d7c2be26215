//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line, notes, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::drive::{run, Opts};
use perfbench::gen::{Inputs, Kind};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ospf-churn|bgp-prefs|pod-maintenance> --seed <n> \
         --seconds <s> --trace <0|1> [--work-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".perfbench");
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let k = kind.default_k();

    let inputs = match Inputs::generate(kind, k, seed) {
        Ok(i) => i,
        Err(e) => return usage(&format!("input generation failed: {e}")),
    };
    println!(
        "# workload={} k={k} seed={seed} trace={} nproc={} workers={} backend={:?} \
         devices={} policies={} stream={} fingerprint={:016x}",
        kind.name(),
        trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rc_par::threads(),
        rc_bdd::default_backend(),
        inputs.configs.len(),
        inputs.policies.len(),
        inputs.submissions.len(),
        inputs.fingerprint(),
    );
    let opts = Opts {
        seconds,
        trace,
        work_dir: work_dir.join(format!("{}-{}", kind.name(), std::process::id())),
        span_dir: work_dir.clone(),
    };
    let outcome = run(&inputs, &opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match outcome {
        Ok(o) => {
            for note in &o.notes {
                println!("# {note}");
            }
            println!(
                "{}",
                o.metrics.result_line(o.correct, o.attempted, o.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
