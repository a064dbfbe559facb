//! The repository benchmark. See NOTES.md for the workloads, the metrics
//! and how to run it; `run.py` builds this binary and passes its flags on.
//!
//! ```text
//! perfbench --workload <idle-79d|mixed-79d> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones and write their
//! spans under `.bench_out/`.

mod check;
mod queries;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &Path, tr: &mut Tracer) -> Result<Run, String> {
    match args.workload.as_str() {
        "idle-79d" => workloads::idle(work, args.seed, args.seconds, tr),
        "mixed-79d" => workloads::mixed(work, args.seed, args.seconds, tr),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let mut tr = Tracer::new(args.trace, Instant::now(), 0);
    let result = run(&args, &work, &mut tr);
    let _ = std::fs::remove_dir_all(&work);
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let e2e = json_metrics(&run.e2e);
    if args.trace {
        let out = PathBuf::from(".bench_out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let spans = out.join(format!("{stem}.spans.jsonl"));
        let written = tr
            .write_jsonl(&spans)
            .and_then(|()| std::fs::write(out.join(format!("{stem}.traced_e2e.json")), &e2e));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", spans.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "perfbench: {} spans in {}",
            tr.spans().len(),
            spans.display()
        );
    }
    let metrics = if args.trace {
        json_metrics(&run.layer)
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.problems.is_empty(),
        run.attempted.max(1),
        run.failed
    );
    ExitCode::SUCCESS
}
