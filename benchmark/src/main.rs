//! The repo benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload in this
//!   process; the last line of standard output is the result object the
//!   driver reads.
//! * `run [--workload W] [--seed N] [--seconds S] [--traced] [--smoke]
//!   [--runs K] [--set NAME]` — every (selected) workload, each run in its
//!   own child process; prints `workload metric value unit` and writes
//!   `benchmark/out/<set>.json`. This is the default with no arguments.
//!   `--smoke` runs a single round of each: all five in under 30 s.
//! * `compare A.json B.json` — two set files side by side, against the
//!   bounds.
//!
//! `README.md` defines every metric and workload.

mod alloc;
mod check;
mod cpu;
mod inproc;
mod json;
mod ladder;
mod metrics;
mod pacer;
mod phase;
mod run;
mod served;
mod sets;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where set files, trace files and the served workload's WAL go: inside
/// this package, so a run writes nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Length of one run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 14.0;

#[derive(Debug, Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub smoke: bool,
    pub corrupt_row: bool,
    pub runs: Option<usize>,
    pub set: Option<String>,
    pub positional: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let s = number(value()?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: must be in (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--corrupt-row" => args.corrupt_row = true,
            "--runs" => {
                let n = number(value()?)? as usize;
                if n == 0 {
                    return Err("--runs must be at least 1".into());
                }
                args.runs = Some(n);
            }
            "--set" => args.set = Some(value()?.clone()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            _ => args.positional.push(flag.clone()),
        }
    }
    Ok(args)
}

/// One workload in this process: metric lines, notes on standard error, the
/// result object last.
fn single(args: &Args, started: Instant) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let options = run::Options {
        seed: args.seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        traced: args.traced,
        smoke: args.smoke,
        corrupt_row: args.corrupt_row,
    };
    let outcome = run::run(w, &options, started)?;
    eprintln!("# {}: {}", w.name, w.why);
    for note in &outcome.notes {
        eprintln!("# {} {note}", w.name);
    }
    let unit_of = |name: &str| {
        metrics::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| metrics::per_layer(name).map(|m| m.unit))
            .unwrap_or("")
    };
    let mut fields = Vec::new();
    for r in &outcome.readings {
        println!("{} {} {} {}", w.name, r.name, r.value, unit_of(r.name));
        fields.push((
            r.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(r.value)),
                ("unit".into(), Json::Str(unit_of(r.name).into())),
            ]),
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            (
                "attempted".into(),
                Json::Num(outcome.attempted.max(1) as f64)
            ),
            ("failed".into(), Json::Num(outcome.failed as f64)),
            ("metrics".into(), Json::Obj(fields)),
        ])
        .render()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("compare") => ("compare", &argv[1..]),
        None => ("run", &argv[..]),
        Some(_) => ("single", &argv[..]),
    };
    let result = parse(rest).and_then(|args| match command {
        "run" => sets::run(&args),
        "compare" => sets::compare(&args),
        _ => single(&args, started),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
