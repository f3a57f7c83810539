//! Paper-style experiment harness.
//!
//! ```text
//! harness [fig14] [fig15] [fig16] [fig17] [complexity] [ablations] [all]
//!         [--scale small|medium|large] [--json PATH]
//! ```
//!
//! Prints one table of exact counters per experiment (GRETA vertices and
//! edges, two-step trends, peak bytes, DNF markers) and optionally writes
//! the rows as JSON. Bad arguments exit with status 2 and the usage line.

use greta_bench::{render_table, rows_to_json, Row, Scale, EXPERIMENTS};
use std::io::Write;

const USAGE: &str = "usage: harness [fig14|fig15|fig16|fig17|complexity|ablations|all]... \
                     [--scale small|medium|large] [--json PATH]";

fn refuse(why: &str) -> ! {
    eprintln!("harness: {why}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale_name = "medium".to_string();
    let mut json_path: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = args
                    .next()
                    .unwrap_or_else(|| refuse("--scale needs a value"))
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| refuse("--json needs a path")))
            }
            e if e == "all" || EXPERIMENTS.contains(&e) => experiments.push(arg),
            other => refuse(&format!("unknown experiment `{other}`")),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = EXPERIMENTS.iter().map(|e| e.to_string()).collect();
    }
    let scale = Scale::by_name(&scale_name)
        .unwrap_or_else(|| refuse(&format!("unknown scale `{scale_name}`")));
    // Open the output before the run, so a bad path fails in a second.
    let mut json_file = json_path.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| refuse(&format!("cannot write {path}: {e}")))
    });
    eprintln!(
        "# GRETA experiment harness — scale `{scale_name}`, budget {} trends",
        scale.budget
    );

    let mut rows: Vec<Row> = Vec::new();
    for exp in &experiments {
        eprintln!("running {exp} …");
        rows.extend(scale.run(exp));
    }
    println!("{}", render_table(&rows));

    if let (Some(file), Some(path)) = (json_file.as_mut(), json_path) {
        if let Err(e) = file.write_all(rows_to_json(&rows).as_bytes()) {
            refuse(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }
}
