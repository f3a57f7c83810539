//! `greta_loc`: count the non-blank, non-comment lines outside
//! `#[cfg(test)]` / `#[test]` items, per first-party crate and per file of
//! `crates/core/src` — the figure a "less code" PR quotes for parent and
//! change, so nobody counts by hand.
//!
//! ```text
//! cargo run --release -p greta-analysis --bin greta_loc               # this tree
//! cargo run --release -p greta-analysis --bin greta_loc -- --root X   # another tree
//! ```

#![forbid(unsafe_code)]

use greta_analysis::workspace::workspace_loc;
use std::path::PathBuf;
use std::process::ExitCode;

/// The crate broken down by file.
const CORE_SRC: &str = "crates/core/src/";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: greta_loc [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // Run from a crate dir (cargo run sets cwd to the invocation dir):
    // walk up to the workspace root if the scan roots aren't here.
    if !root.join("crates").is_dir() {
        for up in ["..", "../.."] {
            if root.join(up).join("crates").is_dir() {
                root = root.join(up);
                break;
            }
        }
    }
    let files = match workspace_loc(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("greta_loc: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("non-blank non-comment lines outside #[cfg(test)] / #[test] items");
    let mut crates: Vec<(&str, usize)> = Vec::new();
    for (rel, lines) in &files {
        let name = rel.split('/').nth(1).unwrap_or(rel);
        match crates.last_mut() {
            Some((last, sum)) if *last == name => *sum += lines,
            _ => crates.push((name, *lines)),
        }
    }
    for (name, lines) in crates {
        println!("{lines:>7}  crate {name}");
    }
    let core = files.iter().filter(|(rel, _)| rel.starts_with(CORE_SRC));
    for (rel, lines) in core.clone() {
        println!("{lines:>7}  {rel}");
    }
    let total: usize = core.map(|(_, lines)| lines).sum();
    println!("{total:>7}  {CORE_SRC} total");
    ExitCode::SUCCESS
}
