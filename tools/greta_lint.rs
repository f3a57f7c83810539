//! `greta-lint` CLI: run the two workspace invariant passes (codec
//! symmetry, lock discipline) and exit non-zero on any unsuppressed
//! finding.
//!
//! ```text
//! cargo run --release -p greta-analysis --bin greta_lint              # lint the workspace
//! cargo run --release -p greta-analysis --bin greta_lint -- --root X  # lint another tree
//! cargo run --release -p greta-analysis --bin greta_lint -- --loc      # count, don't lint
//! ```
//!
//! `--loc` prints the non-blank, non-comment lines outside
//! `#[cfg(test)]` / `#[test]` items, per first-party crate and per file
//! of `crates/core/src` — the figure a "less code" PR quotes for parent
//! and change, so nobody counts by hand.
//!
//! The hot-path and panic-freedom rules are clippy lints, configured in
//! `crates/{core,server,durability}/clippy.toml` and switched on by
//! `#[deny]` attributes in the code (see the `greta_analysis` crate
//! docs); `tools/clippy_red_path.sh` is their red path. A hot-path
//! failure is clippy's ``use of a disallowed method `…` `` at the call,
//! whose "lint level is defined here" note names the per-event fn.

#![forbid(unsafe_code)]

use greta_analysis::workspace::{lint_workspace, workspace_files, workspace_loc};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut loc = false;
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
            "--loc" => loc = true,
            "--help" | "-h" => {
                eprintln!("usage: greta_lint [--root <dir>] [--loc]");
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
    if loc {
        return run_loc(&root);
    }
    run_lint(&root)
}

/// The crate `--loc` breaks down by file.
const CORE_SRC: &str = "crates/core/src/";

/// `--loc`: one line per first-party crate, then one per file of
/// `crates/core/src` and their sum.
fn run_loc(root: &Path) -> ExitCode {
    let files = match workspace_loc(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("greta-lint: workspace scan failed: {e}");
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

fn run_lint(root: &Path) -> ExitCode {
    let findings = match lint_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("greta-lint: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let files = workspace_files(root).map(|f| f.len()).unwrap_or(0);
    if findings.is_empty() {
        println!("greta-lint: {files} files clean (codec, lock)");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "greta-lint: {} finding(s) across {files} files",
        findings.len()
    );
    ExitCode::FAILURE
}
