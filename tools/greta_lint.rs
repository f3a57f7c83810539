//! `greta-lint` CLI (ISSUE 10 tentpole): run the four workspace
//! invariant passes and exit non-zero on any unsuppressed finding.
//!
//! ```text
//! cargo run --release -p greta-analysis --bin greta_lint              # lint the workspace
//! cargo run --release -p greta-analysis --bin greta_lint -- --root X  # lint another tree
//! cargo run --release -p greta-analysis --bin greta_lint -- --self-test
//! cargo run --release -p greta-analysis --bin greta_lint -- --loc      # count, don't lint
//! ```
//!
//! `--loc` prints the non-blank, non-comment lines outside
//! `#[cfg(test)]` / `#[test]` items, per first-party crate and per file
//! of `crates/core/src` — the figure a "less code" PR quotes for parent
//! and change, so nobody counts by hand.
//!
//! `--self-test` is CI's red path: it injects a `clone()` into a live
//! `lint:hot-path` region of `executor/route.rs`, another into the DP
//! loop's region in `graph.rs`, and an `unwrap()` into non-test code of
//! `session.rs` (in memory — the tree is never touched), then asserts
//! the lint reports each injected violation on top of a clean baseline. The CI job runs the normal lint
//! (must be green) *and* the self-test (must stay red-capable): a lint
//! that stopped seeing violations fails the job even though the tree is
//! clean.

#![forbid(unsafe_code)]

use greta_analysis::workspace::{lint_source, lint_workspace, workspace_files, workspace_loc};
use greta_analysis::{Finding, Pass};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut self_test = false;
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
            "--self-test" => self_test = true,
            "--loc" => loc = true,
            "--help" | "-h" => {
                eprintln!("usage: greta_lint [--root <dir>] [--self-test | --loc]");
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
    if self_test {
        return run_self_test(&root);
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
        println!("greta-lint: {files} files clean (hot-path, panic, codec, lock)");
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

/// One red-path case: file to mutate, how to inject the violation, the
/// pass that must flag it, and a human label for the verdict line.
type SelfTestCase = (&'static str, fn(&str) -> Option<String>, Pass, &'static str);

/// Inject one violation per acceptance criterion and require the lint
/// to catch each — proof the passes still have teeth.
fn run_self_test(root: &Path) -> ExitCode {
    let cases: &[SelfTestCase] = &[
        (
            "crates/core/src/executor/route.rs",
            inject_hot_path_clone,
            Pass::HotPath,
            "clone() in a hot-path region",
        ),
        (
            "crates/core/src/graph.rs",
            inject_hot_path_clone,
            Pass::HotPath,
            "clone() in the DP loop's hot-path region",
        ),
        (
            "crates/server/src/session.rs",
            inject_unwrap,
            Pass::Panic,
            "unwrap() in session.rs non-test code",
        ),
    ];
    let mut failed = false;
    for (rel, inject, pass, label) in cases {
        let path = root.join(rel);
        let content = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("self-test: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = lint_source(rel, &content);
        if !baseline.is_empty() {
            eprintln!("self-test: {rel} is not clean before injection:");
            for f in &baseline {
                eprintln!("  {f}");
            }
            failed = true;
            continue;
        }
        let Some(mutated) = inject(&content) else {
            eprintln!("self-test: found no injection site in {rel} ({label})");
            failed = true;
            continue;
        };
        let found = lint_source(rel, &mutated);
        let hit = found.iter().filter(|f| f.pass == *pass).count();
        if hit == 0 {
            eprintln!("self-test: FAILED — injected {label} was NOT reported");
            failed = true;
        } else {
            println!(
                "self-test: injected {label} -> {} finding(s): OK",
                found.len()
            );
            debug_print(&found);
        }
    }
    if failed {
        eprintln!("self-test: the lint has lost its teeth; failing the job");
        ExitCode::FAILURE
    } else {
        println!("self-test: all three injected violations caught");
        ExitCode::SUCCESS
    }
}

fn debug_print(found: &[Finding]) {
    for f in found {
        println!("  {f}");
    }
}

/// Insert `let _injected = self.events_per_shard.clone();` at the top of the
/// first function following a `// lint:hot-path` marker.
fn inject_hot_path_clone(content: &str) -> Option<String> {
    let marker = content.find("// lint:hot-path")?;
    // First `{` after the marker opens the annotated fn's body (the
    // marker directly precedes the fn item by grammar).
    let body_open = content[marker..].find('{')? + marker;
    let mut out = String::with_capacity(content.len() + 48);
    out.push_str(&content[..body_open + 1]);
    out.push_str("\n        let _injected = self.events_per_shard.clone();\n");
    out.push_str(&content[body_open + 1..]);
    Some(out)
}

/// Insert a statement with `.unwrap()` at the top of `fn ingest` (known
/// non-test code in `session.rs`).
fn inject_unwrap(content: &str) -> Option<String> {
    let site = content.find("fn ingest(")?;
    let body_open = content[site..].find('{')? + site;
    let mut out = String::with_capacity(content.len() + 48);
    out.push_str(&content[..body_open + 1]);
    out.push_str("\n        let _injected = events.first().unwrap();\n");
    out.push_str(&content[body_open + 1..]);
    Some(out)
}
