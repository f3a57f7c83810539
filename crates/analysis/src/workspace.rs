//! Workspace scan: which files exist, which passes apply to each, and
//! the one-call entry points the `greta_lint` binary drives.

use crate::passes::{run_all, PassSet};
use crate::report::Finding;
use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// First-party directories scanned (vendored crates.io stand-ins under
/// `vendor/` are exempt — they are held to compile-compatibility, not to
/// GRETA's invariants).
const SCAN_ROOTS: &[&str] = &["crates", "src", "tools", "examples", "tests"];

/// Codec-symmetry scope: every module that defines an on-disk or wire
/// format.
const CODEC_SCOPE: &[&str] = &[
    "crates/types/src/codec.rs",
    "crates/core/src/",
    "crates/durability/src/",
    "crates/server/src/protocol.rs",
];

/// Lock-discipline scope: the server's connection/session plumbing.
const LOCK_SCOPE: &[&str] = &[
    "crates/server/src/server.rs",
    "crates/server/src/session.rs",
];

/// The passes that apply to a repo-relative path.
pub fn passes_for(rel: &str) -> PassSet {
    let hit = |scope: &[&str]| scope.iter().any(|p| rel.starts_with(p));
    PassSet {
        codec: hit(CODEC_SCOPE),
        lock: hit(LOCK_SCOPE),
    }
}

/// All first-party `.rs` files under `root`, repo-relative, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            // `target/` never nests under the scan roots; no excludes
            // needed beyond the root whitelist.
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's content.
pub fn lint_source(rel_path: &str, content: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, content);
    let mut out = Vec::new();
    run_all(&file, passes_for(rel_path), &mut out);
    out
}

/// [`SourceFile::code_lines`] of every first-party file under `root`
/// that is a crate's own source (`crates/<name>/src/`), sorted by path.
pub fn workspace_loc(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for rel in workspace_files(root)? {
        let in_src = rel.strip_prefix("crates/").and_then(|r| r.split_once('/'));
        if in_src.is_some_and(|(_, rest)| rest.starts_with("src/")) {
            let content = fs::read_to_string(root.join(&rel))?;
            let lines = SourceFile::parse(&rel, &content).code_lines();
            out.push((rel, lines));
        }
    }
    Ok(out)
}

/// Lint the whole workspace under `root`. Findings are sorted by path
/// then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let content = fs::read_to_string(root.join(&rel))?;
        findings.extend(lint_source(&rel, &content));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_resolve() {
        assert!(passes_for("crates/server/src/session.rs").lock);
        assert!(!passes_for("crates/server/src/http.rs").lock);
        assert!(passes_for("crates/durability/src/wal.rs").codec);
        assert!(passes_for("crates/core/src/executor/route.rs").codec);
        assert_eq!(passes_for("examples/quickstart.rs"), PassSet::default());
    }

    #[test]
    fn lint_source_end_to_end() {
        let f = lint_source("crates/server/src/session.rs", "fn f() { self.a.lock(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lock-order"));
    }
}
