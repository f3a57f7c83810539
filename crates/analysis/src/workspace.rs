//! Workspace scan: which files exist, and the per-file line counts the
//! `greta_loc` binary prints.

use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// First-party directories scanned (vendored crates.io stand-ins under
/// `vendor/` are not first-party code).
const SCAN_ROOTS: &[&str] = &["crates", "src", "tools", "examples", "tests"];

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

/// [`SourceFile::code_lines`] of every first-party file under `root`
/// that is a crate's own source (`crates/<name>/src/`), sorted by path.
pub fn workspace_loc(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for rel in workspace_files(root)? {
        let in_src = rel.strip_prefix("crates/").and_then(|r| r.split_once('/'));
        if in_src.is_some_and(|(_, rest)| rest.starts_with("src/")) {
            let content = fs::read_to_string(root.join(&rel))?;
            let lines = SourceFile::parse(&content).code_lines();
            out.push((rel, lines));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_loc_counts_crate_sources_only() {
        let root = std::env::temp_dir().join(format!("greta-loc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for dir in ["crates/a/src", "crates/a/tests", "tools"] {
            fs::create_dir_all(root.join(dir)).unwrap();
        }
        fs::write(root.join("crates/a/src/lib.rs"), "// c\nfn f() {}\n").unwrap();
        fs::write(root.join("crates/a/tests/t.rs"), "fn t() {}\n").unwrap();
        fs::write(root.join("tools/x.rs"), "fn x() {}\n").unwrap();
        let loc = workspace_loc(&root).unwrap();
        assert_eq!(loc, [("crates/a/src/lib.rs".to_string(), 1)]);
        assert_eq!(workspace_files(&root).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&root);
    }
}
