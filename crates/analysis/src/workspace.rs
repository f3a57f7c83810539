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
    use crate::lexer::{lex, Token, TokenKind};

    /// `#[deny]` attributes of the hot-path rule in `file`'s non-test code.
    fn hot_path_attrs(file: &SourceFile) -> usize {
        let attr = "#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]";
        let attr: Vec<TokenKind> = lex(attr).into_iter().map(|t| t.kind).collect();
        let at =
            |(i, w): &(usize, &[Token])| !file.in_test(*i) && w.iter().map(|t| &t.kind).eq(&attr);
        file.tokens
            .windows(attr.len())
            .enumerate()
            .filter(at)
            .count()
    }

    /// The number written just before `suffix` in `doc`, line breaks read
    /// as spaces.
    fn stated_count(doc: &str, suffix: &str) -> Option<usize> {
        let doc = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        let before = &doc[..doc.find(suffix)?];
        before.split(' ').next_back()?.parse().ok()
    }

    /// The hot-path rule covers the `greta-core` functions that carry its
    /// `#[deny]`. ARCHITECTURE and the verify notes state how many there
    /// are; this keeps both figures equal to the attributes in the code.
    #[test]
    fn the_stated_hot_path_function_count_is_the_marked_one() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut marked = 0;
        for rel in workspace_files(&root).unwrap() {
            if rel.starts_with("crates/core/src/") {
                let content = fs::read_to_string(root.join(&rel)).unwrap();
                marked += hot_path_attrs(&SourceFile::parse(&content));
            }
        }
        assert!(marked > 0, "no hot-path function found");
        let docs = [
            ("ARCHITECTURE.md", " per-event functions of `greta-core`"),
            (
                ".claude/skills/verify/SKILL.md",
                " `greta-core` functions marked",
            ),
        ];
        for (doc, suffix) in docs {
            let text = fs::read_to_string(root.join(doc)).unwrap();
            assert_eq!(stated_count(&text, suffix), Some(marked), "{doc}");
        }
    }

    /// Lines of `file`'s non-test code that wait by spinning, sleeping or
    /// timing out: a call to `yield_now`, `thread::sleep` or
    /// `recv_timeout` (an import counts, so a bare `sleep(..)` after one
    /// is caught too).
    fn spins_or_sleeps(file: &SourceFile) -> Vec<u32> {
        let t = &file.tokens;
        let at = |i: usize| {
            let k = &t[i].kind;
            let thread_sleep = || {
                i >= 3
                    && t[i - 3].kind.is_ident("thread")
                    && t[i - 2].kind.is_punct(':')
                    && t[i - 1].kind.is_punct(':')
            };
            !file.in_test(i)
                && (k.is_ident("yield_now")
                    || k.is_ident("recv_timeout")
                    || (k.is_ident("sleep") && thread_sleep()))
        };
        (0..t.len()).filter(|&i| at(i)).map(|i| t[i].line).collect()
    }

    /// The executor waits only by blocking on a channel: a shard on its
    /// input, the coordinator on a full shard queue or on the acks of a
    /// cut. A spin, a sleep or a timed wait in `greta-core` would be a
    /// second way to wait, with a latency or CPU cost of its own.
    #[test]
    fn core_waits_only_by_blocking_on_a_channel() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut found = Vec::new();
        for rel in workspace_files(&root).unwrap() {
            if rel.starts_with("crates/core/src/") {
                let content = fs::read_to_string(root.join(&rel)).unwrap();
                let lines = spins_or_sleeps(&SourceFile::parse(&content));
                found.extend(lines.into_iter().map(|l| format!("{rel}:{l}")));
            }
        }
        assert!(found.is_empty(), "spin, sleep or timed wait at {found:?}");
    }

    #[test]
    fn spins_or_sleeps_finds_calls_and_imports_outside_tests() {
        let src = "fn f() { std::thread::yield_now(); }\n\
                   use std::thread::sleep;\n\
                   fn g(rx: R) { rx.recv_timeout(d); }\n\
                   fn h() { tokio_sleep(); self.sleep(); }\n\
                   // std::thread::sleep(d);\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { std::thread::sleep(d); } }\n";
        assert_eq!(spins_or_sleeps(&SourceFile::parse(src)), [1, 2, 3]);
    }

    #[test]
    fn hot_path_attrs_skip_comments_tests_and_other_lints() {
        let src = "#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]\n\
                   fn hot() {}\n\
                   // #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]\n\
                   #[deny(clippy::disallowed_methods)]\n\
                   fn half() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]\n\
                   fn in_test() {}\n\
                   }\n";
        assert_eq!(hot_path_attrs(&SourceFile::parse(src)), 1);
        assert_eq!(
            stated_count("the 43\n per-event fns", " per-event fns"),
            Some(43)
        );
        assert_eq!(stated_count("the per-event fns", " per-event fns"), None);
    }

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
