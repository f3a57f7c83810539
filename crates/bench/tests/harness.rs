//! The `harness` binary's command line: bad arguments exit 2 with the
//! usage line before any experiment runs; good ones print the tables and
//! write the JSON rows.

use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn bad_arguments_exit_2_with_the_usage_line() {
    let missing_dir = tmp("no-such-dir/rows.json");
    let missing_dir = missing_dir.to_str().unwrap();
    for args in [
        &["fig18"][..],
        &["--scale", "smal"],
        &["fig17", "--scale"],
        &["fig17", "--json"],
        &["fig17", "--scale", "small", "--json", missing_dir],
    ] {
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: harness"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn good_arguments_print_tables_and_write_json() {
    let path = tmp("ablations.json");
    let out = harness(&[
        "ablations",
        "--scale",
        "small",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for block in ["== ablation-carrier ==", "== ablation-windows =="] {
        assert!(table.contains(block), "{table}");
    }
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("[\n") && json.ends_with("\n]\n"), "{json}");
    assert_eq!(json.matches("\"figure\"").count(), 5, "{json}");
    assert!(json.contains("\"engine\": \"GRETA(replicated-windows)\""));
}
