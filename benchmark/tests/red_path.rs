//! The checks must be able to fail: a run whose output was damaged exits
//! non-zero and says so, and the same run undamaged passes.

use std::process::{Command, Output};

fn smoke(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_greta-benchmark"))
        .args([
            "--workload",
            "q1_sparse",
            "--seed",
            "5",
            "--trace",
            "0",
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn one_corrupted_row_turns_a_passing_run_red() {
    let clean = smoke(&[]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    let line = result_line(&clean);
    assert!(
        line.contains("\"correct\":true") && line.contains("\"failed\":0"),
        "{line}"
    );

    let damaged = smoke(&["--corrupt-row"]);
    assert!(
        !damaged.status.success(),
        "a corrupted row must fail the command"
    );
    let line = result_line(&damaged);
    // One wrong row is one missing plus one extra.
    assert!(
        line.contains("\"correct\":false") && line.contains("\"failed\":2"),
        "{line}"
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_greta-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
