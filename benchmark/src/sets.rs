//! `run`: every workload, each run in its own child process, collected into
//! a set file. `compare`: two set files side by side against the bounds.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::workloads::{DEFAULT_SEED, WORKLOADS};
use crate::{out_dir, stats, Args, RUN_SECONDS};
use std::process::{Command, Stdio};

/// One run in a child process: echoes its metric lines, returns whether it
/// exited 0 and its result object (absent when it refused to report).
fn child(workload: &str, seed: u64, args: &Args) -> Result<(bool, Option<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.corrupt_row {
        cmd.arg("--corrupt-row");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .and_then(|last| Json::parse(last).ok())
        .filter(|j| j.get("metrics").is_some());
    for line in lines {
        println!("{line}");
    }
    Ok((out.status.success(), result))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![
            crate::workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload {name}"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let runs = args.runs.unwrap_or(1);
    let set = args.set.clone().unwrap_or_else(|| {
        format!(
            "{}{}",
            if args.traced { "traced" } else { "untraced" },
            if args.smoke { "-smoke" } else { "" }
        )
    });
    let mut all_ok = true;
    let mut per_workload = Vec::new();
    for name in selected {
        // metric → (unit, one value per run)
        let mut series: Vec<(String, String, Vec<Json>)> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for i in 0..runs {
            let (ok, result) = child(name, seed + i as u64, args)?;
            all_ok &= ok;
            correct &= ok;
            let Some(result) = result else {
                eprintln!("error: {name} run {i} reported nothing");
                continue;
            };
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            for (metric, reading) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = reading.get("value").cloned().unwrap_or(Json::Null);
                match series.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, values)) => values.push(value),
                    None => {
                        let unit = reading.get("unit").and_then(Json::as_str).unwrap_or("");
                        series.push((metric.clone(), unit.to_string(), vec![value]));
                    }
                }
            }
        }
        println!(
            "{name} failed_ops_pct {} % ({failed} of {attempted})",
            if attempted > 0.0 {
                100.0 * failed / attempted
            } else {
                0.0
            }
        );
        all_ok &= correct;
        let metrics = series
            .into_iter()
            .map(|(metric, unit, values)| {
                (
                    metric,
                    Json::Obj(vec![
                        ("unit".into(), Json::Str(unit)),
                        ("values".into(), Json::Arr(values)),
                    ]),
                )
            })
            .collect();
        per_workload.push((
            name.to_string(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(attempted)),
                ("failed".into(), Json::Num(failed)),
                ("metrics".into(), Json::Obj(metrics)),
            ]),
        ));
    }
    let doc = Json::Obj(vec![
        ("set".into(), Json::Str(set.clone())),
        ("seed".into(), Json::Num(seed as f64)),
        ("runs".into(), Json::Num(runs as f64)),
        (
            "seconds".into(),
            Json::Num(args.seconds.unwrap_or(RUN_SECONDS)),
        ),
        ("traced".into(), Json::Bool(args.traced)),
        ("workloads".into(), Json::Obj(per_workload)),
    ]);
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let path = out_dir().join(format!("{set}.json"));
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("# wrote {}", path.display());
    Ok(all_ok)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// How one (workload, metric) pair of two sets compares.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Outside,
    /// A side's own run-to-run spread exceeds the bound: nothing can be said.
    Unresolved,
    /// Exact count, equal run for run.
    Same,
    /// Exact count that moved.
    Differs,
    /// Per-layer timing: no bound, shown for reading only.
    Unbounded,
}

/// `b` relative to `a` with the sign turned so that positive is worse.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(name: &str, a: &[f64], b: &[f64], same_inputs: bool) -> (f64, Option<f64>, Verdict) {
    let (mut sa, mut sb) = (a.to_vec(), b.to_vec());
    stats::sort(&mut sa);
    stats::sort(&mut sb);
    let (ma, mb) = (stats::median(&sa), stats::median(&sb));
    if let Some(m) = metrics::end_to_end(name) {
        let worse = worse_by(ma, mb, m.better);
        let noisy = [&sa, &sb]
            .iter()
            .any(|s| stats::spread(s).is_some_and(|x| x > m.bound));
        let verdict = if noisy {
            Verdict::Unresolved
        } else if worse > m.bound {
            Verdict::Outside
        } else {
            Verdict::Within
        };
        return (worse, Some(m.bound), verdict);
    }
    let layer = metrics::per_layer(name);
    let better = layer.map_or(Better::Lower, |m| m.better);
    let verdict = match layer {
        Some(m) if m.exact && same_inputs => {
            if a == b {
                Verdict::Same
            } else {
                Verdict::Differs
            }
        }
        _ => Verdict::Unbounded,
    };
    (worse_by(ma, mb, better), None, verdict)
}

pub fn compare(args: &Args) -> Result<bool, String> {
    let [path_a, path_b] = args.positional.as_slice() else {
        return Err("compare needs two set files".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_inputs = ["seed", "runs", "seconds", "traced"]
        .iter()
        .all(|k| a.get(k) == b.get(k));
    if !same_inputs {
        println!(
            "# the sets differ in seed, runs, seconds or tracing: exact counts are not compared"
        );
    }
    println!("workload metric median_a median_b worse_by bound verdict");
    let mut ok = true;
    let empty: &[(String, Json)] = &[];
    for (workload, wa) in a.get("workloads").and_then(Json::as_obj).unwrap_or(empty) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for (metric, ja) in wa.get("metrics").and_then(Json::as_obj).unwrap_or(empty) {
            let Some(jb) = wb.get("metrics").and_then(|m| m.get(metric)) else {
                continue;
            };
            let (va, vb) = (values(ja), values(jb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse, bound, verdict) = judge(metric, &va, &vb, same_inputs);
            ok &= !matches!(verdict, Verdict::Outside | Verdict::Differs);
            let (mut sa, mut sb) = (va, vb);
            stats::sort(&mut sa);
            stats::sort(&mut sb);
            println!(
                "{workload} {metric} {} {} {:+.2}% {} {}",
                stats::median(&sa),
                stats::median(&sb),
                100.0 * worse,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "OUTSIDE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Same => "same",
                    Verdict::Differs => "DIFFERS",
                    Verdict::Unbounded => "-",
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_positive_whichever_way_is_better() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn bounds_spread_and_exact_counts_decide_the_verdict() {
        // throughput_eps: higher is better, bound 25 %.
        assert_eq!(
            judge("throughput_eps", &[100.0], &[80.0], true).2,
            Verdict::Within
        );
        assert_eq!(
            judge("throughput_eps", &[100.0], &[70.0], true).2,
            Verdict::Outside
        );
        assert_eq!(
            judge("throughput_eps", &[100.0], &[150.0], true).2,
            Verdict::Within
        );
        // state_peak_kib: lower is better, bound 16 %.
        assert_eq!(
            judge("state_peak_kib", &[100.0], &[120.0], true).2,
            Verdict::Outside
        );
        // A side whose own quartiles are 60 % apart resolves nothing.
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge("throughput_eps", &noisy, &[50.0], true).2,
            Verdict::Unresolved
        );
        // Exact counts match run for run or not at all.
        assert_eq!(
            judge("engine.rows", &[7.0, 9.0], &[7.0, 9.0], true).2,
            Verdict::Same
        );
        assert_eq!(
            judge("engine.rows", &[7.0, 9.0], &[7.0, 8.0], true).2,
            Verdict::Differs
        );
        assert_eq!(
            judge("engine.rows", &[7.0], &[8.0], false).2,
            Verdict::Unbounded
        );
        assert_eq!(
            judge("engine.inline_ns_per_event", &[7.0], &[9.0], true).2,
            Verdict::Unbounded
        );
    }
}
