//! The suite: every workload, each run in its own process, interleaved.
//!
//! Rounds go `w1..w6, w1..w6, w1..w6` so a multi-second disturbance on the
//! shared box cannot land on one workload's whole sample; a metric's value
//! is the median over rounds. Each (round, workload) is a fresh process, so
//! `host_rss_mb` and set-up are per workload. After the rounds, one traced
//! run per workload fills the per-layer ledger. A run is exactly what the
//! driver runs — same command, same `run_seconds` — so the two-run
//! agreement the suite is held to is the driver's too.

use crate::catalog::{self, Metric};
use crate::json::Json;
use crate::run::round_ops;
use crate::stats::{median, quartiles};
use crate::workloads::{Spec, WORKLOADS};
use crate::{host, Args, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The stdout line of a run that carries its sim fingerprint.
pub const FINGERPRINT_PREFIX: &str = "fingerprint ";

/// The stdout line of a run that carries its disk ops per op.
pub const DISK_OPS_PREFIX: &str = "disk_ops_per_op ";

/// What the suite reads back from one `machmark run` process.
#[derive(Debug, PartialEq)]
pub struct RunRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub disk_ops_per_op: Option<f64>,
    pub fingerprint: Option<Json>,
    pub problems: Vec<String>,
}

/// Parses a run's stdout: the result is the last line, in the driver's
/// format; the fingerprint and any problems are on labelled lines above.
pub fn parse_run_output(stdout: &str) -> Result<RunRecord, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("run printed nothing")?;
    let result = Json::parse(last)?;
    let field = |k: &str| result.get(k).ok_or(format!("result line lacks {k:?}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunRecord {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        disk_ops_per_op: stdout
            .lines()
            .find_map(|l| l.strip_prefix(DISK_OPS_PREFIX))
            .and_then(|v| v.trim().parse().ok()),
        fingerprint: stdout
            .lines()
            .find_map(|l| l.strip_prefix(FINGERPRINT_PREFIX))
            .and_then(|l| Json::parse(l).ok()),
        problems: stdout
            .lines()
            .filter_map(|l| l.trim().strip_prefix("problem: "))
            .map(str::to_string)
            .collect(),
    })
}

/// Interleaved rounds of a full suite; a smoke pass makes one.
const ROUNDS: usize = 3;

/// Time box of one smoke run.
const SMOKE_SECONDS: f64 = 0.6;

struct Plan {
    seed: u64,
    smoke: bool,
    out_dir: std::path::PathBuf,
}

impl Plan {
    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    fn seconds(&self) -> f64 {
        if self.smoke {
            SMOKE_SECONDS
        } else {
            catalog::run_seconds()
        }
    }
}

fn spawn_run(exe: &Path, plan: &Plan, spec: &Spec, trace: bool) -> Result<RunRecord, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", spec.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&plan.out_dir);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "run of {} exited with {}: {}",
            spec.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_run_output(&String::from_utf8_lossy(&out.stdout))
}

fn summarize(metric: &Metric, values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("unit", Json::str(metric.unit)),
        ("kind", Json::str(metric.kind.label())),
        ("better", Json::str(metric.better.label())),
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "rounds",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// A judged metric's value in one run: the six in its result line, the
/// failed share of its ops, and its disk ops per op.
fn judged_value(run: &RunRecord, metric: &str) -> Option<f64> {
    match metric {
        "failed_share" => Some(run.failed as f64 / run.attempted.max(1) as f64),
        "disk_ops_per_op" => run.disk_ops_per_op,
        name => run.metrics.get(name).copied(),
    }
}

fn workload_result(
    spec: &Spec,
    smoke: bool,
    runs: &[RunRecord],
    traced: Option<&RunRecord>,
) -> Json {
    let all = || runs.iter().chain(traced);
    let end_to_end = catalog::judged()
        .map(|metric| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| judged_value(r, metric.name))
                .collect();
            (metric.name, summarize(metric, &values))
        })
        .collect::<Vec<_>>();
    let per_layer = catalog::PER_LAYER
        .iter()
        .filter(|metric| catalog::on_path(metric.name, spec.name))
        .filter_map(|metric| {
            let value = traced?.metrics.get(metric.name)?;
            Some((
                metric.name,
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    ("kind", Json::str(metric.kind.label())),
                    ("value", Json::Num(*value)),
                ]),
            ))
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("why", Json::str(spec.why)),
        ("correct", Json::Bool(all().all(|r| r.correct))),
        (
            "attempted",
            Json::Num(all().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(all().map(|r| r.failed).sum::<u64>() as f64),
        ),
        (
            "tail",
            Json::str(spec.tail.capped_for(round_ops(spec, smoke)).label()),
        ),
        (
            "problems",
            Json::Arr(
                all()
                    .flat_map(|r| r.problems.iter())
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
        (
            "fingerprint",
            runs.first()
                .and_then(|r| r.fingerprint.clone())
                .unwrap_or(Json::Null),
        ),
    ])
}

fn print_workload(name: &str, result: &Json) {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    println!(
        "\n== {name}  (tail = {}, failed {} of {})",
        text(result, "tail"),
        num(result, "failed"),
        num(result, "attempted")
    );
    println!("   {}", text(result, "why"));
    for (metric, s) in result
        .get("end_to_end")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        println!(
            "  {:<40} {:>16.4} {:<6} [{:<4}] q1 {:.4} q3 {:.4} bound {}",
            metric,
            num(s, "median"),
            text(s, "unit"),
            text(s, "kind"),
            num(s, "q1"),
            num(s, "q3"),
            catalog::bound_label(catalog::bound(metric).unwrap_or(f64::NAN))
        );
    }
    for (metric, s) in result
        .get("per_layer")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        // The paper's own figures, beside the two ratios that answer them.
        let paper = match metric.as_str() {
            "machunix.p1_speedup_vs_baseline" => "  (paper: ~2x)",
            "machunix.p2_io_reduction_vs_baseline" => "  (paper: ~10x)",
            _ => "",
        };
        println!(
            "  {:<40} {:>16.4} {:<6} [{:<4}]{paper}",
            metric,
            num(s, "value"),
            text(s, "unit"),
            text(s, "kind")
        );
    }
    for p in result.get("problems").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  problem: {}", p.as_str().unwrap_or(""));
    }
}

pub fn cmd(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &["smoke"])?;
    let smoke = a.get("smoke").is_some();
    let plan = Plan {
        seed: a.number("seed")?.unwrap_or(DEFAULT_SEED),
        smoke,
        out_dir: a.out_dir(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", plan.out_dir.display()))?;

    let mut runs: Vec<Vec<RunRecord>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..plan.rounds() {
        for (i, spec) in WORKLOADS.iter().enumerate() {
            eprintln!("round {}/{}: {}", round + 1, plan.rounds(), spec.name);
            runs[i].push(spawn_run(&exe, &plan, spec, false)?);
        }
    }
    let mut traced: Vec<Option<RunRecord>> = WORKLOADS.iter().map(|_| None).collect();
    if !smoke {
        for (i, spec) in WORKLOADS.iter().enumerate() {
            eprintln!("traced: {}", spec.name);
            traced[i] = Some(spawn_run(&exe, &plan, spec, true)?);
        }
    }

    let results: Vec<(&str, Json)> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                spec.name,
                workload_result(spec, smoke, &runs[i], traced[i].as_ref()),
            )
        })
        .collect();
    println!(
        "machmark suite: seed {} · {} round(s) of {} s per workload · nproc {}{}",
        plan.seed,
        plan.rounds(),
        plan.seconds(),
        host::nproc(),
        if smoke { " · smoke" } else { "" }
    );
    println!(
        "sim = the modelled 1987 machine (clock and counters); host = this simulator on this box"
    );
    for (name, result) in &results {
        print_workload(name, result);
    }
    let all_correct = results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(Json::as_bool) == Some(true));

    let file = Json::obj([
        ("benchmark", Json::str("machmark")),
        ("seed", Json::Num(plan.seed as f64)),
        ("rounds", Json::Num(plan.rounds() as f64)),
        ("seconds", Json::Num(plan.seconds())),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(results)),
    ]);
    let path = plan.out_dir.join("result.json");
    std::fs::write(&path, file.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if !smoke {
        println!("traces in {}/trace-<workload>.json", plan.out_dir.display());
    }
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("OUTPUT CHECKS FAILED");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunOutput;
    use crate::stats::Percentile;

    #[test]
    fn run_output_round_trips_through_the_suite_parser() {
        let out = RunOutput {
            attempted: 12_345,
            failed: 1,
            problems: vec!["page 3 did not read back".into()],
            metrics: vec![
                (catalog::find("ops_per_s").unwrap(), 17_234.567_891_234),
                (catalog::find("setup_s").unwrap(), 0.012_345_678_9),
            ],
            disk_ops_per_op: 22.875,
            fingerprint: Json::obj([("msgs", Json::Num(0.0))]),
            rounds: 3,
            tail: Percentile::P99,
        };
        let stdout = format!(
            "header\n  problem: {}\n{}{}\n{}{}\n{}\n",
            out.problems[0],
            DISK_OPS_PREFIX,
            out.disk_ops_per_op,
            FINGERPRINT_PREFIX,
            out.fingerprint.to_line(),
            out.result_line()
        );
        let rec = parse_run_output(&stdout).unwrap();
        assert!(!rec.correct);
        assert_eq!((rec.attempted, rec.failed), (12_345, 1));
        assert_eq!(rec.metrics["ops_per_s"], 17_234.567_891_234);
        assert_eq!(rec.metrics["setup_s"], 0.012_345_678_9);
        assert_eq!(rec.disk_ops_per_op, Some(22.875));
        assert_eq!(rec.fingerprint, Some(out.fingerprint.clone()));
        assert_eq!(rec.problems, out.problems);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            attempted: 1,
            failed: 0,
            problems: vec![],
            metrics: vec![(catalog::find("setup_s").unwrap(), 0.5)],
            disk_ops_per_op: 0.0,
            fingerprint: Json::Null,
            rounds: 1,
            tail: Percentile::P50,
        };
        let line = Json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn rejects_output_without_a_result_line() {
        assert!(parse_run_output("").is_err());
        assert!(parse_run_output("not json\n").is_err());
        assert!(parse_run_output("{\"correct\": true}\n").is_err());
    }
}
