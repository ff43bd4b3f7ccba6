//! `machmark compare A.json B.json`: did B get worse than A?
//!
//! One row per (workload, end-to-end metric) with both medians, the
//! quartiles over rounds, the metric's bound (`catalog::bound`), and a
//! verdict. A metric whose rounds spread wider than its bound on either
//! side is `unresolved`, never `same`; the spread of `setup_s` is not held
//! against it, nor that of `failed_share`, whose bound is 0: any increase
//! is worse. Per-layer metrics print below without
//! verdicts: they explain a change, they do not judge it.

use crate::catalog::{self, Better};
use crate::json::Json;
use crate::workloads::WORKLOADS;
use crate::Args;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
        })
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// B against A: worse (or better) only by more than `bound` of A's
/// median, and — when `check_spread` — only if both sides' rounds agree to
/// within `bound`.
pub fn verdict(
    better: Better,
    bound: f64,
    check_spread: bool,
    a: &Summary,
    b: &Summary,
) -> Verdict {
    if check_spread && (a.spread() > bound || b.spread() > bound) {
        return Verdict::Unresolved;
    }
    // From a baseline of 0 (disk ops off `unix_build`, failed ops), any
    // change at all is beyond every bound.
    let change = if b.median == a.median {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if j.get("benchmark").and_then(Json::as_str) != Some("machmark") {
        return Err(format!("{path} is not a machmark result file"));
    }
    Ok(j)
}

pub fn cmd(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let [a_path, b_path] = args.words.as_slice() else {
        return Err("compare takes two result files: A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
        file.get("workloads")?.get(name)
    }
    let mut worse = 0;
    let mut unresolved = 0;

    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<12} {:<16} {:>14} {:>22} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for spec in &WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, spec.name), workload(&b, spec.name)) else {
            println!("{:<12} missing from one side", spec.name);
            unresolved += 1;
            continue;
        };
        for metric in catalog::judged() {
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(Summary::from_json)
            };
            let bound = catalog::bound(metric.name).expect("judged metrics have bounds");
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                println!(
                    "{:<12} {:<16} missing from one side",
                    spec.name, metric.name
                );
                unresolved += 1;
                continue;
            };
            // Like the driver, hold every spread to its bound except
            // set-up's: a 20 ms set-up timed three times is never steady,
            // and only its median is judged.
            let check_spread = !matches!(metric.name, "setup_s" | "failed_share");
            let v = verdict(metric.better, bound, check_spread, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let range = |s: &Summary| format!("{:.4}..{:.4}", s.q1, s.q3);
            println!(
                "{:<12} {:<16} {:>14.4} {:>22} {:>14.4} {:>22} {:>6}  {}",
                spec.name,
                metric.name,
                sa.median,
                range(&sa),
                sb.median,
                range(&sb),
                catalog::bound_label(bound),
                v.label()
            );
        }
    }

    println!(
        "\nper-layer (no verdicts; → which end-to-end metric each should move is in README.md)"
    );
    println!(
        "{:<12} {:<40} {:>16} {:>16}  unit",
        "workload", "metric", "A", "B"
    );
    for spec in &WORKLOADS {
        let value = |file: &Json, metric: &str| {
            workload(file, spec.name)?
                .get("per_layer")?
                .get(metric)?
                .get("value")?
                .as_f64()
        };
        for metric in &catalog::PER_LAYER {
            if let (Some(va), Some(vb)) = (value(&a, metric.name), value(&b, metric.name)) {
                println!(
                    "{:<12} {:<40} {:>16.4} {:>16.4}  {}",
                    spec.name, metric.name, va, vb, metric.unit
                );
            }
        }
    }

    println!("\n{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3 }
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let a = s(100.0, 99.0, 101.0);
        // Lower is better: +15 % is worse, -15 % better, +5 % same.
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &a, &s(115.0, 114.0, 116.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &a, &s(85.0, 84.0, 86.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &a, &s(105.0, 104.0, 106.0)),
            Verdict::Same
        );
        // Higher is better flips it.
        assert_eq!(
            verdict(Better::Higher, 0.1, true, &a, &s(85.0, 84.0, 86.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.1, true, &a, &s(115.0, 114.0, 116.0)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_rounds_on_either_side_are_unresolved() {
        let tight = s(100.0, 99.0, 101.0);
        let wide = s(100.0, 90.0, 105.0);
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &tight, &wide),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &wide, &tight),
            Verdict::Unresolved
        );
        // Unless the spread is not held against this metric (set-up).
        assert_eq!(
            verdict(Better::Lower, 0.1, false, &tight, &wide),
            Verdict::Same
        );
        // Even a large change is not a verdict when the rounds disagree.
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &wide, &s(200.0, 199.0, 201.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn from_a_baseline_of_zero_any_increase_is_worse() {
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(
            verdict(Better::Lower, 0.0, false, &zero, &zero),
            Verdict::Same
        );
        assert_eq!(
            verdict(Better::Lower, 0.0, false, &zero, &s(0.001, 0.0, 0.002)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, true, &zero, &s(23.0, 22.9, 23.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn summaries_parse_from_suite_json() {
        let j = Json::parse(r#"{"unit":"us","median":2.5,"q1":2.0,"q3":3.0,"rounds":[2,2.5,3]}"#)
            .unwrap();
        assert_eq!(Summary::from_json(&j), Some(s(2.5, 2.0, 3.0)));
        assert_eq!(Summary::from_json(&Json::Null), None);
    }
}
