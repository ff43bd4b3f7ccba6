//! `machmark` — one benchmark for the duality of memory and communication.
//!
//! ```text
//! machmark run --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! machmark suite [--seed N] [--smoke]                          every workload, interleaved
//! machmark compare A.json B.json                               verdict per (workload, metric)
//! machmark verify [--seed N]                                   sim fingerprints repeat exactly
//! ```
//!
//! `benchmark/run.sh` builds this package and dispatches to it; see
//! `benchmark/README.md` for the workloads, the metrics and how to read
//! the output.

mod catalog;
mod compare;
mod host;
mod json;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use run::{RunArgs, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed `suite` and `verify` use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1987;

/// `--flag value` pairs and bare words, in order.
pub(crate) struct Args {
    flags: Vec<(String, String)>,
    pub(crate) words: Vec<String>,
}

impl Args {
    pub(crate) fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    flags.push((name.to_string(), "1".to_string()));
                } else {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
            } else {
                words.push(a.clone());
            }
        }
        Ok(Args { flags, words })
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    pub(crate) fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn print_run(args: &RunArgs, out: &RunOutput) {
    println!(
        "machmark {} seed={} trace={} rounds={} tail={} nproc={}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        out.rounds,
        out.tail.label(),
        host::nproc()
    );
    for (metric, value) in &out.metrics {
        println!(
            "  {:<40} {:>16.4} {:<6} [{}]",
            metric.name,
            value,
            metric.unit,
            metric.kind.label()
        );
    }
    for problem in &out.problems {
        println!("  problem: {problem}");
    }
    println!("{}{}", suite::DISK_OPS_PREFIX, out.disk_ops_per_op);
    println!("{}{}", suite::FINGERPRINT_PREFIX, out.fingerprint.to_line());
    println!("{}", out.result_line());
}

fn cmd_run(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &["smoke"])?;
    let name = a.get("workload").ok_or("run needs --workload")?;
    let spec = workloads::find(name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seconds: f64 = a.number("seconds")?.unwrap_or_else(catalog::run_seconds);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let args = RunArgs {
        spec,
        seed: a.number("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        smoke: a.get("smoke").is_some(),
        out_dir: a.out_dir(),
    };
    let out = run::run(&args);
    print_run(&args, &out);
    // A run that measured but found wrong outputs still exits 0: the
    // driver reads `correct` and `failed` from the result line.
    Ok(ExitCode::SUCCESS)
}

/// `vm_fork` and `msg_ool` are single-client and deterministic: the same
/// seed and op count must give the same counts, twice in one process.
/// A later simulator-only speed-up has to pass this unchanged.
fn cmd_verify(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &[])?;
    let seed = a.number("seed")?.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    for name in ["vm_fork", "msg_ool"] {
        let spec = workloads::find(name).expect("verify workloads exist");
        let fingerprint = || {
            run::run(&RunArgs {
                spec,
                seed,
                // One tenth-size round on each side: equal work.
                seconds: 0.0,
                trace: false,
                smoke: true,
                out_dir: a.out_dir(),
            })
        };
        let (first, second) = (fingerprint(), fingerprint());
        let same = first.fingerprint == second.fingerprint;
        let correct = first.correct() && second.correct();
        println!(
            "verify {name}: {}",
            if same && correct {
                "fingerprints identical"
            } else if same {
                "OUTPUT CHECKS FAILED"
            } else {
                "FINGERPRINTS DIFFER"
            }
        );
        println!("  {}", first.fingerprint.to_line());
        if !same {
            println!("  {}", second.fingerprint.to_line());
        }
        for p in first.problems.iter().chain(&second.problems) {
            println!("  problem: {p}");
        }
        ok &= same && correct;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn usage() -> String {
    "usage: machmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
     machmark suite [--seed N] [--smoke]\n       \
     machmark compare A.json B.json\n       \
     machmark verify [--seed N]"
        .to_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("suite") => suite::cmd(&raw[1..]),
        Some("compare") => compare::cmd(&raw[1..]),
        Some("verify") => cmd_verify(&raw[1..]),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("machmark: {e}");
            ExitCode::from(2)
        }
    }
}
