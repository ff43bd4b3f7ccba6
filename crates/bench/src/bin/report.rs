//! Regenerates every experiment table from DESIGN.md in one run.
//!
//! ```text
//! cargo run -p machbench --bin report [--quick]
//! cargo run -p machbench --bin report trace
//! cargo run -p machbench --bin report numa
//! cargo run -p machbench --bin report chrome-trace <out.json>
//! cargo run -p machbench --bin report prom
//! cargo run -p machbench --bin report export-smoke
//! cargo run -p machbench --bin report critical-path [--smoke]
//! ```
//!
//! `--quick` skips the slowest sweeps (compilation, migration) for smoke
//! testing; the full run backs EXPERIMENTS.md. `trace` instead prints the
//! causal per-chain timeline and latency percentiles of an externally
//! paged fault (the observability layer's debugging surface).
//! `chrome-trace` writes the same run as catapult JSON for Perfetto /
//! `chrome://tracing`, `prom` prints Prometheus text exposition, and
//! `export-smoke` validates both formats end to end (nonzero exit on
//! failure; run from `scripts/check.sh`). `bench-diff` compares the
//! freshly written bench trajectories (`BENCH_fault.json`,
//! `BENCH_ipc.json`, `BENCH_build.json`, `BENCH_scaling.json`,
//! `BENCH_numa.json`, plus the model checker's `BENCH_mc.json`) against
//! the committed ratchet
//! baseline (`bench-baseline.toml`) on host-independent metrics only —
//! scaling ratios, concurrency reach, message counts, never absolute
//! ops/sec — and exits nonzero on regression (also run from
//! `scripts/check.sh`). `critical-path` profiles a fault storm with the
//! span analyzer and prints per-budget phase attribution tables (the E22
//! data); `--smoke` asserts connected span trees, >= 95% attribution,
//! live lock contention and a parked span that saw others parked.

use machbench::{
    ablation, camelot_bench, compile, cow_msg, critical_path, export_report, failure, ipc_bench,
    migration, netshm_bench, numa_placement, pageout, pager_rt, remote_cow, shared_array,
    topology_bench, trace_report,
};

/// Scans `text` for `"key": <number>` after byte offset `from` and
/// returns (value, offset past the match). Tiny on-purpose: the bench
/// JSON is written by our own benches, not arbitrary input.
fn json_num(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    let value: f64 = rest[..end].parse().ok()?;
    Some((value, at))
}

/// Reads `key = <number>` from a flat TOML section body.
fn toml_num(section: &str, key: &str) -> Option<f64> {
    for line in section.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(key) {
            if let Some(v) = rest.trim_start().strip_prefix('=') {
                return v.split('#').next()?.trim().parse().ok();
            }
        }
    }
    None
}

/// One host-independent floor of the ratchet: `json_key` read from the
/// bench's JSON (after `anchor` when set, for per-sweep-level metrics)
/// must be at least `floor_key` from the baseline section — or at most,
/// when the baseline key is a `max_` ceiling.
struct Floor {
    label: &'static str,
    json_key: &'static str,
    floor_key: &'static str,
    anchor: Option<&'static str>,
}

/// One bench's ratchet: its JSON trajectory file, its baseline section,
/// and the floors it must clear.
struct Ratchet {
    json_file: &'static str,
    section: &'static str,
    floors: &'static [Floor],
}

/// Every ratcheted bench. Floors are host-independent on purpose
/// (ratios, concurrency reach, message counts), so a slow CI box cannot
/// fail the gate and a fast one cannot mask a regression.
const RATCHETS: &[Ratchet] = &[
    Ratchet {
        json_file: "BENCH_fault.json",
        section: "[fault_concurrency]",
        floors: &[
            Floor {
                label: "scaling 64->4096",
                json_key: "scaling_64_to_4096",
                floor_key: "min_scaling_64_to_4096",
                anchor: None,
            },
            Floor {
                label: "outstanding @4096",
                json_key: "max_outstanding",
                floor_key: "min_outstanding_at_4096",
                anchor: Some("\"outstanding_budget\": 4096"),
            },
        ],
    },
    Ratchet {
        json_file: "BENCH_scaling.json",
        section: "[fault_scaling]",
        floors: &[
            Floor {
                label: "cluster-8 message cut",
                json_key: "cluster_message_ratio",
                floor_key: "min_cluster_message_ratio",
                anchor: None,
            },
            Floor {
                label: "pages per random fill",
                json_key: "pages_per_random_fill",
                floor_key: "max_pages_per_random_fill",
                anchor: None,
            },
            Floor {
                label: "faults per cold extent",
                json_key: "faults_per_cold_extent",
                floor_key: "max_faults_per_cold_extent",
                anchor: None,
            },
            Floor {
                label: "parks per cold extent",
                json_key: "parks_per_cold_extent",
                floor_key: "max_parks_per_cold_extent",
                anchor: None,
            },
        ],
    },
    Ratchet {
        json_file: "BENCH_ipc.json",
        section: "[ipc_scaling]",
        floors: &[
            Floor {
                label: "batching gain",
                json_key: "batched_over_unbatched_best",
                floor_key: "min_batched_over_unbatched",
                anchor: None,
            },
            Floor {
                label: "handoff vs enqueue",
                json_key: "enqueue_over_handoff",
                floor_key: "min_enqueue_over_handoff",
                anchor: None,
            },
        ],
    },
    Ratchet {
        json_file: "BENCH_build.json",
        section: "[parallel_build]",
        floors: &[
            Floor {
                label: "P1 warm speedup",
                json_key: "warm_speedup_min",
                floor_key: "min_warm_speedup",
                anchor: None,
            },
            Floor {
                label: "P2 I/O reduction",
                json_key: "io_reduction",
                floor_key: "min_io_reduction",
                anchor: None,
            },
            Floor {
                label: "warm msgs per unit",
                json_key: "warm_msgs_per_unit",
                floor_key: "max_warm_msgs_per_unit",
                anchor: None,
            },
        ],
    },
    Ratchet {
        json_file: "BENCH_mc.json",
        section: "[machmc]",
        floors: &[
            Floor {
                label: "models checked",
                json_key: "models_checked",
                floor_key: "min_models_checked",
                anchor: None,
            },
            Floor {
                label: "park_resume asserts",
                json_key: "assertions",
                floor_key: "min_assertions_park_resume",
                anchor: Some("\"model\": \"park_resume\""),
            },
            Floor {
                label: "shootdown asserts",
                json_key: "assertions",
                floor_key: "min_assertions_shootdown",
                anchor: Some("\"model\": \"shootdown\""),
            },
            Floor {
                label: "sched_shutdown asserts",
                json_key: "assertions",
                floor_key: "min_assertions_sched_shutdown",
                anchor: Some("\"model\": \"sched_shutdown\""),
            },
        ],
    },
    Ratchet {
        json_file: "BENCH_numa.json",
        section: "[numa_placement]",
        floors: &[
            Floor {
                label: "remote-hit reduction",
                json_key: "remote_hit_reduction",
                floor_key: "min_remote_hit_reduction",
                anchor: None,
            },
            Floor {
                label: "sim-time reduction",
                json_key: "time_reduction",
                floor_key: "min_time_reduction",
                anchor: None,
            },
        ],
    },
];

/// The ratchet gate: every smoke-measured metric listed in the committed
/// baseline must still clear its floor, across every bench JSON.
fn bench_diff() -> Result<(), String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let baseline = std::fs::read_to_string(format!("{root}/bench-baseline.toml"))
        .map_err(|e| format!("bench-baseline.toml missing: {e}"))?;
    for r in RATCHETS {
        let json = std::fs::read_to_string(format!("{root}/{}", r.json_file))
            .map_err(|e| format!("{} not found (run the bench first): {e}", r.json_file))?;
        let section = baseline
            .split(r.section)
            .nth(1)
            .ok_or_else(|| format!("baseline has no {} section", r.section))?;
        println!("bench-diff: {} vs committed baseline", r.section);
        for f in r.floors {
            let from = match f.anchor {
                Some(a) => json
                    .find(a)
                    .ok_or_else(|| format!("{} has no `{a}` entry", r.json_file))?,
                None => 0,
            };
            let (value, _) = json_num(&json, f.json_key, from)
                .ok_or_else(|| format!("{} has no {}", r.json_file, f.json_key))?;
            let floor = toml_num(section, f.floor_key)
                .ok_or_else(|| format!("baseline has no {}", f.floor_key))?;
            let ceiling = f.floor_key.starts_with("max_");
            let bound = if ceiling { "ceiling" } else { "floor" };
            println!("  {:<22} {value:.2}  ({bound} {floor:.2})", f.label);
            if (ceiling && value > floor) || (!ceiling && value < floor) {
                return Err(format!(
                    "{} regressed: {} = {value:.2} is past the baseline {bound} {floor:.2}",
                    r.section, f.json_key
                ));
            }
        }
    }
    println!("bench-diff OK");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => {
            print!("{}", trace_report::run());
            return;
        }
        Some("chrome-trace") => {
            let path = args.get(1).map_or("trace.json", String::as_str);
            let json = export_report::chrome_trace();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path} — load it in ui.perfetto.dev or chrome://tracing");
            return;
        }
        Some("prom") => {
            print!("{}", export_report::prometheus());
            return;
        }
        Some("numa") => {
            println!(
                "{}",
                numa_placement::table(&numa_placement::run_default()).render()
            );
            return;
        }
        Some("bench-diff") => {
            if let Err(e) = bench_diff() {
                eprintln!("bench-diff FAILED: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("critical-path") => {
            if args.iter().any(|a| a == "--smoke") {
                match critical_path::smoke() {
                    Ok(summary) => println!("{summary}"),
                    Err(e) => {
                        eprintln!("critical-path smoke FAILED: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                print!("{}", critical_path::sweep());
            }
            return;
        }
        Some("export-smoke") => match export_report::smoke() {
            Ok(summary) => {
                println!("{summary}");
                return;
            }
            Err(e) => {
                eprintln!("export smoke FAILED: {e}");
                std::process::exit(1);
            }
        },
        _ => {}
    }
    let quick = args.iter().any(|a| a == "--quick");
    println!("Mach duality reproduction — experiment report");
    println!("(simulated 1987 machine; see DESIGN.md for the experiment index)\n");

    println!("{}", ipc_bench::table(&ipc_bench::run_default()).render());
    println!("{}", ipc_bench::port_table().render());
    println!("{}", pager_rt::vm_table(&pager_rt::vm_ops()).render());
    println!(
        "{}",
        pager_rt::pager_table(&pager_rt::pager_round_trip()).render()
    );
    println!(
        "{}",
        topology_bench::table(&topology_bench::run_default()).render()
    );
    println!("{}", cow_msg::table(&cow_msg::run_default()).render());
    println!("{}", remote_cow::table(&remote_cow::run_default()).render());
    println!(
        "{}",
        shared_array::table(&shared_array::run_default()).render()
    );
    println!("{}", pageout::table(&pageout::run_default()).render());
    println!("{}", failure::table(&failure::run_default()).render());
    println!(
        "{}",
        netshm_bench::table(&netshm_bench::run_default()).render()
    );
    println!(
        "{}",
        camelot_bench::table(&camelot_bench::run_default()).render()
    );
    println!(
        "{}",
        numa_placement::table(&numa_placement::run_default()).render()
    );
    println!("{}", ablation::table().render());

    if quick {
        println!("(--quick: skipping compilation and migration sweeps)");
        return;
    }
    println!("{}", migration::table(&migration::run_default()).render());
    let outcomes = compile::run_default();
    println!("{}", compile::table(&outcomes).render());
    for o in &outcomes {
        println!(
            "{}: warm speedup {:.2}x (paper: ~2x), warm I/O ratio {:.1}x, total I/O ratio {:.1}x (paper: ~10x)",
            o.label,
            o.warm_speedup(),
            o.warm_io_ratio(),
            o.total_io_ratio()
        );
    }
}
