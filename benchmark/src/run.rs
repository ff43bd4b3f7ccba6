//! One run: one workload, one seed, one process.
//!
//! A run sets the workload up (several times, to report a median set-up
//! time), warms it, and then measures fixed-size rounds until the time
//! box is used up. Every metric is the **median over rounds**, so a
//! disturbance on the shared box that lands on one round does not move
//! the result. With `--trace 0` the run reports the end-to-end metrics,
//! recorder off. With `--trace 1` it reports the per-layer ledger: the
//! workload's probes, then half-size rounds in pairs, recorder off and
//! on — counter deltas from the first of each pair, span metrics from the
//! second, tracing overhead from the two against each other.

use crate::catalog::{self, Metric};
use crate::host;
use crate::json::Json;
use crate::spans::{self, Span};
use crate::stats::{median, median_u64, percentile_of, Percentile};
use crate::workloads::{OpSamples, Spec, Workload};
use machsim::stats::keys;
use machsim::StatsSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and tenth-size rounds: the suite's quick pass, and
    /// `verify`.
    pub smoke: bool,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: std::path::PathBuf,
}

/// What one round measured.
struct Round {
    ops: usize,
    ops_per_s: f64,
    host_p50_us: f64,
    host_tail_us: f64,
    sim_us_per_op: f64,
    sim_tail_us: f64,
    cpu_us: f64,
    counts: StatsSnapshot,
    trace_dropped: u64,
    lock_contended: u64,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// `disk.reads + disk.writes` per op, median over rounds: an
    /// end-to-end figure the result line cannot carry (it is 0 on five
    /// workloads), so it travels on a line of its own.
    pub disk_ops_per_op: f64,
    /// Exact counts of the first timed round, for `verify`.
    pub fingerprint: Json,
    pub rounds: usize,
    pub tail: Percentile,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }
}

/// Counters that must stay 0 in a healthy run; each one that moved costs
/// one failed op.
const FAILURE_COUNTERS: [&str; 5] = [
    keys::WATCHDOG_STALLS,
    keys::VM_TIMEOUT_ZERO_FILLS,
    keys::VM_DEFAULT_PAGER_TAKEOVERS,
    keys::VM_ASYNC_TIMEOUTS,
    keys::VM_ASYNC_PAGER_DEAD,
];

struct Session {
    workload: Box<dyn Workload>,
    samples: OpSamples,
    tail: Percentile,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Session {
    fn round(&mut self, ops: usize) -> Round {
        let machine = self.workload.machine().clone();
        self.samples.clear();
        let counts0 = machine.stats.snapshot();
        let dropped0 = machine.trace.dropped();
        let contended0 = machsim::lockdep::contention_total();
        let cpu0 = host::cpu_time_us();
        let sim0 = machine.clock.now_ns();
        let t0 = Instant::now();
        self.workload.round(ops, &mut self.samples);
        let host_s = t0.elapsed().as_secs_f64();
        let sim_ns = machine.clock.now_ns() - sim0;
        let cpu_us = host::cpu_time_us() - cpu0;
        let counts = counts0.delta(&machine.stats.snapshot());

        let s = &mut self.samples;
        self.attempted += s.host_ns.len() as u64;
        self.failed += s.failed;
        for e in s.errors.drain(..) {
            if self.problems.len() < 10 {
                self.problems.push(e);
            }
        }
        let done = s.host_ns.len();
        s.host_ns.sort_unstable();
        s.sim_ns.sort_unstable();
        let tail = self.tail.capped_for(done);
        Round {
            ops: done,
            ops_per_s: done as f64 / host_s,
            host_p50_us: percentile_of(&s.host_ns, Percentile::P50) as f64 / 1e3,
            host_tail_us: percentile_of(&s.host_ns, tail) as f64 / 1e3,
            sim_us_per_op: sim_ns as f64 / 1e3 / done as f64,
            sim_tail_us: percentile_of(&s.sim_ns, tail) as f64 / 1e3,
            cpu_us,
            counts,
            trace_dropped: machine.trace.dropped() - dropped0,
            lock_contended: machsim::lockdep::contention_total() - contended0,
        }
    }

    /// Calls `step` until `seconds` are used, rounded to the nearest whole
    /// step and at least once (so 0 seconds is exactly one step).
    fn fill(&mut self, seconds: f64, mut step: impl FnMut(&mut Session)) {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            step(self);
            let last = t0.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
                return;
            }
        }
    }

    /// The end-of-run census: nothing stalled, nothing timed out, nothing
    /// fell back to the default pager, and the workload's own final
    /// output check holds. Violations count as failed ops rather than
    /// panicking, so a run always emits a full result.
    fn census(&mut self) {
        let mut violations = self.workload.final_check();
        if let Some(kernel) = self.workload.kernel() {
            let reports = kernel.watchdog_reports();
            if !reports.is_empty() {
                violations.push(format!("{} watchdog report(s)", reports.len()));
            }
        }
        let stats = &self.workload.machine().stats;
        for key in FAILURE_COUNTERS {
            let n = stats.get(key);
            if n != 0 {
                violations.push(format!("{key} = {n}"));
            }
        }
        self.failed += violations.len() as u64;
        self.attempted = self.attempted.max(self.failed);
        self.problems.extend(violations);
    }
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn fingerprint(spec: &Spec, seed: u64, round: &Round, workload: &dyn Workload) -> Json {
    let c = &round.counts;
    let n = |k: &str| Json::Num(c.get(k) as f64);
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(round.ops as f64)),
        ("msgs", n(keys::MSG_SENT)),
        ("faults", n(keys::VM_FAULTS)),
        ("pager_fills", n(keys::VM_PAGER_FILLS)),
        ("cow_copies", n(keys::VM_COW_COPIES)),
        ("zero_fills", n(keys::VM_ZERO_FILLS)),
        (
            "disk_ops",
            Json::Num((c.get(keys::DISK_READS) + c.get(keys::DISK_WRITES)) as f64),
        ),
        (
            "cost_model",
            Json::str(format!("{:?}", workload.machine().cost)),
        ),
        ("nproc", Json::Num(host::nproc() as f64)),
    ])
}

/// A round's op count scaled by `scale`: at least one op per client, and
/// the same number for each.
fn scaled(ops: usize, scale: f64, clients: usize) -> usize {
    let n = ((ops as f64 * scale) as usize).max(clients);
    n - n % clients
}

/// Ops in one timed round of `spec`: a smoke run's are a tenth.
pub fn round_ops(spec: &Spec, smoke: bool) -> usize {
    let scale = if smoke { 0.1 } else { 1.0 };
    scaled(spec.ops_per_round, scale, spec.clients)
}

/// Set-ups per run, for the `setup_s` median.
const SETUP_REPS: usize = 11;

pub fn run(args: &RunArgs) -> RunOutput {
    let spec = args.spec;
    let started = Instant::now();
    let ops = round_ops(spec, args.smoke);
    host::nproc(); // remembered now: pinning would make it read 1
    let pinned = !spec.one_core || host::pin_to_one_core();
    let probe_values = if args.trace {
        (spec.probes)()
    } else {
        Vec::new()
    };

    // Set-up is everything before the first timed round: building the
    // workload, then the first 5 % of a round's ops untimed (caches fill,
    // lazy set-up finishes, threads meet). It is repeated from scratch so
    // `setup_s` is a median, and the last instance is the one measured.
    let setup_reps = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::new();
    let mut session: Option<Session> = None;
    for _ in 0..setup_reps {
        let carried = session.take().map(|s| (s.attempted, s.failed, s.problems));
        let t0 = Instant::now();
        let mut fresh = Session {
            workload: (spec.setup)(args.seed),
            samples: OpSamples::with_capacity(ops),
            tail: spec.tail,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        };
        fresh.round(scaled(ops / 20, 1.0, spec.clients));
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((attempted, failed, problems)) = carried {
            fresh.attempted += attempted;
            fresh.failed += failed;
            fresh.problems.extend(problems);
        }
        session = Some(fresh);
    }
    let mut session = session.expect("set up at least once");
    if !pinned {
        // Across cores a single-client op's simulated cost depends on
        // where the host puts the threads (see `host::pin_to_one_core`),
        // so the sim metrics of this run are not the ones the bounds are
        // for.
        session.problems.push(format!(
            "cannot pin {} to one core: its simulated cost would depend on host thread placement",
            spec.name
        ));
    }

    let mut metrics: Vec<(&'static Metric, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| {
        let metric = catalog::find(name).unwrap_or_else(|| panic!("metric {name} not in catalog"));
        metrics.push((metric, value));
    };

    let mut rounds = Vec::new();
    if !args.trace {
        session.fill(args.seconds, |s| rounds.push(s.round(ops)));
        session.census();
        put("setup_s", median(&setup_s));
        put("ops_per_s", med(&rounds, |r| r.ops_per_s));
        put("host_p50_us", med(&rounds, |r| r.host_p50_us));
        put("host_rss_mb", host::rss_hwm_mib());
        put("sim_us_per_op", med(&rounds, |r| r.sim_us_per_op));
        put("sim_tail_us", med(&rounds, |r| r.sim_tail_us));
    } else {
        // The probes and the set-up came out of the same time box.
        let left = args.seconds - started.elapsed().as_secs_f64();
        let half = scaled(ops / 2, 1.0, spec.clients);
        let traced = traced_pairs(&mut session, args, half, left, &mut rounds);
        session.census();
        let mut ledger = ledger(&rounds);
        ledger.extend(probe_values);
        ledger.extend(traced);
        ledger.extend(session.workload.extras());
        ledger.push((
            "bench.failed_share",
            session.failed as f64 / session.attempted.max(1) as f64,
        ));
        let ledger: BTreeMap<&str, f64> = ledger.into_iter().collect();
        // The driver wants every per-layer metric from every workload; one
        // the workload structurally lacks (a probe that rides elsewhere, a
        // span it never opens) reads 0.
        for metric in &catalog::PER_LAYER {
            put(metric.name, ledger.get(metric.name).copied().unwrap_or(0.0));
        }
    }

    RunOutput {
        attempted: session.attempted.max(1),
        failed: session.failed,
        problems: session.problems,
        metrics,
        disk_ops_per_op: med(&rounds, |r| {
            (r.counts.get(keys::DISK_READS) + r.counts.get(keys::DISK_WRITES)) as f64 / r.ops as f64
        }),
        fingerprint: fingerprint(spec, args.seed, &rounds[0], session.workload.as_ref()),
        rounds: rounds.len(),
        tail: spec.tail.capped_for(ops),
    }
}

/// Per-layer metrics that are one counter's delta per op.
const PER_OP: [(&str, &str); 20] = [
    ("machipc.msgs_per_op", keys::MSG_SENT),
    ("machvm.faults_per_op", keys::VM_FAULTS),
    ("machvm.pager_fills_per_op", keys::VM_PAGER_FILLS),
    ("machvm.cow_copies_per_op", keys::VM_COW_COPIES),
    ("machvm.zero_fills_per_op", keys::VM_ZERO_FILLS),
    ("machvm.pageouts_per_op", keys::VM_PAGEOUTS),
    ("machvm.parks_per_op", keys::VM_ASYNC_PARKS),
    ("machvm.backpressure_per_op", keys::VM_ASYNC_BACKPRESSURE),
    ("machvm.pager_batches_per_op", keys::VM_PAGER_BATCHES),
    ("machvm.bytes_copied_per_op", keys::BYTES_COPIED),
    ("machvm.pages_remapped_per_op", keys::PAGES_REMAPPED),
    ("machvm.shadow_collapses_per_op", keys::VM_SHADOW_COLLAPSES),
    ("machstorage.disk_reads_per_op", keys::DISK_READS),
    ("machstorage.disk_writes_per_op", keys::DISK_WRITES),
    ("machstorage.disk_bytes_per_op", keys::DISK_BYTES),
    ("machsched.dispatches_per_op", keys::SCHED_DISPATCHES),
    ("machsched.steals_per_op", keys::SCHED_STEALS),
    ("machsched.preemptions_per_op", keys::SCHED_PREEMPTIONS),
    ("machsim.spans_per_op", keys::TRACE_SPANS),
    ("machsim.gauge_samples_per_op", keys::GAUGE_SAMPLES),
];

/// Per-layer numbers from the counter deltas of the untraced rounds.
fn ledger(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let ops: f64 = rounds.iter().map(|r| r.ops as f64).sum();
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let total = |key: &str| sum(&|r| r.counts.get(key) as f64);
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let fastest = rounds.iter().map(|r| r.ops_per_s).fold(f64::MIN, f64::max);
    let slowest = rounds.iter().map(|r| r.ops_per_s).fold(f64::MAX, f64::min);
    let msgs = total(keys::MSG_SENT);
    let (hits, misses) = (
        total(keys::SCHED_AFFINITY_HITS),
        total(keys::SCHED_AFFINITY_MISSES),
    );
    let mut out: Vec<(&'static str, f64)> = PER_OP
        .iter()
        .map(|&(name, key)| (name, total(key) / ops))
        .collect();
    out.extend([
        (
            "machipc.handoff_share",
            share(total(keys::IPC_HANDOFFS), msgs),
        ),
        (
            "machipc.msgs_per_batch",
            share(msgs, total(keys::IPC_BATCHES)),
        ),
        (
            "machvm.cache_hit_share",
            share(total(keys::VM_CACHE_HITS), total(keys::VM_FAULTS)),
        ),
        (
            "machvm.lock_contended_per_kop",
            sum(&|r| r.lock_contended as f64) / ops * 1e3,
        ),
        (
            "machstorage.disk_ops_per_op",
            (total(keys::DISK_READS) + total(keys::DISK_WRITES)) / ops,
        ),
        ("machsched.affinity_hit_share", share(hits, hits + misses)),
        (
            "machsim.trace_dropped_per_op",
            sum(&|r| r.trace_dropped as f64) / ops,
        ),
        ("host.cpu_us_per_op", sum(&|r| r.cpu_us) / ops),
        ("host.tail_us", med(rounds, |r| r.host_tail_us)),
        ("host.round_spread", fastest / slowest),
        ("bench.timed_ops", ops),
    ]);
    out
}

/// Pairs of rounds of `ops` ops, recorder off then on, until `seconds`
/// are used. The untraced rounds go to `untraced` (the counter ledger is
/// theirs); returned are the span metrics, each a median over the traced
/// rounds, and the tracing overhead, the median over pairs of what the
/// recorder cost in `ops_per_s` — neighbours in time, so the box's drift
/// cancels. The first traced round is written out as the trace file.
fn traced_pairs(
    session: &mut Session,
    args: &RunArgs,
    ops: usize,
    seconds: f64,
    untraced: &mut Vec<Round>,
) -> Vec<(&'static str, f64)> {
    let mut overhead = Vec::new();
    let mut per_pair: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<Vec<Span>> = None;
    session.fill(seconds, |s| {
        let off = s.round(ops);
        spans::set_enabled(true);
        let on = s.round(ops);
        spans::set_enabled(false);
        let recorded = spans::drain();
        overhead.push(1.0 - on.ops_per_s / off.ops_per_s);
        for (name, value) in span_metrics(&recorded) {
            per_pair.entry(name).or_default().push(value);
        }
        untraced.push(off);
        if first.is_none() {
            first = Some(recorded);
        }
    });

    let path = args.out_dir.join(format!("trace-{}.json", args.spec.name));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| spans::write_json(file, args.spec.name, &first.unwrap_or_default()));
    if let Err(e) = written {
        session
            .problems
            .push(format!("cannot write {}: {e}", path.display()));
    }

    let mut out: Vec<(&'static str, f64)> = per_pair
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect();
    out.push(("bench.trace_overhead_share", median(&overhead)));
    out
}

/// Turns recorded spans into per-layer times: medians over ops (or over
/// spans of one name), in host microseconds.
pub fn span_metrics(recorded: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in recorded.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in recorded {
        by_name.entry(s.name).or_default().push(s.duration_ns());
    }
    let median_us = |ns: &[u64]| {
        if ns.is_empty() {
            0.0
        } else {
            median_u64(ns) / 1e3
        }
    };
    let name_median = |name: &str| by_name.get(name).map_or(0.0, |d| median_us(d));

    let (mut self_ns, mut request_ns, mut reply_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut io_ns, mut op_ns) = (0u64, 0u64);
    for op in recorded.iter().filter(|s| s.parent == 0 && s.name == "op") {
        let kids = children.get(&op.id).map_or(&[][..], Vec::as_slice);
        let own = spans::self_time_ns(op, kids);
        self_ns.push(own);
        let requests = kids.iter().filter(|k| k.name == "manager.data_request");
        if let (Some(first), Some(last)) = (
            requests.clone().map(|k| k.start_ns).min(),
            requests.map(|k| k.end_ns).max(),
        ) {
            request_ns.push(first.saturating_sub(op.start_ns));
            reply_ns.push(op.end_ns.saturating_sub(last));
        }
        if kids.iter().any(|k| k.name.starts_with("unix.")) {
            io_ns += op.duration_ns() - own;
            op_ns += op.duration_ns();
        }
    }
    vec![
        ("machcore.request_path_us", median_us(&request_ns)),
        ("machcore.reply_path_us", median_us(&reply_ns)),
        ("manager.service_us", name_median("manager.data_request")),
        ("kernel.self_us", median_us(&self_ns)),
        ("machunix.open_us", name_median("unix.open")),
        ("machunix.read_us", name_median("unix.read")),
        ("machunix.write_us", name_median("unix.write")),
        ("machunix.close_us", name_median("unix.close")),
        (
            "machunix.io_share",
            if op_ns > 0 {
                io_ns as f64 / op_ns as f64
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: if parent == 0 { id } else { parent },
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn span_metrics_split_an_op_into_paths() {
        let recorded = [
            span(1, 0, "op", 1_000, 21_000),
            span(2, 1, "manager.data_request", 4_000, 6_000),
            span(3, 1, "manager.data_request", 5_000, 9_000),
            // A pageout the daemon started between ops has no op.
            span(4, 0, "manager.data_write", 30_000, 31_000),
        ];
        let m: BTreeMap<_, _> = span_metrics(&recorded).into_iter().collect();
        assert_eq!(m["machcore.request_path_us"], 3.0);
        assert_eq!(m["machcore.reply_path_us"], 12.0);
        assert_eq!(m["manager.service_us"], 3.0);
        // 20 µs op minus the 5 µs its two overlapping children cover.
        assert_eq!(m["kernel.self_us"], 15.0);
        assert_eq!(m["machunix.io_share"], 0.0);
    }

    #[test]
    fn io_share_is_the_covered_part_of_the_op() {
        let recorded = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "unix.read", 10, 40),
            span(3, 1, "unix.read", 30, 60),
            span(4, 1, "unix.open", 70, 80),
        ];
        let m: BTreeMap<_, _> = span_metrics(&recorded).into_iter().collect();
        assert_eq!(m["machunix.io_share"], 0.6);
        assert_eq!(m["machunix.read_us"], 0.03);
        assert_eq!(m["kernel.self_us"], 0.04);
    }

    #[test]
    fn scaled_round_sizes_stay_divisible_by_clients() {
        assert_eq!(scaled(1_000, 0.1, 2), 100);
        assert_eq!(scaled(1_000, 0.0031, 2), 2);
        assert_eq!(scaled(25, 1.0, 2), 24);
        assert_eq!(scaled(10, 0.0, 1), 1);
    }
}
