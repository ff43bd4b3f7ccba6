//! The six workloads and what they share: the op-timing buffer, the
//! benchmark's own data manager, and the table that names them.
//!
//! Every workload is a closed loop: a client issues its next op only after
//! the previous one completed and was checked. Client counts never exceed
//! the two cores of the box this was sized on.

pub mod msg_ool;
pub mod msg_rpc;
pub mod pager;
pub mod unix_build;
pub mod vm_fork;

use crate::stats::Percentile;
use crate::{probes, spans};
use machcore::Kernel;
use machsim::{Machine, SimClock};
use std::sync::Arc;
use std::time::Instant;

/// Page size of every kernel the benchmark boots.
pub const PAGE: u64 = 4096;

/// How long an op may wait on a port before it counts as failed.
pub const OP_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Failure reasons kept per round; the count of failed ops is exact.
const MAX_ERRORS: usize = 5;

/// Per-op samples of one round, plus the ops that failed in it.
#[derive(Default)]
pub struct OpSamples {
    pub host_ns: Vec<u64>,
    pub sim_ns: Vec<u64>,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub errors: Vec<String>,
}

impl OpSamples {
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            host_ns: Vec::with_capacity(ops),
            sim_ns: Vec::with_capacity(ops),
            ..Self::default()
        }
    }

    pub fn clear(&mut self) {
        self.host_ns.clear();
        self.sim_ns.clear();
        self.failed = 0;
        self.errors.clear();
    }

    /// Runs one op of `client` as its caller sees it: host latency from
    /// `Instant`, simulated latency from the machine clock, and — with
    /// the recorder on — the op's root span. An `Err` is a failed op; its
    /// sample is kept, since a failed op still took that long.
    pub fn time<T>(
        &mut self,
        clock: &SimClock,
        client: usize,
        op: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let span = spans::op(client);
        let sim0 = clock.now_ns();
        let t0 = Instant::now();
        let result = std::hint::black_box(op());
        let host = t0.elapsed().as_nanos() as u64;
        let sim = clock.now_ns().saturating_sub(sim0);
        drop(span);
        self.host_ns.push(host);
        self.sim_ns.push(sim);
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts one failed op (an output check that did not hold).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.errors.push(reason);
        self.errors.truncate(MAX_ERRORS);
    }

    pub fn merge(&mut self, other: OpSamples) {
        self.host_ns.extend(other.host_ns);
        self.sim_ns.extend(other.sim_ns);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(MAX_ERRORS);
    }
}

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// The simulated machine whose clock and counters the ops charge.
    fn machine(&self) -> &Machine;

    /// The kernel, for the end-of-run census; `None` for the bare-IPC
    /// workload.
    fn kernel(&self) -> Option<&Arc<Kernel>> {
        None
    }

    /// Runs `ops` ops, appending one sample per op to `out`.
    fn round(&mut self, ops: usize, out: &mut OpSamples);

    /// Output checks that only make sense once, after the last round.
    /// Each returned line is one violation.
    fn final_check(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer numbers only this workload's set-up can give.
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line, ≤ 200 characters;
    /// `BENCHMARK.json` repeats it).
    pub why: &'static str,
    pub clients: usize,
    /// Whether every thread of the run shares one core (see
    /// `host::pin_to_one_core`): yes for the single-client workloads, whose
    /// op is one chain of hand-offs between threads; no where two clients
    /// or two simulated CPUs really run side by side.
    pub one_core: bool,
    /// Ops per timed round: fixed, so simulated totals of equal rounds
    /// compare exactly. Sized to roughly half a second on the 2-core box
    /// (`unix_build`: 200 builds, the fewest that leave ten beyond p95).
    pub ops_per_round: usize,
    /// The tail percentile: the highest with at least ten samples beyond
    /// it in one round.
    pub tail: Percentile,
    pub setup: fn(seed: u64) -> Box<dyn Workload>,
    /// The probes whose layer this workload leans on most; its traced run
    /// is the one that takes them, so each probe runs once per suite.
    pub probes: fn() -> Vec<(&'static str, f64)>,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "msg_rpc",
        why: "Communication alone: 64-byte handoff RPC on a bare machipc port pair, no kernel, so machvm does no work.",
        clients: 1,
        one_core: true,
        ops_per_round: 50_000,
        tail: Percentile::P999,
        setup: msg_rpc::setup,
        probes: probes::ipc,
    },
    Spec {
        name: "msg_ool",
        why: "Communication implemented by memory: a small message carries a 64 KiB copy-on-write region.",
        clients: 1,
        one_core: true,
        ops_per_round: 10_000,
        // Not p99.9: about 1 op in 1 000 still meets a queued message
        // (75 sim-µs more), which puts p99.9 on the edge between the two
        // costs, 825 or 900 from one run to the next.
        tail: Percentile::P99,
        setup: msg_ool::setup,
        probes: probes::none,
    },
    Spec {
        name: "vm_fork",
        why: "Memory alone: fork, copy-on-write and zero-fill faults, zero messages; the control for IPC changes.",
        clients: 1,
        one_core: true,
        ops_per_round: 1_000,
        tail: Percentile::P99,
        setup: vm_fork::setup,
        probes: probes::vm,
    },
    Spec {
        name: "pager_read",
        why: "Memory implemented by communication: two clients fault-ahead through an external pager, 4x memory.",
        clients: 2,
        one_core: false,
        ops_per_round: 1_000,
        tail: Percentile::P99,
        setup: pager::setup_read,
        probes: probes::none,
    },
    Spec {
        name: "pager_write",
        why: "The same layers used for writes: blocking write faults, pageout daemon, laundry, data_write.",
        clients: 1,
        one_core: true,
        ops_per_round: 5_000,
        tail: Percentile::P99,
        setup: pager::setup_write,
        probes: probes::none,
    },
    Spec {
        name: "unix_build",
        why: "The paper's yardstick: a warm 24-unit parallel rebuild through machunix, machsched, FileServer, disk.",
        clients: 1,
        one_core: false,
        ops_per_round: 200,
        tail: Percentile::P95,
        setup: unix_build::setup,
        probes: probes::unix,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A distinct generator per (seed, client): the same seed always gives
/// the same op sequence, whatever the timing.
pub fn client_rng(seed: u64, client: usize) -> machsim::SplitMix64 {
    let mut mix = machsim::SplitMix64::new(seed ^ 0x6D61_6368_6D61_726B);
    for _ in 0..=client {
        mix.next_u64();
    }
    machsim::SplitMix64::new(mix.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MIN_BEYOND;

    #[test]
    fn every_round_has_ten_samples_beyond_its_tail() {
        for w in &WORKLOADS {
            assert!(
                w.tail.beyond(w.ops_per_round) >= MIN_BEYOND,
                "{}: {} leaves {} samples beyond in {} ops",
                w.name,
                w.tail.label(),
                w.tail.beyond(w.ops_per_round),
                w.ops_per_round
            );
            assert_eq!(w.tail, w.tail.capped_for(w.ops_per_round));
            assert!(w.clients <= spans::MAX_CLIENTS);
            assert_eq!(w.ops_per_round % w.clients, 0, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn op_sequences_repeat_for_a_seed_and_differ_across_seeds() {
        // The generator a workload draws its ops from, not just the raw
        // stream.
        let offsets = |seed| {
            let mut r = client_rng(seed, 0);
            (0..64)
                .map(|_| pager::read_offset(&mut r, 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(offsets(1987), offsets(1987));
        assert_ne!(offsets(1987), offsets(1988));
    }

    #[test]
    fn same_seed_same_sequence_and_clients_differ() {
        let draw = |seed, client| {
            let mut r = client_rng(seed, client);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }
}
