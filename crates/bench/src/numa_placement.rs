//! E19 — NUMA placement policy ablation.
//!
//! Four simulated CPUs (one per memory node) run the same three-phase
//! workload against one `PhysicalMemory` under increasingly aggressive
//! placement policies:
//!
//! * **none** — round-robin frame striping, the placement-blind baseline;
//! * **first-touch** — faulted pages land on the faulting CPU's node;
//! * **+replication** — read-hot pages additionally grow per-node
//!   read-only replicas (write shootdown keeps them coherent);
//! * **+migration** — write-hot pages additionally migrate to their
//!   dominant writer's node.
//!
//! The phases: (a) each CPU touches a private region, (b) every CPU
//! repeatedly reads a region first touched by CPU 0, (c) CPU 3 repeatedly
//! writes a region first touched by CPU 0. On a NUMA machine each policy
//! step should convert remote word accesses into local ones and cut total
//! simulated time; on a UMA machine placement is invisible to the clock,
//! so every configuration must cost exactly the same.
//!
//! The workload is single-threaded (the "CPUs" are role-played through
//! [`machvm::numa::set_current_node`]), so fault counts, placement and
//! simulated time are fully deterministic — the `--smoke` mode asserts
//! the orderings rather than eyeballing them.

use crate::table::{fmt_ns, Table};
use machsim::stats::keys;
use machsim::{Machine, Topology};
use machvm::{FaultEngineConfig, NumaConfig, PhysicalMemory, VmMap};

/// Memory nodes (and role-played CPUs) in the experiment.
pub const NODES: usize = 4;

/// One (topology, policy) configuration's outcome.
#[derive(Clone, Debug)]
pub struct NumaRow {
    /// Machine class the workload ran on.
    pub topology: Topology,
    /// Policy-ladder label ("none", "first-touch", ...).
    pub policy: &'static str,
    /// Page accesses served from the accessing CPU's node.
    pub local_hits: u64,
    /// Page accesses that crossed nodes.
    pub remote_hits: u64,
    /// Replicas created.
    pub replications: u64,
    /// Pages migrated.
    pub migrations: u64,
    /// Replica sets invalidated by writes.
    pub shootdowns: u64,
    /// Total simulated time for the workload.
    pub total_ns: u64,
}

/// The cumulative policy ladder of the ablation.
pub fn policy_ladder() -> Vec<(&'static str, NumaConfig)> {
    vec![
        ("none", NumaConfig::nodes(NODES)),
        ("first-touch", NumaConfig::nodes(NODES).with_first_touch()),
        (
            "+replication",
            NumaConfig::nodes(NODES)
                .with_first_touch()
                .with_replication(),
        ),
        ("+migration", NumaConfig::all_policies(NODES)),
    ]
}

/// Runs the three-phase workload once; `pages` is the size of each of the
/// five regions (one private region per CPU plus one shared region).
pub fn run(topology: Topology, numa: NumaConfig, pages: u64, rounds: u32) -> NumaRow {
    let m = Machine::with_topology(topology);
    // Ample memory: placement, not replacement, is under test.
    let bytes = ((NODES as u64 + 3) * pages * 2 + 64) as usize * 4096;
    let phys = PhysicalMemory::with_config(&m, bytes, 4096, 8, numa, FaultEngineConfig::default());
    let map = VmMap::new(&phys);
    let ps = 4096u64;
    let page = vec![0u8; ps as usize];
    let mut buf = vec![0u8; ps as usize];

    // Phase (a): private regions, first-touch's home turf. Each CPU
    // writes its region once, then reads it back `rounds` times.
    let mut private = Vec::new();
    for node in 0..NODES {
        machvm::numa::set_current_node(Some(node));
        let base = map.allocate(None, pages * ps).unwrap();
        private.push(base);
        for p in 0..pages {
            map.access_write(base + p * ps, &page).unwrap();
        }
        for _ in 0..rounds {
            for p in 0..pages {
                map.access_read(base + p * ps, &mut buf).unwrap();
            }
        }
    }

    // Phase (b): a read-hot shared region, replication's home turf. CPU 0
    // touches it first (placing it on node 0 under first-touch); the
    // other CPUs then read it over and over.
    machvm::numa::set_current_node(Some(0));
    let shared = map.allocate(None, pages * ps).unwrap();
    for p in 0..pages {
        map.access_write(shared + p * ps, &page).unwrap();
    }
    for _ in 0..rounds {
        for node in 1..NODES {
            machvm::numa::set_current_node(Some(node));
            for p in 0..pages {
                map.access_read(shared + p * ps, &mut buf).unwrap();
            }
        }
    }
    // A writer then invalidates whatever replicas grew (the shootdown
    // path), and the readers come back once more.
    machvm::numa::set_current_node(Some(0));
    for p in 0..pages {
        map.access_write(shared + p * ps, &page).unwrap();
    }
    for node in 1..NODES {
        machvm::numa::set_current_node(Some(node));
        for p in 0..pages {
            map.access_read(shared + p * ps, &mut buf).unwrap();
        }
    }

    // Phase (c): a write-hot region, migration's home turf. CPU 0 touches
    // it first; CPU 3 then becomes the sole (remote) writer.
    machvm::numa::set_current_node(Some(0));
    let hot = map.allocate(None, pages * ps).unwrap();
    for p in 0..pages {
        map.access_write(hot + p * ps, &page).unwrap();
    }
    machvm::numa::set_current_node(Some(NODES - 1));
    for _ in 0..rounds {
        for p in 0..pages {
            map.access_write(hot + p * ps, &page).unwrap();
        }
    }
    machvm::numa::set_current_node(None);

    NumaRow {
        topology,
        policy: "",
        local_hits: m.stats.get(keys::NUMA_LOCAL_HITS),
        remote_hits: m.stats.get(keys::NUMA_REMOTE_HITS),
        replications: m.stats.get(keys::NUMA_REPLICATIONS),
        migrations: m.stats.get(keys::NUMA_MIGRATIONS),
        shootdowns: m.stats.get(keys::NUMA_SHOOTDOWNS),
        total_ns: m.clock.now_ns(),
    }
}

/// Runs the full ablation: the policy ladder on UMA and NUMA machines.
pub fn run_all(pages: u64, rounds: u32) -> Vec<NumaRow> {
    let mut rows = Vec::new();
    for topology in [Topology::Uma, Topology::Numa] {
        for (label, numa) in policy_ladder() {
            let mut row = run(topology, numa, pages, rounds);
            row.policy = label;
            rows.push(row);
        }
    }
    rows
}

/// Default sizing for the report run.
pub fn run_default() -> Vec<NumaRow> {
    run_all(32, 8)
}

/// Renders the E19 table.
pub fn table(rows: &[NumaRow]) -> Table {
    let mut t = Table::new(
        "E19 — NUMA placement policy ablation (4 nodes)",
        &[
            "class",
            "policy",
            "local",
            "remote",
            "repl",
            "migr",
            "shoot",
            "total time",
        ],
    );
    for r in rows {
        t.row(&[
            r.topology.to_string(),
            r.policy.to_string(),
            r.local_hits.to_string(),
            r.remote_hits.to_string(),
            r.replications.to_string(),
            r.migrations.to_string(),
            r.shootdowns.to_string(),
            fmt_ns(r.total_ns),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape() {
        let ladder = policy_ladder();
        assert_eq!(ladder.len(), 4);
        assert!(!ladder[0].1.first_touch);
        assert!(ladder[3].1.migration);
    }

    #[test]
    fn numa_policies_reduce_remote_hits_and_time() {
        let rows: Vec<NumaRow> = policy_ladder()
            .into_iter()
            .map(|(label, numa)| {
                let mut r = run(Topology::Numa, numa, 8, 6);
                r.policy = label;
                r
            })
            .collect();
        for w in rows.windows(2) {
            assert!(
                w[1].remote_hits < w[0].remote_hits,
                "{} -> {}: remote hits {} !< {}",
                w[0].policy,
                w[1].policy,
                w[1].remote_hits,
                w[0].remote_hits
            );
            assert!(
                w[1].total_ns < w[0].total_ns,
                "{} -> {}: total ns {} !< {}",
                w[0].policy,
                w[1].policy,
                w[1].total_ns,
                w[0].total_ns
            );
        }
        assert!(rows[2].replications > 0);
        assert!(rows[2].shootdowns > 0);
        assert!(rows[3].migrations > 0);
        assert_eq!(rows[0].replications + rows[0].migrations, 0);
        assert_eq!(rows[1].replications + rows[1].migrations, 0);
    }

    #[test]
    fn uma_is_flat_across_policies() {
        let times: Vec<u64> = policy_ladder()
            .into_iter()
            .map(|(_, numa)| run(Topology::Uma, numa, 8, 6).total_ns)
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] == w[1]),
            "UMA times vary across policies: {times:?}"
        );
    }
}
