//! E20 — IPC scaling: batched transfer and the RPC handoff on a one-lock
//! port.
//!
//! Workload A measures raw message throughput through a single port as
//! sender threads are added: K senders blast messages at one receiver.
//! Every sender and the receiver take the port's one lock, so the
//! unbatched numbers show what that lock costs per message as senders
//! are added; the batched `send_many`/`receive_many` calls amortize one
//! lock acquisition and one simulated cost charge over the whole batch —
//! both variants are measured so the batching gain is visible directly.
//!
//! Workload B measures the simulated cost of RPC with and without the
//! handoff cost class: a ping-pong client/server pair where a send to an
//! already-parked peer is charged as a thread handoff rather than a
//! queue insertion plus a scheduler wakeup (`handoff_ns` versus
//! `message_ns` in the cost model).
//!
//! Results are printed and also written as machine-readable JSON to
//! `BENCH_ipc.json` at the repository root, the first entry in the bench
//! trajectory ROADMAP item 5 calls for.
//!
//! Run with `--smoke` for a seconds-scale sanity pass (used by
//! `scripts/check.sh`); the full run sizes the workloads for stable
//! numbers.

use machipc::{Message, ReceiveRight};
use machsim::wall;
use machsim::Machine;
use std::time::Duration;

/// Messages per `send_many`/`receive_many` call in batched mode.
const BATCH: usize = 64;

/// Workload A: K sender threads push `per_thread` messages each through
/// one port; returns wall-clock messages per second.
fn port_throughput(threads: usize, per_thread: usize, batched: bool) -> f64 {
    let m = Machine::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&m);
    rx.set_backlog(4096);
    // Measure steady-state queue traffic: the handoff path only triggers
    // on an empty queue with a parked receiver, which this workload never
    // is, but disable it so the comparison is exact.
    rx.set_handoff(false);
    let total = threads * per_thread;
    let start = wall::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(move || {
                if batched {
                    let mut sent = 0usize;
                    while sent < per_thread {
                        let n = (per_thread - sent).min(BATCH);
                        let batch: Vec<Message> = (0..n).map(|i| Message::new(i as u32)).collect();
                        let delivered = tx
                            .send_many(batch, None)
                            .expect("batched send to a live port succeeds");
                        sent += delivered;
                    }
                } else {
                    for i in 0..per_thread {
                        tx.send(Message::new(i as u32), None)
                            .expect("send to a live port succeeds");
                    }
                }
            });
        }
        let rx = &rx;
        s.spawn(move || {
            let mut got = 0usize;
            while got < total {
                if batched {
                    got += rx
                        .receive_many(BATCH, Some(Duration::from_secs(60)))
                        .expect("bench traffic arrives within the timeout")
                        .len();
                } else {
                    rx.receive(Some(Duration::from_secs(60)))
                        .expect("bench traffic arrives within the timeout");
                    got += 1;
                }
            }
        });
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// Workload B: `iters` ping-pong RPCs; returns simulated nanoseconds per
/// round trip (the cost-model view, independent of host speed).
fn rpc_sim_ns(handoff: bool, iters: usize) -> f64 {
    let m = Machine::default_machine();
    let (srx, stx) = ReceiveRight::allocate(&m);
    srx.set_handoff(handoff);
    let server = std::thread::spawn(move || {
        while let Ok(req) = srx.receive(None) {
            if req.id == u32::MAX {
                break;
            }
            let Some(reply) = req.reply else { continue };
            let _ = reply.send(Message::new(req.id + 1), None);
        }
    });
    let before = m.clock.now_ns();
    for i in 0..iters {
        let resp = stx
            .rpc(Message::new(i as u32), None, Some(Duration::from_secs(60)))
            .expect("rpc to a live server succeeds");
        assert_eq!(resp.id, i as u32 + 1);
    }
    let elapsed = m.clock.now_ns() - before;
    stx.send(Message::new(u32::MAX), None)
        .expect("shutdown message reaches the server");
    server.join().expect("server thread exits cleanly");
    elapsed as f64 / iters as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per_thread, rpc_iters) = if smoke {
        (4_000usize, 2_000usize)
    } else {
        (40_000, 20_000)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("ipc_scaling (msgs/thread={per_thread}, rpc iters={rpc_iters}, {cores} cores)");
    println!("A. one port, K senders -> 1 receiver, wall-clock msgs/s:");
    let mut rows = Vec::new();
    for &k in &[1usize, 2, 4, 8] {
        let unbatched = port_throughput(k, per_thread, false);
        let batched = port_throughput(k, per_thread, true);
        println!(
            "   threads={k}: unbatched {unbatched:>10.0} msgs/s | batched {batched:>10.0} msgs/s  ({:.2}x)",
            batched / unbatched
        );
        rows.push((k, unbatched, batched));
    }

    println!("B. ping-pong rpc, simulated ns per round trip:");
    let enqueue_ns = rpc_sim_ns(false, rpc_iters);
    let handoff_ns = rpc_sim_ns(true, rpc_iters);
    println!(
        "   enqueue: {enqueue_ns:>9.0} ns/rpc\n   handoff: {handoff_ns:>9.0} ns/rpc  ({:.2}x cheaper)",
        enqueue_ns / handoff_ns
    );

    // Machine-readable trajectory entry at the repository root.
    let mut json = String::from("{\n  \"bench\": \"ipc_scaling\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"port_throughput\": [\n");
    for (i, (k, unbatched, batched)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {k}, \"unbatched_msgs_per_sec\": {unbatched:.0}, \"batched_msgs_per_sec\": {batched:.0}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"rpc\": {{\"enqueue_sim_ns\": {enqueue_ns:.0}, \"handoff_sim_ns\": {handoff_ns:.0}}},\n"
    ));
    // Host-independent ratios for `report bench-diff` ([ipc_scaling] in
    // bench-baseline.toml): the batching and handoff gains, not the raw
    // msgs/s numbers, are what must not regress.
    let batched_over_unbatched_best = rows
        .iter()
        .map(|(_, unbatched, batched)| batched / unbatched)
        .fold(0.0f64, f64::max);
    let enqueue_over_handoff = enqueue_ns / handoff_ns;
    json.push_str(&format!(
        "  \"batched_over_unbatched_best\": {batched_over_unbatched_best:.3},\n  \"enqueue_over_handoff\": {enqueue_over_handoff:.3}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ipc.json");
    std::fs::write(path, &json).expect("write BENCH_ipc.json at the repo root");
    println!("wrote {path}");

    if smoke {
        // Batching must amortize: fewer lock acquisitions and charges per
        // message can only help, on any host.
        let (_, unbatched_max, batched_max) = rows.last().expect("rows populated");
        assert!(
            batched_max > unbatched_max,
            "batched ({batched_max:.0}/s) did not beat unbatched ({unbatched_max:.0}/s)"
        );
        // The multi-thread claim needs real parallelism to test.
        if cores >= 2 {
            let single = rows[0].2;
            let multi = rows[1..].iter().map(|r| r.2).fold(0.0f64, f64::max);
            assert!(
                multi > single,
                "multi-thread batched ({multi:.0}/s) did not exceed single-thread ({single:.0}/s)"
            );
        }
        // The handoff charges `handoff_ns`, never more than a queued
        // message's `message_ns`; with zero successful handoffs the two
        // runs charge identically, so <= is the invariant.
        assert!(
            handoff_ns <= enqueue_ns,
            "handoff rpc ({handoff_ns:.0} sim-ns) charged more than enqueue ({enqueue_ns:.0} sim-ns)"
        );
        println!("smoke assertions passed");
    }
}
