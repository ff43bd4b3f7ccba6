//! Probes: host-time micro-measurements of single public calls.
//!
//! The op's self time in the traced run is the kernel's share as a whole
//! (`machvm` + `machipc` + `machcore`); the probes split it further from
//! outside, one layer per probe, each on a rig of its own. A probe rides
//! with the traced run of the one workload that leans on its layer most
//! (`Spec::probes`), under that workload's thread placement, so it runs
//! once per suite. Each value is a median of many samples, in host
//! microseconds per call.

use crate::stats::median;
use crate::workloads::{OP_TIMEOUT, PAGE};
use machcore::{Kernel, KernelConfig, Task};
use machipc::{Message, MsgItem, ReceiveRight};
use machpagers::{FileServer, FsClient};
use machsim::Machine;
use machstorage::{BlockDevice, FlatFs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median over `samples` samples of the per-call time of `batch` calls.
fn per_call_us(samples: usize, batch: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                call();
            }
            t0.elapsed().as_nanos() as f64 / 1e3 / batch as f64
        })
        .collect();
    median(&times)
}

/// Same-thread send + receive of a 64-byte message through a port with a
/// backlog of 1024: queue and slab, no wakeup.
fn ipc_queue_us() -> f64 {
    let machine = Machine::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&machine);
    rx.set_backlog(1024);
    let payload = [7u8; 64];
    per_call_us(200, 100, || {
        tx.send(
            machipc::slab::message(1).with(machipc::slab::bytes(&payload)),
            Some(OP_TIMEOUT),
        )
        .expect("probe send");
        machipc::slab::recycle(rx.receive(Some(OP_TIMEOUT)).expect("probe receive"));
    })
}

/// One-way send to a receiver parked on another thread, timed from the
/// send to the receiver's return: queue cost plus the thread wakeup.
fn ipc_wakeup_us() -> f64 {
    const ROUNDS: usize = 1_000;
    let machine = Machine::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&machine);
    let epoch = Instant::now();
    let (woke_tx, woke_rx) = std::sync::mpsc::channel::<u64>();
    let receiver = std::thread::spawn(move || {
        while let Ok(m) = rx.receive(Some(OP_TIMEOUT)) {
            let woke = epoch.elapsed().as_nanos() as u64;
            if m.id == 0 || woke_tx.send(woke).is_err() {
                break;
            }
        }
    });
    let mut times = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        // Give the receiver time to park again; a send that finds it
        // still running would measure a queue hit, not a wakeup.
        let until = Instant::now() + Duration::from_micros(60);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        let sent = epoch.elapsed().as_nanos() as u64;
        tx.send(
            Message::new(1).with(MsgItem::bytes(vec![7u8; 64])),
            Some(OP_TIMEOUT),
        )
        .expect("probe send");
        match woke_rx.recv_timeout(OP_TIMEOUT) {
            Ok(woke) => times.push(woke.saturating_sub(sent) as f64 / 1e3),
            Err(_) => break,
        }
    }
    let _ = tx.send(Message::new(0), Some(OP_TIMEOUT));
    let _ = receiver.join();
    median(&times)
}

/// Resident hit, zero fill, copy-on-write and fork on one 16 MiB kernel;
/// rides with `vm_fork`.
pub fn vm() -> Vec<(&'static str, f64)> {
    const PAGES: u64 = 64;
    let mut out = Vec::new();
    let kernel = Kernel::boot(KernelConfig::with_memory(16 << 20));
    let task = Task::create(&kernel, "probe");
    let region = task.vm_allocate(PAGES * PAGE).expect("probe region");
    for p in 0..PAGES {
        task.write_memory(region + p * PAGE, &[1])
            .expect("dirty the probe region");
    }

    let mut b = [0u8; 8];
    out.push((
        "machvm.probe_hit_us",
        per_call_us(200, 100, || {
            task.read_memory(region, &mut b).expect("resident read");
            black_box(&b);
        }),
    ));

    let mut zero_fill = Vec::new();
    let mut cow = Vec::new();
    let mut fork = Vec::new();
    for _ in 0..8 {
        let fresh = task.vm_allocate(PAGES * PAGE).expect("fresh region");
        for p in 0..PAGES {
            let t0 = Instant::now();
            task.write_memory(fresh + p * PAGE, &[1])
                .expect("zero-fill touch");
            zero_fill.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        task.vm_deallocate(fresh, PAGES * PAGE)
            .expect("drop fresh region");

        let t0 = Instant::now();
        let child = task.fork("probe-child");
        fork.push(t0.elapsed().as_nanos() as f64 / 1e3);
        for p in 0..PAGES {
            let t0 = Instant::now();
            child
                .write_memory(region + p * PAGE, &[2])
                .expect("copy-on-write touch");
            cow.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    for _ in 0..192 {
        let t0 = Instant::now();
        let child = task.fork("probe-child");
        fork.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop(child);
    }
    out.push(("machvm.probe_zero_fill_us", median(&zero_fill)));
    out.push(("machvm.probe_cow_us", median(&cow)));
    out.push(("machvm.probe_fork_us", median(&fork)));
    out
}

/// The layers only `unix_build` has on its path: a scheduler unit's
/// spawn + join, `open_mapped` of a warm file, one block write + read.
pub fn unix() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 8 << 20,
        sched_cpus: 2,
        ..KernelConfig::default()
    });
    let task = Task::create(&kernel, "probe");
    out.push((
        "machsched.probe_spawn_join_us",
        per_call_us(300, 1, || kernel.scheduler().spawn(0, || {}).join()),
    ));

    // `open_mapped` + `vm_deallocate` of a warm file on a file server
    // over this kernel's machine.
    let dev = Arc::new(BlockDevice::new(kernel.machine(), 256));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(kernel.machine(), fs);
    let client = FsClient::new(server.port().clone());
    const FILE_BYTES: usize = 64 << 10;
    client.create("probe").expect("create probe file");
    client
        .write_file("probe", &vec![3u8; FILE_BYTES])
        .expect("fill probe file");
    let open = || {
        let (addr, size) = client.open_mapped(&task, "probe").expect("open_mapped");
        task.vm_deallocate(addr, size).expect("unmap probe file");
    };
    open();
    out.push(("machpagers.probe_open_mapped_us", per_call_us(300, 1, open)));
    block_probes(&mut out);
    out
}

/// One block write + read on a bare machine: the host cost of the disk
/// model, and the simulated cost it charges (which pins the cost model:
/// two accesses plus two block transfers).
fn block_probes(out: &mut Vec<(&'static str, f64)>) {
    const SAMPLES: usize = 200;
    const BATCH: usize = 20;
    let machine = Machine::default_machine();
    let dev = BlockDevice::new(&machine, 8);
    let mut block = vec![0u8; machstorage::BLOCK_SIZE];
    let rw_us = per_call_us(SAMPLES, BATCH, || {
        dev.write_block(7, &block).expect("probe block write");
        dev.read_block(7, &mut block).expect("probe block read");
    });
    out.push(("machstorage.probe_block_rw_us", rw_us));
    out.push((
        "machstorage.probe_block_sim_us",
        machine.clock.now_ns() as f64 / 1e3 / (SAMPLES * BATCH) as f64,
    ));
}

/// Queue cost and wakeup cost apart; rides with `msg_rpc`.
pub fn ipc() -> Vec<(&'static str, f64)> {
    vec![
        ("machipc.probe_queue_us", ipc_queue_us()),
        ("machipc.probe_wakeup_us", ipc_wakeup_us()),
    ]
}

/// For a workload no probe rides with.
pub fn none() -> Vec<(&'static str, f64)> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use crate::catalog;
    use crate::workloads::WORKLOADS;

    #[test]
    fn a_probe_rides_with_the_workload_whose_path_it_is_on() {
        let mut taken = 0;
        for w in &WORKLOADS {
            for (name, value) in (w.probes)() {
                assert!(
                    catalog::find(name).is_some(),
                    "{name} is not in the catalog"
                );
                assert!(
                    catalog::on_path(name, w.name),
                    "{name} rode with {}",
                    w.name
                );
                assert!(value > 0.0, "{name} = {value}");
                taken += 1;
            }
        }
        let listed = catalog::PER_LAYER
            .iter()
            .filter(|m| m.name.contains(".probe_"))
            .count();
        assert_eq!(taken, listed);
    }
}
