//! Stress and convergence tests: many threads, many tasks, random
//! schedules — the concurrency the paper's multiprocessor setting implies.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machnet::Fabric;
use machpagers::SharedMemoryServer;
use machsim::SplitMix64;
use machvm::VmProt;
use std::time::Duration;

const PAGE: u64 = 4096;

struct OffsetPager;

impl DataManager for OffsetPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let data: Vec<u8> = (offset..offset + length)
            .map(|i| (i / PAGE) as u8)
            .collect();
        k.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }
}

#[test]
fn many_threads_fault_one_object_concurrently() {
    // Eight threads race over 64 pages of one pager-backed object; every
    // read must see the right contents and the pager must be asked at most
    // once per page.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 64 << 20,
        ..KernelConfig::default()
    });
    let task = Task::create(&kernel, "storm");
    let mgr = spawn_manager(kernel.machine(), "offsets", OffsetPager);
    let pages = 64u64;
    let addr = task
        .vm_allocate_with_pager(None, pages * PAGE, mgr.port(), 0)
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let task = task.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::new(t + 1);
                for _ in 0..200 {
                    let p = rng.next_below(pages);
                    let mut b = [0u8; 1];
                    task.read_memory(addr + p * PAGE, &mut b).unwrap();
                    assert_eq!(b[0], p as u8, "page {p} contents");
                }
            });
        }
    });
    assert!(
        kernel
            .machine()
            .stats
            .get(machsim::stats::keys::VM_PAGER_FILLS)
            <= pages,
        "concurrent faults coalesced per page"
    );
    // The stall watchdog runs by default: a healthy (if congested) pager
    // must never be flagged — zero false positives under contention.
    assert_eq!(
        kernel
            .machine()
            .stats
            .get(machsim::stats::keys::WATCHDOG_STALLS),
        0,
        "healthy run flagged by the stall watchdog"
    );
    // With `--features lockdep` every classified lock acquisition above was
    // order-checked against the declared hierarchy (panicking on violation);
    // assert the witness actually saw nested traffic so a silent no-op
    // build cannot masquerade as a clean run.
    #[cfg(feature = "lockdep")]
    assert!(
        machvm::lockdep::nested_acquisitions() > 0,
        "lockdep witness saw no nested acquisitions in an 8-thread fault storm"
    );
}

#[test]
fn fork_storm_under_memory_pressure() {
    // Repeated fork/write/drop under a small memory: copy-on-write,
    // shadow collapse, pageout and the default pager all churn together;
    // data must stay correct throughout.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 16 * 4096,
        reserve_pages: 4,
        ..KernelConfig::default()
    });
    let mut current = Task::create(&kernel, "gen0");
    let pages = 16u64;
    let addr = current.vm_allocate(pages * PAGE).unwrap();
    for i in 0..pages {
        current
            .write_memory(addr + i * PAGE, &[0, i as u8])
            .unwrap();
    }
    for gen in 1..=12u8 {
        let child = current.fork(&format!("gen{gen}"));
        drop(current);
        // The child mutates a sliding window of pages.
        for i in 0..4u64 {
            let p = (gen as u64 + i) % pages;
            child
                .write_memory(addr + p * PAGE, &[gen, p as u8])
                .unwrap();
        }
        // Every page still carries its page number in byte 1.
        for p in 0..pages {
            let mut b = [0u8; 2];
            child.read_memory(addr + p * PAGE, &mut b).unwrap();
            assert_eq!(b[1], p as u8, "generation {gen}, page {p}");
        }
        current = child;
    }
    assert!(
        kernel
            .machine()
            .stats
            .get(machsim::stats::keys::VM_PAGEOUTS)
            > 0,
        "pressure reached the pageout path"
    );
}

#[test]
fn netshm_random_schedule_converges() {
    // Three clients on three hosts apply a random interleaving of writes
    // to random pages (each page owned by one writer to keep a defined
    // final value), then everyone must converge on the same final state.
    let fabric = Fabric::new();
    let hs = fabric.add_host("server");
    let hosts: Vec<_> = (0..3).map(|i| fabric.add_host(&format!("h{i}"))).collect();
    let kernels: Vec<_> = hosts
        .iter()
        .map(|h| Kernel::boot_on(h.machine().clone(), KernelConfig::default()))
        .collect();
    let tasks: Vec<_> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| Task::create(k, &format!("t{i}")))
        .collect();
    let pages = 6u64;
    let server = SharedMemoryServer::start(&fabric, &hs, pages * PAGE);
    let addrs: Vec<u64> = tasks
        .iter()
        .zip(hosts.iter())
        .map(|(t, h)| server.attach(t, h).unwrap())
        .collect();
    // Page p is written only by client p % 3; random order, random values.
    let mut rng = SplitMix64::new(2026);
    let mut expected = vec![0u8; pages as usize];
    for _ in 0..60 {
        let p = rng.next_below(pages);
        let v = (rng.next_below(250) + 1) as u8;
        let writer = (p % 3) as usize;
        tasks[writer]
            .write_memory(addrs[writer] + p * PAGE, &[v])
            .unwrap();
        expected[p as usize] = v;
    }
    // Convergence: every client's first read sees the final state, since
    // each write returned once the server had flushed every other copy.
    for (ci, (t, &a)) in tasks.iter().zip(addrs.iter()).enumerate() {
        for p in 0..pages {
            let mut b = [0u8; 1];
            t.read_memory(a + p * PAGE, &mut b).unwrap();
            assert_eq!(b[0], expected[p as usize], "client {ci} page {p}");
        }
    }
}

#[test]
fn port_churn_with_live_traffic() {
    // Allocate, use and destroy thousands of ports while traffic flows;
    // death notifications and queue cleanup must never wedge.
    let kernel = Kernel::boot(KernelConfig::default());
    let machine = kernel.machine().clone();
    std::thread::scope(|s| {
        for t in 0..4 {
            let machine = machine.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::new(t + 77);
                for _ in 0..500 {
                    let (rx, tx) = machipc::ReceiveRight::allocate(&machine);
                    let n = rng.next_below(4);
                    for i in 0..n {
                        tx.send(machipc::Message::new(i as u32), None).unwrap();
                    }
                    if rng.chance(1, 2) {
                        for _ in 0..n {
                            rx.receive(None).unwrap();
                        }
                    }
                    // Dropping rx discards the rest and notifies senders.
                    drop(rx);
                    assert!(!tx.is_alive());
                }
            });
        }
    });
}

#[test]
fn ipc_storm_exercises_batched_single_and_handoff_sends() {
    // Runs the port lock under the lockdep witness (innermost rank: a
    // port is never held while a VM lock is taken): mixed batched and
    // single sends from many threads, batched receives, RPC handoffs and
    // port death all racing.
    let kernel = Kernel::boot(KernelConfig::default());
    let machine = kernel.machine().clone();
    let (rx, tx) = machipc::ReceiveRight::allocate(&machine);
    rx.set_backlog(256);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tx = tx.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::new(t + 31);
                for round in 0..200u32 {
                    if rng.chance(1, 2) {
                        let batch: Vec<machipc::Message> = (0..8)
                            .map(|i| machipc::Message::new(round * 8 + i))
                            .collect();
                        tx.send_many(batch, None).expect("batched send succeeds");
                    } else {
                        for i in 0..8 {
                            tx.send(machipc::Message::new(round * 8 + i), None)
                                .expect("send to a live port succeeds");
                        }
                    }
                }
            });
        }
        // An RPC pair on the side sends handoffs while the main port
        // churns.
        let (srv_rx, srv_tx) = machipc::ReceiveRight::allocate(&machine);
        s.spawn(move || {
            while let Ok(req) = srv_rx.receive(None) {
                if req.id == u32::MAX {
                    break;
                }
                if let Some(reply) = req.reply {
                    let _ = reply.send(machipc::Message::new(req.id + 1), None);
                }
            }
        });
        let mut got = 0usize;
        while got < 4 * 200 * 8 {
            got += rx
                .receive_many(32, Some(Duration::from_secs(30)))
                .expect("stormed messages arrive within the timeout")
                .len();
        }
        for i in 0..50u32 {
            let resp = srv_tx
                .rpc(
                    machipc::Message::new(i),
                    None,
                    Some(Duration::from_secs(30)),
                )
                .expect("rpc to a live server succeeds");
            assert_eq!(resp.id, i + 1);
        }
        srv_tx
            .send(machipc::Message::new(u32::MAX), None)
            .expect("shutdown message reaches the server");
    });
}
