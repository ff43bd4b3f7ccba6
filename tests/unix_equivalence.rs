//! The two UNIX implementations must be observationally equivalent: same
//! operations, same visible file contents — only the cost profile differs.

use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsim::{Machine, SplitMix64};
use machstorage::{BlockDevice, FlatFs};
use machunix::{BaselineUnix, CompileWorkload, MachUnix, UnixIo};
use std::sync::Arc;

fn baseline() -> (Machine, BaselineUnix) {
    let m = Machine::default_machine();
    let dev = Arc::new(BlockDevice::new(&m, 1024));
    let fs = Arc::new(FlatFs::format(dev, 0));
    (m.clone(), BaselineUnix::new(&m, fs, 4 << 20, 10))
}

fn mach() -> (Arc<Kernel>, Arc<FileServer>, MachUnix) {
    let k = Kernel::boot(KernelConfig::default());
    let dev = Arc::new(BlockDevice::new(k.machine(), 1024));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(k.machine(), fs);
    let task = Task::create(&k, "emul");
    let unix = MachUnix::new(&task, FsClient::new(server.port().clone()));
    (k, server, unix)
}

/// Applies a deterministic random operation script; returns the final
/// contents of each file as read back through the interface.
fn run_script(io: &dyn UnixIo, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let files = 3usize;
    let size = 3 * 4096usize;
    for i in 0..files {
        io.create(&format!("f{i}"), size).unwrap();
    }
    let fds: Vec<_> = (0..files)
        .map(|i| io.open(&format!("f{i}")).unwrap())
        .collect();
    for _ in 0..200 {
        let f = rng.next_below(files as u64) as usize;
        let off = rng.next_below((size - 64) as u64) as usize;
        let len = 1 + rng.next_below(63) as usize;
        if rng.chance(1, 2) {
            let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
            io.write(fds[f], off, &data).unwrap();
        } else {
            let mut buf = vec![0u8; len];
            io.read(fds[f], off, &mut buf).unwrap();
        }
    }
    let mut out = Vec::new();
    for (i, fd) in fds.iter().enumerate() {
        let mut buf = vec![0u8; size];
        io.read(*fd, 0, &mut buf).unwrap();
        io.close(*fd).unwrap();
        out.push(buf);
        let _ = i;
    }
    io.sync_all().unwrap();
    out
}

#[test]
fn random_scripts_produce_identical_contents() {
    for seed in [1u64, 42, 1987] {
        let (_mb, b) = baseline();
        let base_result = run_script(&b, seed);
        let (_k, _server, u) = mach();
        let mach_result = run_script(&u, seed);
        assert_eq!(base_result, mach_result, "seed {seed} diverged");
    }
}

#[test]
fn durable_contents_match_after_sync() {
    // After sync_all, the on-disk filesystem contents must agree between
    // the two implementations (eventually, for the async mapped path).
    let seed = 7u64;
    let (_mb, b) = baseline();
    run_script(&b, seed);
    let (_k, server, u) = mach();
    run_script(&u, seed);
    // The mapped path flushes asynchronously; poll for convergence.
    let deadline = machsim::wall::Deadline::after(std::time::Duration::from_secs(5));
    loop {
        let mut all_equal = true;
        for i in 0..3 {
            let name = format!("f{i}");
            let mach_bytes = server.fs().read_all(&name).unwrap();
            let mut want = vec![0u8; mach_bytes.len()];
            let fd = u.open(&name).unwrap();
            u.read(fd, 0, &mut want).unwrap();
            u.close(fd).unwrap();
            if mach_bytes != want {
                all_equal = false;
            }
        }
        if all_equal {
            break;
        }
        assert!(
            !deadline.expired(),
            "mapped writes never reached the server filesystem"
        );
        u.sync_all().unwrap();
        machsim::wall::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn cost_profiles_differ_as_designed() {
    // Identical scripts, radically different I/O profiles: the mapped path
    // avoids per-call copies; re-reads cost no disk ops on either when the
    // data fits, but the baseline pays copies every time.
    let seed = 5u64;
    let (mb, b) = baseline();
    run_script(&b, seed);
    let base_copied = mb.stats.get(machsim::stats::keys::BYTES_COPIED);
    let (k, _server, u) = mach();
    run_script(&u, seed);
    let mach_copied = k.machine().stats.get(machsim::stats::keys::BYTES_COPIED);
    assert!(
        base_copied > 2 * mach_copied,
        "baseline copies {base_copied} vs mach {mach_copied}"
    );
}

#[test]
fn a_warm_mach_build_sends_four_messages_per_written_file() -> Result<(), machunix::UnixError> {
    // A warm rebuild reads through its mappings — no `FS_STAT`, no open
    // RPC, no fault — so the only messages left are the write-back's:
    // `FS_SYNC` and its reply, `pager_clean_request`, `pager_data_write`.
    use machsim::stats::keys;
    let w = CompileWorkload {
        source_files: 6,
        headers: 3,
        ..CompileWorkload::default()
    };
    let (k, _server, u) = mach();
    let m = k.machine();
    // `sync_all` returns once the cleaning has been asked for; a build's
    // write-back has landed when its object files have reached the disk.
    let landed = |writes: u64| {
        machsim::wall::poll_until(
            std::time::Duration::from_secs(5),
            std::time::Duration::from_millis(1),
            || m.stats.get(keys::DISK_WRITES) >= writes,
        )
    };
    w.populate(&u)?;
    let writes = m.stats.get(keys::DISK_WRITES);
    w.build(&u, m)?;
    assert!(landed(writes + 6), "cold build's write-back never landed");
    let (msgs, writes) = (m.stats.get(keys::MSG_SENT), m.stats.get(keys::DISK_WRITES));
    let warm = w.build(&u, m)?;
    assert!(landed(writes + 6), "warm build's write-back never landed");
    assert_eq!(warm.disk_reads, 0, "warm build fully cached");
    assert_eq!(m.stats.get(keys::MSG_SENT) - msgs, 4 * 6);
    assert_eq!(m.stats.get(keys::DISK_WRITES), writes + 6);
    Ok(())
}
