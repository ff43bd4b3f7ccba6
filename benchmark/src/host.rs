//! What the host reports about this process — peak memory, CPU time, core
//! count — and thread placement. Linux only (`/proc`, `sched_setaffinity`);
//! elsewhere the memory and CPU figures read 0 and nothing is pinned.

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system time in microseconds from a `/proc/.../stat` file.
fn stat_cpu_us(path: &str) -> Option<f64> {
    // Fields 14 and 15, counted after the command name (which may itself
    // contain spaces), in clock ticks. USER_HZ is 100 on every Linux ABI
    // Rust supports.
    const TICK_US: f64 = 1e6 / 100.0;
    let s = std::fs::read_to_string(path).ok()?;
    let rest = &s[s.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// User + system CPU time of the whole process (all threads, including
/// ones that already exited), in microseconds.
pub fn cpu_time_us() -> f64 {
    stat_cpu_us("/proc/self/stat").unwrap_or(0.0)
}

/// Cores available to this process when it first asked, which is before
/// any pinning (`available_parallelism` follows the affinity mask).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered core it may run on. Returns whether it did.
///
/// The single-client workloads run this way. Their op is one chain of
/// hand-offs between threads (client → server → client; client → kernel →
/// pager → kernel → client), so at most one thread is runnable at a time
/// and a second core adds nothing but the cost of waking it. On the shared
/// virtual machine this was sized on, that cost is 3 µs or 20 µs depending
/// on what the hypervisor did in the last seconds, and the host scheduler
/// sometimes pulls both threads onto one core anyway: across two cores
/// `msg_rpc` reads 6.7 µs or 44 µs per op from one run to the next, and its
/// *simulated* cost flips with it, because a message is a handoff (25 sim-µs
/// instead of 100) only if its receiver parked before it was sent — handoff
/// share 0.96 or 0.50, 65 or 137 sim-µs per op. `msg_ool` and `pager_write`
/// flip the same way. `machipc` shows no caller whether a receiver has
/// parked, so the benchmark cannot wait for it; `sched_yield` before the
/// send was tried on both sides and changes nothing.
///
/// On one core a hand-off is a context switch and both kinds of number
/// repeat: the woken thread preempts its waker. A reply always finds the
/// client parked (the server only ran because the client blocked) and is a
/// handoff; the next request always finds the server still on its way back
/// to `receive` and is queued. That is handoff share 0.506 on `msg_rpc`,
/// unchanged with the handoff slot of the server's port switched off: each
/// op crosses the handoff slot once and the queue once. A run that cannot
/// pin records that as a problem and is not `correct`.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> bool {
    use std::ffi::c_int;
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls get a pointer to a live, properly aligned buffer of
    // exactly `cpusetsize` bytes, which the kernel fills (get) or only reads
    // (set) during the call and does not keep. Pid 0 names the calling
    // thread. The symbols come from the C library std already links.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return false;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: as above; `one` is only read.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> bool {
    false
}
