//! `unix_build` — the paper's own yardstick.
//!
//! One op is one **warm** rebuild of a 24-unit project: a "make" unit on
//! the kernel's scheduler (2 simulated CPUs) submits 24 yielding compile
//! jobs, as `crates/bench/benches/parallel_build.rs` does. It is the only
//! workload with `machunix`, `machsched`, `machpagers::FileServer` and
//! `machstorage` on the path: resident-hit heavy, pager-miss light, about
//! 900 messages per build. The seed shuffles the order units are
//! submitted in.
//!
//! Set-up populates the project, runs one cold build, and runs the same
//! project cold and warm on `BaselineUnix` (10 % buffer cache) for the P1
//! and P2 ratios.

use super::{client_rng, OpSamples, Workload};
use crate::spans;
use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsched::{Run, TaskTag};
use machsim::stats::keys;
use machsim::{Machine, SplitMix64};
use machstorage::{BlockDevice, FlatFs};
use machunix::{BaselineUnix, CompileWorkload, Fd, MachUnix, UnixError, UnixIo};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Physical memory of both systems: the 1.1 MiB working set fits Mach's
/// VM cache and exceeds the baseline's 10 % buffer cache.
const MEMORY_BYTES: usize = 8 << 20;
const DEVICE_BLOCKS: usize = 4096;

fn project() -> CompileWorkload {
    CompileWorkload {
        source_files: 24,
        headers: 12,
        instructions_per_byte: 1,
        ..CompileWorkload::default()
    }
}

/// A `UnixIo` decorator whose calls are span boundaries in the traced
/// run; with the recorder off it only forwards.
pub struct TimedIo<T: UnixIo>(pub T);

impl<T: UnixIo> UnixIo for TimedIo<T> {
    fn create(&self, name: &str, size: usize) -> Result<(), UnixError> {
        self.0.create(name, size)
    }

    fn open(&self, name: &str) -> Result<Fd, UnixError> {
        let _span = spans::child("unix.open", 0);
        self.0.open(name)
    }

    fn read(&self, fd: Fd, offset: usize, buf: &mut [u8]) -> Result<(), UnixError> {
        let _span = spans::child("unix.read", 0);
        self.0.read(fd, offset, buf)
    }

    fn write(&self, fd: Fd, offset: usize, data: &[u8]) -> Result<(), UnixError> {
        let _span = spans::child("unix.write", 0);
        self.0.write(fd, offset, data)
    }

    fn close(&self, fd: Fd) -> Result<(), UnixError> {
        let _span = spans::child("unix.close", 0);
        self.0.close(fd)
    }

    fn sync_all(&self) -> Result<(), UnixError> {
        self.0.sync_all()
    }

    fn size_of(&self, name: &str) -> Result<usize, UnixError> {
        self.0.size_of(name)
    }
}

type Io = Arc<TimedIo<MachUnix>>;

/// What one build reports about itself.
struct BuildOutcome {
    sim_ns: u64,
    disk_ops: u64,
    completed: usize,
    errors: usize,
}

/// One preemptible compile job: the phases of
/// `CompileWorkload::compile_unit`, yielding at each boundary.
fn compile_job(
    w: CompileWorkload,
    io: Io,
    machine: Machine,
    unit: usize,
    completed: Arc<AtomicUsize>,
    errors: Arc<AtomicUsize>,
) -> impl FnMut() -> Run + Send + 'static {
    let mut phase = 0usize;
    let mut bytes = 0usize;
    move || {
        let step = if phase < w.headers {
            w.read_header(io.as_ref(), phase).map(Some)
        } else if phase < w.headers + 2 {
            w.read_source(io.as_ref(), unit).map(Some)
        } else {
            w.charge_codegen(&machine, bytes);
            w.emit_object(io.as_ref(), unit).map(|()| None)
        };
        match step {
            Ok(Some(n)) => {
                bytes += n;
                phase += 1;
                Run::Yield
            }
            Ok(None) => {
                completed.fetch_add(1, Ordering::Relaxed);
                Run::Done
            }
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                Run::Done
            }
        }
    }
}

/// One full build through the kernel scheduler, units submitted in
/// `order` from inside a worker so they pile onto one run queue and
/// spread only by stealing.
fn sched_build(k: &Arc<Kernel>, io: &Io, w: &CompileWorkload, order: Vec<usize>) -> BuildOutcome {
    let m = k.machine().clone();
    let clock0 = m.clock.now_ns();
    let disk = |m: &Machine| m.stats.get(keys::DISK_READS) + m.stats.get(keys::DISK_WRITES);
    let disk0 = disk(&m);
    let completed = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let handles: Arc<Mutex<Vec<machsched::JoinHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let sched = Arc::clone(k.scheduler());
    {
        let (w, io, m) = (w.clone(), Arc::clone(io), m.clone());
        let (completed, errors) = (Arc::clone(&completed), Arc::clone(&errors));
        let (handles, sched2) = (Arc::clone(&handles), Arc::clone(&sched));
        sched
            .spawn(0, move || {
                for unit in order {
                    let job = compile_job(
                        w.clone(),
                        Arc::clone(&io),
                        m.clone(),
                        unit,
                        Arc::clone(&completed),
                        Arc::clone(&errors),
                    );
                    handles
                        .lock()
                        .expect("handle list poisoned")
                        .push(sched2.submit(TaskTag::new(0), job));
                }
            })
            .join();
    }
    for h in handles.lock().expect("handle list poisoned").drain(..) {
        h.join();
    }
    let synced = io.sync_all().is_ok();
    BuildOutcome {
        sim_ns: m.clock.now_ns() - clock0,
        disk_ops: disk(&m) - disk0,
        completed: completed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed) + usize::from(!synced),
    }
}

pub struct UnixBuild {
    // Field order is drop order: the emulation library and its task go
    // before the file server, the kernel last.
    io: Io,
    _task: Arc<Task>,
    server: Arc<FileServer>,
    kernel: Arc<Kernel>,
    project: CompileWorkload,
    rng: SplitMix64,
    cold_sim_ns: u64,
    cold_disk_ops: u64,
    baseline_warm_sim_ns: u64,
    baseline_warm_disk_ops: u64,
    /// Simulated time and disk ops of every timed warm build.
    warm: Vec<(u64, u64)>,
}

/// Cold + warm serial build on the conventional system; returns the warm
/// build's (sim ns, disk ops).
fn baseline_warm(w: &CompileWorkload) -> (u64, u64) {
    let m = Machine::default_machine();
    let dev = Arc::new(BlockDevice::new(&m, DEVICE_BLOCKS));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let unix = BaselineUnix::new(&m, fs, MEMORY_BYTES, 10);
    w.populate(&unix).expect("populate the baseline project");
    w.build(&unix, &m).expect("baseline cold build");
    let warm = w.build(&unix, &m).expect("baseline warm build");
    (warm.elapsed_ns, warm.disk_ops)
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let project = project();
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: MEMORY_BYTES,
        sched_cpus: 2,
        ..KernelConfig::default()
    });
    let dev = Arc::new(BlockDevice::new(kernel.machine(), DEVICE_BLOCKS));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(kernel.machine(), fs);
    let task = Task::create(&kernel, "make");
    let io: Io = Arc::new(TimedIo(MachUnix::new(
        &task,
        FsClient::new(server.port().clone()),
    )));
    project.populate(io.as_ref()).expect("populate the project");
    let cold = sched_build(&kernel, &io, &project, (0..project.source_files).collect());
    assert_eq!(
        (cold.completed, cold.errors),
        (project.source_files, 0),
        "cold build did not complete"
    );
    let (baseline_warm_sim_ns, baseline_warm_disk_ops) = baseline_warm(&project);
    Box::new(UnixBuild {
        io,
        _task: task,
        server,
        kernel,
        project,
        rng: client_rng(seed, 0),
        cold_sim_ns: cold.sim_ns,
        cold_disk_ops: cold.disk_ops,
        baseline_warm_sim_ns,
        baseline_warm_disk_ops,
        warm: Vec::new(),
    })
}

impl Workload for UnixBuild {
    fn machine(&self) -> &Machine {
        self.kernel.machine()
    }

    fn kernel(&self) -> Option<&Arc<Kernel>> {
        Some(&self.kernel)
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        let units = self.project.source_files;
        for _ in 0..ops {
            let mut order: Vec<usize> = (0..units).collect();
            self.rng.shuffle(&mut order);
            let built = out.time(&self.kernel.machine().clock, 0, || {
                let b = sched_build(&self.kernel, &self.io, &self.project, order);
                if b.completed == units && b.errors == 0 {
                    Ok(b)
                } else {
                    Err(format!(
                        "build completed {} of {units} units, {} I/O errors",
                        b.completed, b.errors
                    ))
                }
            });
            if let Some(b) = built {
                self.warm.push((b.sim_ns, b.disk_ops));
            }
        }
    }

    fn final_check(&mut self) -> Vec<String> {
        (0..self.project.source_files)
            .filter_map(|i| {
                let name = format!("src{i}.o");
                match self.server.fs().size(&name) {
                    Ok(size) if size == self.project.obj_bytes() => None,
                    other => Some(format!("{name}: object file size {other:?}")),
                }
            })
            .collect()
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        let n = self.warm.len().max(1) as f64;
        let warm_sim_ns = self.warm.iter().map(|w| w.0 as f64).sum::<f64>() / n;
        let warm_disk_ops = self.warm.iter().map(|w| w.1 as f64).sum::<f64>() / n;
        vec![
            ("machunix.cold_build_sim_ms", self.cold_sim_ns as f64 / 1e6),
            ("machunix.cold_disk_ops", self.cold_disk_ops as f64),
            (
                "machunix.p1_speedup_vs_baseline",
                self.baseline_warm_sim_ns as f64 / warm_sim_ns.max(1.0),
            ),
            (
                "machunix.p2_io_reduction_vs_baseline",
                self.baseline_warm_disk_ops as f64 / warm_disk_ops.max(1.0),
            ),
        ]
    }
}
