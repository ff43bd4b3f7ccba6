//! The synthetic compilation workload behind the Section 9 numbers.
//!
//! "Compilation of a small program cached in memory on a SUN 3/160 running
//! Mach is twice as fast as when running the more conventional SunOS 3.2
//! operating system. In a large system compilation, the total number of
//! I/O operations can be reduced by a factor of 10."
//!
//! The real workload was `cc` under `make`: every compilation unit re-reads
//! the same system headers, the compiler and its passes re-read their own
//! binaries, and `make` re-reads sources that were just written. What makes
//! the cache regime matter is exactly that re-read structure, so the
//! simulator reproduces it: a project of source files and shared headers,
//! compiled unit by unit, where compiling means reading all headers, reading
//! the source (twice — preprocessor and code generator), charging CPU work,
//! and writing an object file. Builds run cold (first ever) or warm
//! (rebuild, the "cached in memory" case the paper quotes).

use crate::{UnixError, UnixIo};
use machsim::stats::keys;
use machsim::{Machine, StatsSnapshot};

/// Parameters of the synthetic project.
#[derive(Clone, Debug)]
pub struct CompileWorkload {
    /// Number of compilation units.
    pub source_files: usize,
    /// Bytes per source file.
    pub source_bytes: usize,
    /// Number of shared headers every unit includes.
    pub headers: usize,
    /// Bytes per header.
    pub header_bytes: usize,
    /// Simulated CPU instructions charged per byte of source compiled.
    pub instructions_per_byte: u64,
    /// I/O chunk size (the read(2) buffer a 1987 compiler would use).
    pub chunk: usize,
}

impl Default for CompileWorkload {
    fn default() -> Self {
        Self {
            source_files: 32,
            source_bytes: 32 * 1024,
            headers: 16,
            header_bytes: 32 * 1024,
            instructions_per_byte: 6,
            chunk: 8 * 1024,
        }
    }
}

/// Outcome of one build, in simulated time and metered I/O.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Simulated nanoseconds for the whole build.
    pub elapsed_ns: u64,
    /// Disk read operations.
    pub disk_reads: u64,
    /// Disk write operations.
    pub disk_writes: u64,
    /// Total disk operations.
    pub disk_ops: u64,
    /// Bytes crossing kernel/user copies.
    pub bytes_copied: u64,
}

impl CompileReport {
    fn from_delta(elapsed_ns: u64, delta: &StatsSnapshot) -> Self {
        let disk_reads = delta.get(keys::DISK_READS);
        let disk_writes = delta.get(keys::DISK_WRITES);
        Self {
            elapsed_ns,
            disk_reads,
            disk_writes,
            disk_ops: disk_reads + disk_writes,
            bytes_copied: delta.get(keys::BYTES_COPIED),
        }
    }
}

impl CompileWorkload {
    fn src_name(&self, i: usize) -> String {
        format!("src{i}.c")
    }

    fn hdr_name(&self, i: usize) -> String {
        format!("hdr{i}.h")
    }

    fn obj_name(&self, i: usize) -> String {
        format!("src{i}.o")
    }

    /// Total bytes of sources + headers (the read working set).
    pub fn working_set_bytes(&self) -> usize {
        self.source_files * self.source_bytes + self.headers * self.header_bytes
    }

    /// Object file size per unit (compilation output).
    pub fn obj_bytes(&self) -> usize {
        (self.source_bytes / 8).max(1)
    }

    /// Creates the project's files.
    pub fn populate(&self, io: &dyn UnixIo) -> Result<(), UnixError> {
        for i in 0..self.headers {
            io.create(&self.hdr_name(i), self.header_bytes)?;
        }
        for i in 0..self.source_files {
            io.create(&self.src_name(i), self.source_bytes)?;
            io.create(&self.obj_name(i), self.obj_bytes())?;
        }
        Ok(())
    }

    fn read_whole(&self, io: &dyn UnixIo, name: &str) -> Result<usize, UnixError> {
        let size = io.size_of(name)?;
        let fd = io.open(name)?;
        let mut buf = vec![0u8; self.chunk];
        let read = (0..size).step_by(self.chunk).try_for_each(|pos| {
            let n = self.chunk.min(size - pos);
            io.read(fd, pos, &mut buf[..n])
        });
        // Closed whether or not the reads succeeded: a failed build must
        // not keep the descriptor.
        let closed = io.close(fd);
        read.and(closed).map(|()| size)
    }

    /// One preprocessor step: reads shared header `h`. Returns bytes read.
    ///
    /// The phase methods (`read_header`, `read_source`, `charge_codegen`,
    /// `emit_object`) expose the stages of [`CompileWorkload::compile_unit`]
    /// individually so a scheduler-driven build can yield between them —
    /// each phase is one step of a preemptible compile job.
    pub fn read_header(&self, io: &dyn UnixIo, h: usize) -> Result<usize, UnixError> {
        self.read_whole(io, &self.hdr_name(h % self.headers.max(1)))
    }

    /// One compiler pass over unit `unit`'s source. Returns bytes read.
    pub fn read_source(&self, io: &dyn UnixIo, unit: usize) -> Result<usize, UnixError> {
        self.read_whole(io, &self.src_name(unit % self.source_files.max(1)))
    }

    /// Charges the CPU work of compiling `bytes` of input.
    pub fn charge_codegen(&self, machine: &Machine, bytes: usize) {
        machine
            .clock
            .charge(bytes as u64 * self.instructions_per_byte * machine.cost.instruction_ns);
    }

    /// Emits unit `unit`'s object file.
    pub fn emit_object(&self, io: &dyn UnixIo, unit: usize) -> Result<(), UnixError> {
        let obj = self.obj_name(unit % self.source_files.max(1));
        let fd = io.open(&obj)?;
        let out = vec![0xB1u8; self.chunk];
        let obj_size = self.obj_bytes();
        let written = (0..obj_size).step_by(self.chunk).try_for_each(|pos| {
            let n = self.chunk.min(obj_size - pos);
            io.write(fd, pos, &out[..n])
        });
        // As in `read_whole`: the descriptor goes back on an error too.
        let closed = io.close(fd);
        written.and(closed)
    }

    /// Compiles one unit end to end: headers, two source passes, CPU work,
    /// object file.
    pub fn compile_unit(
        &self,
        io: &dyn UnixIo,
        machine: &Machine,
        unit: usize,
    ) -> Result<(), UnixError> {
        let mut bytes_processed = 0usize;
        // The preprocessor reads every shared header...
        for h in 0..self.headers {
            bytes_processed += self.read_header(io, h)?;
        }
        // ... and the source, which the code generator then re-reads.
        bytes_processed += self.read_source(io, unit)?;
        bytes_processed += self.read_source(io, unit)?;
        // CPU work proportional to what was read.
        self.charge_codegen(machine, bytes_processed);
        self.emit_object(io, unit)
    }

    /// Runs one full build; returns per-build simulated time and I/O.
    pub fn build(&self, io: &dyn UnixIo, machine: &Machine) -> Result<CompileReport, UnixError> {
        let clock0 = machine.clock.now_ns();
        let stats0 = machine.stats.snapshot();
        for unit in 0..self.source_files {
            self.compile_unit(io, machine, unit)?;
        }
        io.sync_all()?;
        let delta = stats0.delta(&machine.stats.snapshot());
        Ok(CompileReport::from_delta(
            machine.clock.now_ns() - clock0,
            &delta,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineUnix;
    use crate::emul::MachUnix;
    use crate::Fd;
    use machcore::{Kernel, KernelConfig, Task};
    use machpagers::{FileServer, FsClient};
    use machstorage::{BlockDevice, FlatFs};
    use std::sync::Arc;

    const MEMORY: usize = 4 << 20;

    fn baseline() -> (Machine, BaselineUnix) {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 4096));
        let fs = Arc::new(FlatFs::format(dev, 0));
        (m.clone(), BaselineUnix::new(&m, fs, MEMORY, 10))
    }

    fn mach() -> (Machine, Arc<FileServer>, MachUnix) {
        let k = Kernel::boot(KernelConfig {
            memory_bytes: MEMORY,
            ..KernelConfig::default()
        });
        let dev = Arc::new(BlockDevice::new(k.machine(), 4096));
        let fs = Arc::new(FlatFs::format(dev, 0));
        let server = FileServer::start(k.machine(), fs);
        let task = Task::create(&k, "cc");
        let unix = MachUnix::new(&task, FsClient::new(server.port().clone()));
        let machine = k.machine().clone();
        // Keep the kernel alive for the duration of the test.
        std::mem::forget(k);
        (machine, server, unix)
    }

    /// A `MachUnix` whose every read and write fails, as a pager error
    /// would fail them; opens and closes go through.
    struct FailingIo<'a>(&'a MachUnix);

    impl UnixIo for FailingIo<'_> {
        fn create(&self, name: &str, size: usize) -> Result<(), UnixError> {
            self.0.create(name, size)
        }
        fn open(&self, name: &str) -> Result<Fd, UnixError> {
            self.0.open(name)
        }
        fn read(&self, _: Fd, _: usize, _: &mut [u8]) -> Result<(), UnixError> {
            Err(UnixError::Substrate("read failed".into()))
        }
        fn write(&self, _: Fd, _: usize, _: &[u8]) -> Result<(), UnixError> {
            Err(UnixError::Substrate("write failed".into()))
        }
        fn close(&self, fd: Fd) -> Result<(), UnixError> {
            self.0.close(fd)
        }
        fn sync_all(&self) -> Result<(), UnixError> {
            self.0.sync_all()
        }
        fn size_of(&self, name: &str) -> Result<usize, UnixError> {
            self.0.size_of(name)
        }
    }

    #[test]
    fn a_failed_read_or_write_gives_its_descriptor_back() -> Result<(), UnixError> {
        let w = CompileWorkload {
            source_files: 1,
            headers: 1,
            ..CompileWorkload::default()
        };
        let (_machine, _server, u) = mach();
        w.populate(&u)?;
        let lowest = u.open(&w.src_name(0))?;
        u.close(lowest)?;
        // More failures than the descriptor table has slots.
        let failing = FailingIo(&u);
        for _ in 0..5000 {
            assert!(w.read_header(&failing, 0).is_err());
            assert!(w.emit_object(&failing, 0).is_err());
            let fd = u.open(&w.src_name(0))?;
            assert_eq!(fd, lowest, "a failed read or write kept its descriptor");
            u.close(fd)?;
        }
        Ok(())
    }

    #[test]
    fn workload_runs_on_both_implementations() {
        let w = CompileWorkload {
            source_files: 4,
            headers: 2,
            ..CompileWorkload::default()
        };
        let (mb, b) = baseline();
        w.populate(&b).unwrap();
        let rb = w.build(&b, &mb).unwrap();
        assert!(rb.disk_ops > 0 && rb.elapsed_ns > 0);
        let (mm, _server, u) = mach();
        w.populate(&u).unwrap();
        let rm = w.build(&u, &mm).unwrap();
        assert!(rm.elapsed_ns > 0);
    }

    #[test]
    fn warm_mach_build_does_no_read_io() {
        let w = CompileWorkload {
            source_files: 6,
            headers: 3,
            ..CompileWorkload::default()
        };
        let (mm, _server, u) = mach();
        w.populate(&u).unwrap();
        let _cold = w.build(&u, &mm).unwrap();
        let warm = w.build(&u, &mm).unwrap();
        assert_eq!(warm.disk_reads, 0, "warm build fully cached");
    }

    #[test]
    fn warm_builds_favor_mach_in_time_and_io() {
        // The E7/E8 shape in miniature: warm rebuild, Mach vs baseline.
        let w = CompileWorkload::default();
        assert!(
            w.working_set_bytes() > MEMORY / 10,
            "working set must exceed the 10% buffer cache"
        );
        let (mb, b) = baseline();
        w.populate(&b).unwrap();
        let _cold_b = w.build(&b, &mb).unwrap();
        let warm_b = w.build(&b, &mb).unwrap();
        let (mm, _server, u) = mach();
        w.populate(&u).unwrap();
        let _cold_m = w.build(&u, &mm).unwrap();
        let warm_m = w.build(&u, &mm).unwrap();
        assert!(
            warm_b.disk_ops >= 5 * warm_m.disk_ops.max(1),
            "I/O ops: baseline {} vs mach {}",
            warm_b.disk_ops,
            warm_m.disk_ops
        );
        assert!(
            warm_b.elapsed_ns as f64 >= 1.5 * warm_m.elapsed_ns as f64,
            "time: baseline {} vs mach {}",
            warm_b.elapsed_ns,
            warm_m.elapsed_ns
        );
    }
}
