#![warn(missing_docs)]

//! UNIX emulation atop Mach (Section 8.1) and the traditional comparator.
//!
//! "UNIX filesystem I/O can be emulated by a library package that maps
//! open and close calls to a filesystem server task. An open call would
//! result in the file being mapped into memory. Subsequent read and write
//! calls would operate directly on virtual memory. The filesystem server
//! task would operate as an external pager, managing the virtual memory
//! corresponding to the file."
//!
//! Two implementations of one [`UnixIo`] interface:
//!
//! * [`emul::MachUnix`] — mapped-file I/O through the external pager; the
//!   whole of physical memory caches file pages.
//! * [`baseline::BaselineUnix`] — the traditional read/write path through
//!   a fixed buffer cache ("normally 10% of physical memory in a Berkeley
//!   UNIX system") with kernel/user copies.
//!
//! [`compilesim`] drives either through the same synthetic compilation
//! workload, regenerating the Section 9 comparisons (experiments E7/E8).

pub mod baseline;
pub mod compilesim;
pub mod emul;
pub mod process;

pub use baseline::BaselineUnix;
pub use compilesim::{CompileReport, CompileWorkload};
pub use emul::MachUnix;
pub use process::UnixProcess;

use std::fmt;

/// Errors from the UNIX emulation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnixError {
    /// No such file.
    NotFound(String),
    /// Bad file descriptor.
    BadFd,
    /// Read/write beyond end of file (fixed-size emulation).
    OutOfRange,
    /// Underlying substrate failure.
    Substrate(String),
}

impl fmt::Display for UnixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnixError::NotFound(n) => write!(f, "no such file: {n}"),
            UnixError::BadFd => f.write_str("bad file descriptor"),
            UnixError::OutOfRange => f.write_str("access beyond end of file"),
            UnixError::Substrate(s) => write!(f, "substrate: {s}"),
        }
    }
}

impl std::error::Error for UnixError {}

/// A file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// The minimal UNIX file interface both implementations provide.
///
/// `read`/`write` are positional (`pread`/`pwrite` style) to keep the
/// workload code free of seek bookkeeping.
pub trait UnixIo {
    /// Creates a file of exactly `size` zero bytes.
    fn create(&self, name: &str, size: usize) -> Result<(), UnixError>;

    /// Opens an existing file.
    fn open(&self, name: &str) -> Result<Fd, UnixError>;

    /// Reads at `offset` into `buf`.
    fn read(&self, fd: Fd, offset: usize, buf: &mut [u8]) -> Result<(), UnixError>;

    /// Writes `data` at `offset` (within the file's size).
    fn write(&self, fd: Fd, offset: usize, data: &[u8]) -> Result<(), UnixError>;

    /// Closes a descriptor.
    fn close(&self, fd: Fd) -> Result<(), UnixError>;

    /// Writes what is dirty back to the filesystem, and returns once it
    /// is there. [`BaselineUnix`] writes every dirty buffer of its cache
    /// to the device. [`MachUnix`] sends the file server one `FS_SYNC`
    /// naming every file written through one of its descriptors since the
    /// last call; the server answers once the kernel's
    /// `pager_data_write`s for those files are in its filesystem, so
    /// their disk writes are counted and the device reads them back when
    /// this returns. A file written only through another task's mapping
    /// is not named.
    fn sync_all(&self) -> Result<(), UnixError>;

    /// File size.
    fn size_of(&self, name: &str) -> Result<usize, UnixError>;
}
