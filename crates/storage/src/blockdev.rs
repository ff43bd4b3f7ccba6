//! A simulated block device.
//!
//! Every read or write charges the host clock with a positioning cost plus
//! per-byte transfer, and bumps the `disk.*` counters. Section 9's second
//! claim — a 10x reduction in I/O operations — is measured purely from
//! these counters, so the device is the single metering point for all
//! durable storage in the workspace.

use machsim::stats::keys;
use machsim::Machine;
use parking_lot::RwLock;
use std::fmt;

/// Fixed device block size (also the system page size default).
pub const BLOCK_SIZE: usize = 4096;

/// Errors from block device operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DevError {
    /// Block number beyond the end of the device.
    OutOfRange,
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfRange => f.write_str("block number out of range"),
        }
    }
}

impl std::error::Error for DevError {}

/// A simulated disk of fixed-size blocks.
///
/// Contents survive "crashes" (see [`WriteAheadLog`](crate::WriteAheadLog)
/// recovery tests): simulated crashes discard in-memory caches, never the
/// device. The device is thread-safe; concurrent accesses serialize per
/// call, which is adequate for a single-spindle 1987 disk.
pub struct BlockDevice {
    machine: Machine,
    blocks: RwLock<Vec<Box<[u8]>>>,
}

impl fmt::Debug for BlockDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockDevice({} blocks)", self.blocks.read().len())
    }
}

impl BlockDevice {
    /// Creates a zero-filled device with `num_blocks` blocks.
    pub fn new(machine: &Machine, num_blocks: usize) -> Self {
        let blocks = (0..num_blocks)
            .map(|_| vec![0u8; BLOCK_SIZE].into_boxed_slice())
            .collect();
        Self {
            machine: machine.clone(),
            blocks: RwLock::new(blocks),
        }
    }

    /// Number of blocks on the device.
    pub fn num_blocks(&self) -> usize {
        self.blocks.read().len()
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.num_blocks() * BLOCK_SIZE
    }

    fn charge(&self, counter: &str, bytes: usize) {
        self.machine
            .clock
            .charge(self.machine.cost.disk_op_ns(bytes as u64));
        let kind = if counter == keys::DISK_READS {
            self.machine.stats.incr(keys::DISK_READS);
            machsim::EventKind::Mark("disk_read")
        } else {
            self.machine.stats.incr(keys::DISK_WRITES);
            machsim::EventKind::Mark("disk_write")
        };
        self.machine.stats.add(keys::DISK_BYTES, bytes as u64);
        self.machine.trace_event("disk", kind);
    }

    /// Reads block `bno` into `buf` (must be `BLOCK_SIZE` bytes).
    pub fn read_block(&self, bno: usize, buf: &mut [u8]) -> Result<(), DevError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "read buffer must be one block");
        let blocks = self.blocks.read();
        let block = blocks.get(bno).ok_or(DevError::OutOfRange)?;
        buf.copy_from_slice(block);
        drop(blocks);
        self.charge(keys::DISK_READS, BLOCK_SIZE);
        Ok(())
    }

    /// Returns a copy of block `bno`.
    pub fn read_block_vec(&self, bno: usize) -> Result<Vec<u8>, DevError> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.read_block(bno, &mut buf)?;
        Ok(buf)
    }

    /// Writes `buf` (must be `BLOCK_SIZE` bytes) to block `bno`.
    pub fn write_block(&self, bno: usize, buf: &[u8]) -> Result<(), DevError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "write buffer must be one block");
        let mut blocks = self.blocks.write();
        let block = blocks.get_mut(bno).ok_or(DevError::OutOfRange)?;
        block.copy_from_slice(buf);
        drop(blocks);
        self.charge(keys::DISK_WRITES, BLOCK_SIZE);
        Ok(())
    }

    /// Writes a partial block at `offset` within block `bno`, performing
    /// the read-modify-write a real driver would.
    pub fn write_partial(&self, bno: usize, offset: usize, data: &[u8]) -> Result<(), DevError> {
        assert!(
            offset + data.len() <= BLOCK_SIZE,
            "partial write overflows block"
        );
        let mut blocks = self.blocks.write();
        let block = blocks.get_mut(bno).ok_or(DevError::OutOfRange)?;
        block[offset..offset + data.len()].copy_from_slice(data);
        drop(blocks);
        self.charge(keys::DISK_WRITES, data.len());
        Ok(())
    }

    /// The machine this device charges.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> (Machine, BlockDevice) {
        let m = Machine::default_machine();
        let d = BlockDevice::new(&m, 16);
        (m, d)
    }

    #[test]
    fn starts_zeroed() {
        let (_m, d) = dev();
        assert_eq!(d.read_block_vec(0).unwrap(), vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (_m, d) = dev();
        let data = vec![7u8; BLOCK_SIZE];
        d.write_block(3, &data).unwrap();
        assert_eq!(d.read_block_vec(3).unwrap(), data);
    }

    #[test]
    fn out_of_range_errors() {
        let (_m, d) = dev();
        assert_eq!(d.read_block_vec(16).unwrap_err(), DevError::OutOfRange);
        assert_eq!(
            d.write_block(99, &vec![0u8; BLOCK_SIZE]).unwrap_err(),
            DevError::OutOfRange
        );
    }

    #[test]
    fn operations_are_metered() {
        let (m, d) = dev();
        d.write_block(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.read_block_vec(0).unwrap();
        d.read_block_vec(0).unwrap();
        assert_eq!(m.stats.get(keys::DISK_WRITES), 1);
        assert_eq!(m.stats.get(keys::DISK_READS), 2);
        assert_eq!(m.stats.get(keys::DISK_BYTES), 3 * BLOCK_SIZE as u64);
        // Each op costs at least the positioning latency.
        assert!(m.clock.now_ns() >= 3 * m.cost.disk_access_ns);
    }

    #[test]
    fn partial_write_preserves_rest() {
        let (_m, d) = dev();
        d.write_block(1, &vec![9u8; BLOCK_SIZE]).unwrap();
        d.write_partial(1, 100, &[1, 2, 3]).unwrap();
        let b = d.read_block_vec(1).unwrap();
        assert_eq!(&b[100..103], &[1, 2, 3]);
        assert_eq!(b[99], 9);
        assert_eq!(b[103], 9);
    }

    #[test]
    #[should_panic(expected = "partial write overflows block")]
    fn partial_write_overflow_panics() {
        let (_m, d) = dev();
        d.write_partial(0, BLOCK_SIZE - 1, &[1, 2]).unwrap();
    }

    #[test]
    fn capacity_math() {
        let (_m, d) = dev();
        assert_eq!(d.num_blocks(), 16);
        assert_eq!(d.capacity(), 16 * BLOCK_SIZE);
    }
}
