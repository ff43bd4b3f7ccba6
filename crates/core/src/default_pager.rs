//! The default pager (Section 6.2.2).
//!
//! "The default pager manages backing storage for memory objects created by
//! the kernel in any of several ways: explicit allocation by user tasks
//! (vm_allocate); shadow memory objects; temporary memory objects for data
//! being paged out. Unlike other data managers, it is a trusted system
//! component. ... Because the interface to the default pager is identical
//! to other external data managers, there are no fundamental assumptions
//! made about the nature of secondary storage."
//!
//! Faithfully to that last sentence, the default pager here is an ordinary
//! [`DataManager`] served by the ordinary [`spawn_manager`](crate::manager::spawn_manager) runtime — the
//! kernel talks to it through the same message protocol as to any user
//! pager (and "a new default pager may be debugged as a regular data
//! manager"). Its backing store is a simulated paging partition: a block
//! device from which it allocates one block per page.

use crate::manager::{DataManager, KernelConn};
use machipc::OolBuffer;
use machstorage::{BlockDevice, BLOCK_SIZE};
use machvm::VmProt;
use std::collections::HashMap;
use std::sync::Arc;

/// The default pager's storage state.
pub struct DefaultPager {
    dev: Arc<BlockDevice>,
    /// System page size (a multiple of the device block size).
    page_size: usize,
    /// Device blocks per system page.
    blocks_per_page: usize,
    /// (object id, page offset) -> first paging-partition block of the
    /// page's contiguous block run. Shared, so the stored-page count can
    /// be read once the pager has moved into its service thread.
    map: PageTable,
    /// Free block-run starts (each run is `blocks_per_page` long).
    free: Vec<usize>,
}

/// Which paging-partition block run holds each stored page.
pub(crate) type PageTable = Arc<parking_lot::Mutex<HashMap<(u64, u64), usize>>>;

impl DefaultPager {
    /// Creates a default pager over a paging partition.
    ///
    /// "The system page size is a boot time parameter and can be any
    /// multiple of the hardware page size" — here, of the device block
    /// size.
    pub fn new(dev: Arc<BlockDevice>, page_size: usize) -> Self {
        assert!(
            page_size.is_multiple_of(BLOCK_SIZE) && page_size > 0,
            "system page size must be a positive multiple of the block size"
        );
        let blocks_per_page = page_size / BLOCK_SIZE;
        let runs = dev.num_blocks() / blocks_per_page;
        let free = (0..runs).rev().map(|r| r * blocks_per_page).collect();
        Self {
            dev,
            page_size,
            blocks_per_page,
            map: PageTable::default(),
            free,
        }
    }

    /// The page table; its length is the number of pages stored.
    pub(crate) fn page_table(&self) -> PageTable {
        self.map.clone()
    }

    fn read_page(&self, first_block: usize) -> Vec<u8> {
        let mut data = vec![0u8; self.page_size];
        for i in 0..self.blocks_per_page {
            self.dev
                .read_block(
                    first_block + i,
                    &mut data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE],
                )
                .expect("paging partition read");
        }
        data
    }

    fn write_page(&self, first_block: usize, data: &[u8]) {
        for i in 0..self.blocks_per_page {
            self.dev
                .write_block(first_block + i, &data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE])
                .expect("paging partition write");
        }
    }
}

impl DataManager for DefaultPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        let ps = self.page_size as u64;
        let blocks: Vec<Option<usize>> = {
            let map = self.map.lock();
            (offset..offset + length)
                .step_by(self.page_size)
                .map(|page| map.get(&(object, page)).copied())
                .collect()
        };
        // One answer per stretch: its stored pages in one `data_provided`,
        // its unstored ones in one `data_unavailable` ("Since these
        // kernel-created objects have no initial memory, the default pager
        // may not have data to provide"; the kernel zero-fills).
        let mut page = offset;
        for stretch in blocks.chunk_by(|a, b| a.is_some() == b.is_some()) {
            let bytes = stretch.len() as u64 * ps;
            let mut data = Vec::new();
            for &first_block in stretch.iter().flatten() {
                data.extend(self.read_page(first_block));
            }
            if data.is_empty() {
                kernel.data_unavailable(object, page, bytes);
            } else {
                kernel.data_provided(object, page, OolBuffer::from_vec(data), VmProt::NONE);
            }
            page += bytes;
        }
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let bytes = data.len() as u64;
        let ps = self.page_size;
        let mut written = 0usize;
        let mut map = self.map.lock();
        while written + ps <= data.len() {
            let page = offset + written as u64;
            let first_block = match map.get(&(object, page)) {
                Some(&b) => b,
                None => {
                    let Some(b) = self.free.pop() else {
                        // Paging partition full: data is dropped. A real
                        // system would panic or kill tasks; counting lets
                        // experiments observe it.
                        kernel
                            .machine()
                            .stats
                            .incr(machsim::stats::keys::DEFAULT_PAGER_PARTITION_FULL);
                        written += ps;
                        continue;
                    };
                    map.insert((object, page), b);
                    b
                }
            };
            self.write_page(first_block, &data.as_slice()[written..written + ps]);
            written += ps;
        }
        // The default pager secures data immediately: its `vm_deallocate`.
        kernel.release_laundry(object, bytes);
    }

    fn create(&mut self, _kernel: &KernelConn, _object: u64) {
        // Storage is created on demand at first pageout; nothing to do.
    }

    fn object_terminated(&mut self, object: u64) {
        // Free the terminated object's paging storage for reuse.
        let free = &mut self.free;
        self.map.lock().retain(|&(o, _), &mut block| {
            if o == object {
                free.push(block);
            }
            o != object
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::spawn_manager;
    use crate::proto;
    use machipc::{Message, MsgItem, ReceiveRight};
    use machsim::Machine;
    use std::time::Duration;

    fn u64s_of(msg: &Message) -> Vec<u64> {
        msg.body
            .iter()
            .find_map(|i| i.as_u64s())
            .unwrap_or_default()
    }

    #[test]
    fn unavailable_for_untouched_pages() {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 8));
        let dp = DefaultPager::new(dev, BLOCK_SIZE);
        let handle = spawn_manager(&m, "default", dp);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[5, 0, 4096, 1]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let reply = req_rx.receive(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(reply.id, proto::PAGER_DATA_UNAVAILABLE);
        assert_eq!(u64s_of(&reply), vec![5, 0, 4096]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 8));
        let dp = DefaultPager::new(dev, BLOCK_SIZE);
        let handle = spawn_manager(&m, "default", dp);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_WRITE)
                .with(MsgItem::u64s(&[5, 8192]))
                .with(MsgItem::OutOfLine(OolBuffer::from_vec(vec![3u8; 4096])))
                .with(MsgItem::SendRights(vec![req_tx.clone()])),
        );
        // Nothing answers the write; the read-back is the next message.
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[5, 8192, 4096, 1]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let reply = req_rx.receive(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(reply.id, proto::PAGER_DATA_PROVIDED);
        let data = reply.body.iter().find_map(|i| i.as_ool()).unwrap();
        assert!(data.as_slice().iter().all(|&b| b == 3));
    }

    /// A run answers as runs: four stored pages and two never written are
    /// one `data_provided` of four pages, then one `data_unavailable` of
    /// two.
    #[test]
    fn a_request_is_answered_one_reply_per_stretch() {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 8));
        let dp = DefaultPager::new(dev, BLOCK_SIZE);
        let handle = spawn_manager(&m, "default", dp);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        let page = BLOCK_SIZE as u64;
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_WRITE)
                .with(MsgItem::u64s(&[5, 0]))
                .with(MsgItem::OutOfLine(OolBuffer::from_vec(vec![
                    3u8;
                    4 * BLOCK_SIZE
                ])))
                .with(MsgItem::SendRights(vec![req_tx.clone()])),
        );
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[5, 0, 6 * page, 1]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let provided = req_rx
            .receive(Some(Duration::from_secs(5)))
            .expect("the stored stretch's reply");
        assert_eq!(provided.id, proto::PAGER_DATA_PROVIDED);
        assert_eq!(u64s_of(&provided)[..2], [5, 0]);
        let data = provided.body.iter().find_map(|i| i.as_ool());
        assert_eq!(
            data.map(OolBuffer::as_slice),
            Some(&[3u8; 4 * BLOCK_SIZE][..])
        );
        let unavailable = req_rx
            .receive(Some(Duration::from_secs(5)))
            .expect("the unstored stretch's reply");
        assert_eq!(unavailable.id, proto::PAGER_DATA_UNAVAILABLE);
        assert_eq!(u64s_of(&unavailable), vec![5, 4 * page, 2 * page]);
        handle.shutdown();
        assert!(req_rx.receive(Some(Duration::ZERO)).is_err(), "two replies");
    }

    #[test]
    fn partition_exhaustion_is_counted() {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 1));
        let dp = DefaultPager::new(dev, BLOCK_SIZE);
        let handle = spawn_manager(&m, "default", dp);
        let (_req_rx, req_tx) = ReceiveRight::allocate(&m);
        for page in 0..2u64 {
            handle.port().send_notification(
                Message::new(proto::PAGER_DATA_WRITE)
                    .with(MsgItem::u64s(&[1, page * 4096]))
                    .with(MsgItem::OutOfLine(OolBuffer::from_vec(vec![0u8; 4096])))
                    .with(MsgItem::SendRights(vec![req_tx.clone()])),
            );
        }
        // Nothing answers a write: stopping the pager is what says both
        // were processed.
        handle.shutdown();
        assert_eq!(
            m.stats
                .get(machsim::stats::keys::DEFAULT_PAGER_PARTITION_FULL),
            1
        );
    }

    #[test]
    #[should_panic(expected = "positive multiple of the block size")]
    fn page_size_mismatch_panics() {
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 1));
        let _ = DefaultPager::new(dev, 6000);
    }

    #[test]
    fn eight_kilobyte_pages_roundtrip() {
        // A system page size that is a multiple of the block size (8 KB on
        // 4 KB blocks): the default pager stores each page as a block run.
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 16));
        let dp = DefaultPager::new(dev, 8192);
        let handle = spawn_manager(&m, "default", dp);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        let mut page = vec![0u8; 8192];
        page[0] = 0xAA;
        page[8191] = 0xBB;
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_WRITE)
                .with(MsgItem::u64s(&[9, 8192]))
                .with(MsgItem::OutOfLine(OolBuffer::from_vec(page.clone())))
                .with(MsgItem::SendRights(vec![req_tx.clone()])),
        );
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[9, 8192, 8192, 1]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let reply = req_rx.receive(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(reply.id, proto::PAGER_DATA_PROVIDED);
        let data = reply.body.iter().find_map(|i| i.as_ool()).unwrap();
        assert_eq!(data.as_slice(), &page[..]);
    }
}
