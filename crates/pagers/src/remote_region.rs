//! Copy-on-reference out-of-line data across the network (Section 7).
//!
//! Within one host, a large message body moves by copy-on-write mapping
//! (`machcore::msg`). Across a NORMA network there is no shared memory to
//! map — but the paper points out that "It is possible to implement
//! copy-on-reference and read/write sharing of information in a network
//! environment without explicit hardware support." This module is that
//! path for message data: the sender freezes a snapshot behind a pager and
//! ships only a *handle*; the receiver maps the handle and pages cross the
//! fabric when — and only when — they are referenced.
//!
//! Compare [`send_eager`], which transmits every byte up front: the
//! network analogue of an inline copy.

use crate::netshm::map_and_await_init;
use machcore::{spawn_manager, DataManager, Kernel, KernelConn, ManagerHandle, Task};
use machipc::{Message, OolBuffer, SendRight};
use machnet::{Fabric, Host};
use machvm::{VmError, VmProt};
use std::sync::Arc;
use std::time::Duration;

#[cfg(test)]
const PAGE: u64 = 4096;

machcore::protocol! {
    /// A region of a task's memory in transit to another host.
    #[derive(Debug)]
    pub enum RegionMessage {
        /// `(size, object)`: a copy-on-reference handle, the memory object
        /// of the sender's snapshot.
        Handle(size: u64, object: SendRight) = REMOTE_REGION: 0x4A01,
        /// `(size, data)`: every byte, transmitted up front.
        Eager(size: u64, data: OolBuffer) = REMOTE_REGION_EAGER: 0x4A02,
    }
}

/// Serves a frozen snapshot of the sender's region.
struct SnapshotPager {
    data: Arc<Vec<u8>>,
}

impl DataManager for SnapshotPager {
    fn init(&mut self, k: &KernelConn, object: u64) {
        // Pages cross the fabric when — and only when — they are
        // referenced; kernel cluster paging would ship unreferenced
        // neighbours on every fault.
        k.set_cluster(object, 1);
    }

    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let end = ((offset + length) as usize).min(self.data.len());
        if offset as usize >= end {
            k.data_unavailable(object, offset, length);
            return;
        }
        let mut page = self.data[offset as usize..end].to_vec();
        page.resize(length as usize, 0);
        k.data_provided(object, offset, OolBuffer::from_vec(page), VmProt::NONE);
    }
}

/// Sends `[address, address+size)` of `task` to `dest_port` (a port whose
/// receiver is on `to`) as a copy-on-reference handle. The pager serving
/// the snapshot lives on `from` and is kept alive by the returned handle.
pub fn send_copy_on_reference(
    fabric: &Arc<Fabric>,
    from: &Arc<Host>,
    to: &Arc<Host>,
    task: &Task,
    address: u64,
    size: u64,
    dest_port: &SendRight,
) -> Result<ManagerHandle, VmError> {
    // Freeze the data: vm_read gives a consistent snapshot (a real system
    // would write-protect and serve lazily; the cost model is identical
    // because the sender's pages were resident either way).
    let snapshot = Arc::new(task.vm_read(address, size)?);
    let pager = spawn_manager(
        from.machine(),
        "remote-region",
        SnapshotPager { data: snapshot },
    );
    let msg = RegionMessage::Handle(size, pager.port().clone()).encode();
    fabric
        .send(from, to, dest_port, msg, Some(Duration::from_secs(10)))
        .map_err(|_| VmError::ObjectDestroyed)?;
    Ok(pager)
}

/// Sends the same region with every byte transmitted immediately.
pub fn send_eager(
    fabric: &Arc<Fabric>,
    from: &Arc<Host>,
    to: &Arc<Host>,
    task: &Task,
    address: u64,
    size: u64,
    dest_port: &SendRight,
) -> Result<(), VmError> {
    let data = OolBuffer::from_vec(task.vm_read(address, size)?);
    let msg = RegionMessage::Eager(size, data).encode();
    fabric
        .send(from, to, dest_port, msg, Some(Duration::from_secs(10)))
        .map_err(|_| VmError::ObjectDestroyed)
}

/// Receiver side: maps a [`RegionMessage::Handle`] into `task`. The memory
/// object port arrived through the network message server, so faults are
/// charged as network traffic automatically. Returns `(address, size)`.
pub fn map_received(task: &Task, msg: Message) -> Result<(u64, u64), VmError> {
    let Ok(RegionMessage::Handle(size, object)) = RegionMessage::decode(msg) else {
        return Err(VmError::ObjectDestroyed);
    };
    // The first faults must not pull clusters: wait for the snapshot
    // pager's single-page advice.
    Ok((map_and_await_init(task, &object, size)?, size))
}

/// Receiver side for the eager variant: copies into fresh task memory.
pub fn copy_in_eager(task: &Task, msg: Message) -> Result<(u64, u64), VmError> {
    let Ok(RegionMessage::Eager(size, data)) = RegionMessage::decode(msg) else {
        return Err(VmError::ObjectDestroyed);
    };
    let addr = task.map().allocate(None, size)?;
    task.map().write(addr, data.as_slice())?;
    Ok((addr, size))
}

/// One booted host of the two-host test rig.
pub type HostKernel = (Arc<Host>, Arc<Kernel>);

/// Convenience: a two-host test rig.
#[doc(hidden)]
pub fn two_hosts() -> (Arc<Fabric>, HostKernel, HostKernel) {
    let fabric = Fabric::new();
    let ha = fabric.add_host("sender");
    let hb = fabric.add_host("receiver");
    let ka = Kernel::boot_on(ha.machine().clone(), machcore::KernelConfig::default());
    let kb = Kernel::boot_on(hb.machine().clone(), machcore::KernelConfig::default());
    (fabric, (ha, ka), (hb, kb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use machipc::{MsgItem, ReceiveRight};
    use machsim::stats::keys;

    #[test]
    fn copy_on_reference_moves_only_touched_pages() {
        let (fabric, (ha, ka), (hb, kb)) = two_hosts();
        let sender = Task::create(&ka, "s");
        let receiver = Task::create(&kb, "r");
        let pages = 32u64;
        let addr = sender.vm_allocate(pages * PAGE).unwrap();
        for i in 0..pages {
            sender
                .write_memory(addr + i * PAGE, &[i as u8 + 1])
                .unwrap();
        }
        let (rx, tx) = ReceiveRight::allocate(hb.machine());
        let net0 = hb.machine().stats.get(keys::NET_BYTES);
        let _pager =
            send_copy_on_reference(&fabric, &ha, &hb, &sender, addr, pages * PAGE, &tx).unwrap();
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        let (raddr, rsize) = map_received(&receiver, msg).unwrap();
        assert_eq!(rsize, pages * PAGE);
        let handle_bytes = hb.machine().stats.get(keys::NET_BYTES) - net0;
        assert!(handle_bytes < PAGE, "the handle is tiny: {handle_bytes}B");
        // Touch 3 of 32 pages: roughly 3 pages cross the wire.
        for p in [0u64, 15, 31] {
            let mut b = [0u8; 1];
            receiver.read_memory(raddr + p * PAGE, &mut b).unwrap();
            assert_eq!(b[0], p as u8 + 1);
        }
        let total = hb.machine().stats.get(keys::NET_BYTES) - net0;
        assert!(
            (3 * PAGE..6 * PAGE).contains(&total),
            "3 touched pages moved {total} bytes"
        );
    }

    #[test]
    fn eager_moves_everything_immediately() {
        let (fabric, (ha, ka), (hb, kb)) = two_hosts();
        let sender = Task::create(&ka, "s");
        let receiver = Task::create(&kb, "r");
        let pages = 32u64;
        let addr = sender.vm_allocate(pages * PAGE).unwrap();
        sender.write_memory(addr, &[9]).unwrap();
        let (rx, tx) = ReceiveRight::allocate(hb.machine());
        let net0 = hb.machine().stats.get(keys::NET_BYTES);
        send_eager(&fabric, &ha, &hb, &sender, addr, pages * PAGE, &tx).unwrap();
        assert!(hb.machine().stats.get(keys::NET_BYTES) - net0 >= pages * PAGE);
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        let (raddr, _) = copy_in_eager(&receiver, msg).unwrap();
        let mut b = [0u8; 1];
        receiver.read_memory(raddr, &mut b).unwrap();
        assert_eq!(b[0], 9);
    }

    #[test]
    fn snapshot_is_immutable_after_send() {
        let (fabric, (ha, ka), (hb, kb)) = two_hosts();
        let sender = Task::create(&ka, "s");
        let receiver = Task::create(&kb, "r");
        let addr = sender.vm_allocate(PAGE).unwrap();
        sender.write_memory(addr, &[1]).unwrap();
        let (rx, tx) = ReceiveRight::allocate(hb.machine());
        let _pager = send_copy_on_reference(&fabric, &ha, &hb, &sender, addr, PAGE, &tx).unwrap();
        // The sender scribbles after the send; the receiver must still see
        // the send-time contents (copy semantics of message data).
        sender.write_memory(addr, &[2]).unwrap();
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        let (raddr, _) = map_received(&receiver, msg).unwrap();
        let mut b = [0u8; 1];
        receiver.read_memory(raddr, &mut b).unwrap();
        assert_eq!(b[0], 1);
    }

    #[test]
    fn a_handle_without_size_or_object_is_an_error_not_a_panic() {
        let k = Kernel::boot(machcore::KernelConfig::default());
        let receiver = Task::create(&k, "r");
        let size = || MsgItem::u64s(&[PAGE]);
        for msg in [
            Message::new(REMOTE_REGION),
            Message::new(REMOTE_REGION).with(size()),
            Message::new(REMOTE_REGION)
                .with(size())
                .with(MsgItem::SendRights(Vec::new())),
        ] {
            assert_eq!(map_received(&receiver, msg), Err(VmError::ObjectDestroyed));
        }
    }

    #[test]
    fn a_snapshot_pager_that_never_answers_init_is_a_timeout() {
        struct Silent;
        impl DataManager for Silent {
            fn data_request(&mut self, _: &KernelConn, _: u64, _: u64, _: u64, _: VmProt) {}
        }
        let k = Kernel::boot(machcore::KernelConfig::default());
        let receiver = Task::create(&k, "r");
        let silent = spawn_manager(k.machine(), "silent", Silent);
        let handle = RegionMessage::Handle(PAGE, silent.port().clone()).encode();
        assert_eq!(map_received(&receiver, handle), Err(VmError::Timeout));
        assert!(receiver.vm_regions().is_empty(), "the mapping is undone");
    }
}
