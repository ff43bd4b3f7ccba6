//! `msg_ool` — communication implemented *by* memory.
//!
//! A sender task dirties one page of a 64 KiB region and sends the region
//! out of line; a receiver thread in a second task maps it, reads the
//! dirtied page, writes one page (a copy-on-write fault), deallocates the
//! mapping and acks. The message itself is small: `machvm`
//! (`copy_region_descriptor`, shadow objects, COW, collapse) does the
//! work — the copy-on-write machinery reached through IPC instead of fork.
//!
//! Checked per op: the receiver saw the sender's snapshot, and the
//! sender's copy survived the receiver's write.

use super::{client_rng, OpSamples, Workload, OP_TIMEOUT, PAGE};
use crate::spans;
use machcore::{msg, Kernel, KernelConfig, Task};
use machipc::{slab, Message, MsgItem, ReceiveRight, SendRight};
use machsim::{Machine, SplitMix64};
use std::sync::Arc;
use std::thread::JoinHandle;

const REGION_PAGES: u64 = 16;
const MSG_DATA: u32 = 0x0001;
const MSG_ACK: u32 = 0x0002;
const MSG_NAK: u32 = 0x0003;
const SHUTDOWN: u32 = u32::MAX;

pub struct MsgOol {
    kernel: Arc<Kernel>,
    sender: Arc<Task>,
    region: u64,
    /// What the sender last wrote to the first word of each page.
    stamps: [u64; REGION_PAGES as usize],
    to_receiver: SendRight,
    acks: ReceiveRight,
    receiver: Option<JoinHandle<()>>,
    rng: SplitMix64,
    seq: u64,
}

fn word(task: &Task, addr: u64) -> Result<u64, String> {
    let mut b = [0u8; 8];
    task.read_memory(addr, &mut b)
        .map_err(|e| format!("read {addr:#x}: {e}"))?;
    Ok(u64::from_le_bytes(b))
}

/// The receiver's handling of one region message; returns the word it
/// read from the sender's snapshot.
fn receive_region(task: &Task, m: &mut Message) -> Result<u64, String> {
    let hdr = m
        .body
        .first()
        .and_then(MsgItem::as_u64s)
        .filter(|h| h.len() == 3)
        .ok_or("region message without header")?;
    let (read_page, write_page) = (hdr[1], hdr[2]);
    let addr = msg::map_received_region(task, m).map_err(|e| format!("map region: {e}"))?;
    let seen = word(task, addr + read_page * PAGE)?;
    task.write_memory(addr + write_page * PAGE, &(!hdr[0]).to_le_bytes())
        .map_err(|e| format!("receiver write: {e}"))?;
    task.vm_deallocate(addr, REGION_PAGES * PAGE)
        .map_err(|e| format!("receiver deallocate: {e}"))?;
    Ok(seen)
}

fn serve(task: Arc<Task>, rx: ReceiveRight, acks: SendRight) {
    while let Ok(mut m) = rx.receive(None) {
        if m.id == SHUTDOWN {
            break;
        }
        let span = spans::child("server.handler", 0);
        let seq = m
            .body
            .first()
            .and_then(MsgItem::as_u64s)
            .and_then(|h| h.first().copied())
            .unwrap_or(u64::MAX);
        let reply = match receive_region(&task, &mut m) {
            Ok(seen) => slab::message(MSG_ACK).with(MsgItem::u64s(&[seq, seen])),
            Err(_) => slab::message(MSG_NAK).with(MsgItem::u64s(&[seq, 0])),
        };
        drop(m);
        std::thread::yield_now(); // the sender parks on its ack port (see `msg_rpc`)
        let _ = acks.send(reply, Some(OP_TIMEOUT));
        drop(span);
    }
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let kernel = Kernel::boot(KernelConfig::with_memory(16 << 20));
    let sender = Task::create(&kernel, "ool-sender");
    let receiver_task = Task::create(&kernel, "ool-receiver");
    let region = sender
        .vm_allocate(REGION_PAGES * PAGE)
        .expect("allocate the sender's region");
    let mut stamps = [0u64; REGION_PAGES as usize];
    for (p, stamp) in stamps.iter_mut().enumerate() {
        *stamp = 0xA000 + p as u64;
        sender
            .write_memory(region + p as u64 * PAGE, &stamp.to_le_bytes())
            .expect("dirty the sender's region");
    }
    let (rx, to_receiver) = ReceiveRight::allocate(kernel.machine());
    let (acks, ack_tx) = ReceiveRight::allocate(kernel.machine());
    let receiver = std::thread::Builder::new()
        .name("ool-receiver".into())
        .spawn(move || serve(receiver_task, rx, ack_tx))
        .expect("spawn region receiver");
    Box::new(MsgOol {
        kernel,
        sender,
        region,
        stamps,
        to_receiver,
        acks,
        receiver: Some(receiver),
        rng: client_rng(seed, 0),
        seq: 0,
    })
}

impl MsgOol {
    fn op(&mut self, seq: u64, dirty: u64, write_page: u64) -> Result<(), String> {
        // Dirty one page: the region was write-protected by the previous
        // send, so this is the sender's own copy-on-write fault.
        self.sender
            .write_memory(self.region + dirty * PAGE, &seq.to_le_bytes())
            .map_err(|e| format!("sender write: {e}"))?;
        self.stamps[dirty as usize] = seq;
        let item = msg::region_item(&self.sender, self.region, REGION_PAGES * PAGE)
            .map_err(|e| format!("region item: {e}"))?;
        self.to_receiver
            .send(
                slab::message(MSG_DATA)
                    .with(MsgItem::u64s(&[seq, dirty, write_page]))
                    .with(item),
                Some(OP_TIMEOUT),
            )
            .map_err(|e| format!("send region: {e}"))?;
        let ack = self
            .acks
            .receive(Some(OP_TIMEOUT))
            .map_err(|e| format!("await ack: {e}"))?;
        let fields = ack.body.first().and_then(MsgItem::as_u64s);
        let acked = ack.id == MSG_ACK && fields.as_deref() == Some(&[seq, seq]);
        slab::recycle(ack);
        if !acked {
            return Err(format!("op {seq}: receiver did not see the snapshot"));
        }
        // The receiver wrote !seq into its copy of `write_page`.
        let mine = word(&self.sender, self.region + write_page * PAGE)?;
        if mine != self.stamps[write_page as usize] {
            return Err(format!("op {seq}: receiver's write leaked into the sender"));
        }
        Ok(())
    }
}

impl Workload for MsgOol {
    fn machine(&self) -> &Machine {
        self.kernel.machine()
    }

    fn kernel(&self) -> Option<&Arc<Kernel>> {
        Some(&self.kernel)
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        let clock = self.kernel.machine().clock.clone();
        for _ in 0..ops {
            self.seq += 1;
            let seq = self.seq;
            let dirty = self.rng.next_below(REGION_PAGES);
            let write_page = self.rng.next_below(REGION_PAGES);
            std::thread::yield_now(); // the receiver parks in `receive`
            out.time(&clock, 0, || self.op(seq, dirty, write_page));
        }
    }
}

impl Drop for MsgOol {
    fn drop(&mut self) {
        let _ = self
            .to_receiver
            .send(Message::new(SHUTDOWN), Some(OP_TIMEOUT));
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}
