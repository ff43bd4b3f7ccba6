//! The message constructors machmark's workloads (`benchmark/`) call by
//! name. They recycled message buffers through per-thread pools until
//! the pools showed no host-time win on `msg_rpc`, `msg_ool` or
//! `pager_read` (EXPERIMENTS, Ablations A8); now they are the plain
//! constructors, and nothing in the kernel calls them.

use crate::message::{Message, MsgItem};

/// [`Message::new`].
pub fn message(id: u32) -> Message {
    Message::new(id)
}

/// [`MsgItem::bytes`].
pub fn bytes(data: &[u8]) -> MsgItem {
    MsgItem::bytes(data)
}

/// Drops `msg`.
pub fn recycle(msg: Message) {
    drop(msg);
}
