//! Messages: a fixed header plus typed data items.
//!
//! "A message consists of a fixed length header and a variable-size
//! collection of typed data objects. Messages may contain port capabilities
//! or imbedded pointers as long as they are properly typed. A single
//! message may transfer up to the entire address space of a task."
//!
//! Two transfer disciplines exist, and the difference between them *is* the
//! duality the paper is about:
//!
//! * [`MsgItem::Inline`] data is physically copied into the queue — cheap
//!   for small amounts, linear in size.
//! * [`MsgItem::OutOfLine`] data is transferred as a logical copy of a
//!   region: the kernel maps the pages copy-on-write into the receiver
//!   instead of copying bytes. Here that is modeled by an immutable
//!   shared snapshot ([`OolBuffer`]) whose transfer cost is per-page map
//!   cost, not per-byte copy cost. The receiver obtains a private view; a
//!   physical copy happens only if somebody writes (handled by the VM layer
//!   when such a buffer is mapped into an address space).

use crate::port::{ReceiveRight, SendRight};
use std::fmt;
use std::sync::{Arc, Weak};

/// Message id carried by kernel-generated port death notifications.
pub const MSG_ID_PORT_DEATH: u32 = 0xDEAD;

/// Type tag for inline data items, as in Mach's typed message format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// Untyped bytes.
    Byte,
    /// 8-bit characters.
    Char,
    /// 32-bit integers.
    Int32,
    /// 64-bit integers (addresses, offsets, sizes).
    Int64,
    /// Booleans.
    Bool,
}

/// An out-of-line region: a logical copy transferred by mapping.
///
/// Cloning an `OolBuffer` is O(1) and shares the underlying bytes — the
/// analogue of mapping the same physical pages copy-on-write into another
/// address space. [`OolBuffer::to_mut_vec`] performs the deferred physical
/// copy (the "write fault").
#[derive(Clone)]
pub struct OolBuffer {
    /// The pages hang off the counted block instead of living in it, so
    /// they are freed with the last handle even while an [`OolWatch`]
    /// still looks at the block.
    bytes: Arc<Vec<u8>>,
}

impl OolBuffer {
    /// Snapshots a byte slice into an out-of-line buffer (one-time copy at
    /// the sender, standing in for the sender's pages being write-protected).
    pub fn from_slice(bytes: &[u8]) -> Self {
        Self::from_vec(bytes.to_vec())
    }

    /// Wraps an owned vector without copying.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self {
            bytes: Arc::new(bytes),
        }
    }

    /// Read access to the shared bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of `page_size` pages this region occupies (rounded up).
    pub fn page_count(&self, page_size: usize) -> usize {
        self.bytes.len().div_ceil(page_size.max(1))
    }

    /// Materializes a private mutable copy — the deferred "copy" of
    /// copy-on-write, paid only by writers.
    pub fn to_mut_vec(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }

    /// Whether this handle is the only reference to the pages — the state
    /// of a region sent deallocate-on-send ([`OolBuffer::from_vec`] with
    /// no clone kept). A receiver holding an exclusive buffer may take the
    /// pages over by remapping; a shared one still belongs to whoever
    /// holds the other handles and has to be copied.
    pub fn is_exclusive(&self) -> bool {
        Arc::strong_count(&self.bytes) == 1
    }

    /// Whether two buffers share physical storage (for tests asserting that
    /// no physical copy has happened).
    pub fn shares_storage_with(&self, other: &OolBuffer) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// A handle that sees when the pages are gone without keeping them
    /// alive: the sender of a region it gave away can watch the receiver's
    /// `vm_deallocate` happen. A watch is not a reference —
    /// [`OolBuffer::is_exclusive`] ignores it.
    pub fn watch(&self) -> OolWatch {
        OolWatch(Arc::downgrade(&self.bytes))
    }
}

/// Observes the lifetime of an [`OolBuffer`]'s pages; see [`OolBuffer::watch`].
#[derive(Debug)]
pub struct OolWatch(Weak<Vec<u8>>);

impl OolWatch {
    /// Whether every handle on the pages has been dropped.
    pub fn is_released(&self) -> bool {
        self.0.strong_count() == 0
    }
}

impl fmt::Debug for OolBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OolBuffer({} bytes)", self.bytes.len())
    }
}

/// One typed item in a message body.
pub enum MsgItem {
    /// Physically copied inline data.
    Inline {
        /// Element type of the data.
        tag: TypeTag,
        /// Raw bytes of the item.
        data: Vec<u8>,
    },
    /// A logically copied out-of-line region (COW transfer).
    OutOfLine(OolBuffer),
    /// Send rights in transit.
    SendRights(Vec<SendRight>),
    /// A receive right in transit (migrates the port's receivership).
    ReceiveRight(ReceiveRight),
    /// An opaque kernel handle (e.g. a memory-object region descriptor for
    /// zero-copy out-of-line transfer within one host). The `tag`
    /// discriminates handle types; the payload is downcast by the consumer.
    Opaque {
        /// Handle type discriminator.
        tag: u32,
        /// The kernel data structure in transit.
        handle: std::sync::Arc<dyn std::any::Any + Send + Sync>,
    },
}

impl fmt::Debug for MsgItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgItem::Inline { tag, data } => {
                write!(f, "Inline({tag:?}, {} bytes)", data.len())
            }
            MsgItem::OutOfLine(b) => write!(f, "OutOfLine({} bytes)", b.len()),
            MsgItem::SendRights(r) => write!(f, "SendRights(x{})", r.len()),
            MsgItem::ReceiveRight(r) => write!(f, "ReceiveRight({r:?})"),
            MsgItem::Opaque { tag, .. } => write!(f, "Opaque(tag={tag})"),
        }
    }
}

impl MsgItem {
    /// Inline bytes helper.
    pub fn bytes(data: impl Into<Vec<u8>>) -> Self {
        MsgItem::Inline {
            tag: TypeTag::Byte,
            data: data.into(),
        }
    }

    /// Inline u64 helper (little endian), for offsets/sizes in protocols.
    pub fn u64s(values: &[u64]) -> Self {
        let mut data = Vec::with_capacity(values.len() * 8);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        MsgItem::Inline {
            tag: TypeTag::Int64,
            data,
        }
    }

    /// Decodes an `Int64` inline item back into u64 values.
    pub fn as_u64s(&self) -> Option<Vec<u64>> {
        match self {
            MsgItem::Inline {
                tag: TypeTag::Int64,
                data,
            } if data.len() % 8 == 0 => Some(
                data.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Returns the inline payload if this item is typed as bytes or chars.
    ///
    /// Typed messages exist precisely so receivers cannot confuse an
    /// integer array with a byte string; this accessor honors the tag.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            MsgItem::Inline {
                tag: TypeTag::Byte | TypeTag::Char,
                data,
            } => Some(data),
            _ => None,
        }
    }

    /// Returns the raw inline payload regardless of its type tag.
    pub fn as_raw_inline(&self) -> Option<&[u8]> {
        match self {
            MsgItem::Inline { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Returns the out-of-line buffer if this is an OOL item.
    pub fn as_ool(&self) -> Option<&OolBuffer> {
        match self {
            MsgItem::OutOfLine(b) => Some(b),
            _ => None,
        }
    }

    /// Bytes that must be *physically* copied to enqueue this item.
    pub fn inline_len(&self) -> usize {
        match self {
            MsgItem::Inline { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// Bytes moved logically (by mapping) rather than copied.
    pub fn ool_len(&self) -> usize {
        match self {
            MsgItem::OutOfLine(b) => b.len(),
            _ => 0,
        }
    }
}

/// A Mach message: header plus typed body.
#[derive(Debug, Default)]
pub struct Message {
    /// Operation identifier, by convention the RPC selector.
    pub id: u32,
    /// Reply port for RPC-style interactions (`msg_rpc`).
    pub reply: Option<SendRight>,
    /// Typed data items.
    pub body: Vec<MsgItem>,
    /// Causal-chain id this message belongs to (0 = none). Stamped from
    /// the sending thread's trace context at enqueue time if unset, and
    /// adopted by the receiving thread at dequeue time, so a correlation
    /// id allocated at fault time survives every IPC (and network) hop.
    pub correlation: u64,
    /// Simulated send timestamp on the sender's clock (0 = unset), used
    /// to record the `ipc.send_to_receive` latency histogram.
    pub sent_at_ns: u64,
    /// Span id the message's downstream work should nest under (0 = none):
    /// the sender's current span, or whatever chain context the sending
    /// subsystem stamped explicitly.
    pub parent_span: u64,
    /// The open `ipc.queued` span covering this message's time in the
    /// queue (0 = none); closed at dequeue.
    pub queue_span: u64,
}

impl Message {
    /// Creates an empty message with the given id.
    pub fn new(id: u32) -> Self {
        Self {
            id,
            reply: None,
            body: Vec::new(),
            correlation: 0,
            sent_at_ns: 0,
            parent_span: 0,
            queue_span: 0,
        }
    }

    /// The span a receiver's work should nest under: the queue span when
    /// the message sat in a queue, else the sender's stamped parent.
    pub fn span_context(&self) -> u64 {
        if self.queue_span != 0 {
            self.queue_span
        } else {
            self.parent_span
        }
    }

    /// Builder: appends an item.
    pub fn with(mut self, item: MsgItem) -> Self {
        self.body.push(item);
        self
    }

    /// Builder: sets the reply port.
    pub fn with_reply(mut self, reply: SendRight) -> Self {
        self.reply = Some(reply);
        self
    }

    /// Total inline (physically copied) payload bytes.
    pub fn inline_len(&self) -> usize {
        self.body.iter().map(MsgItem::inline_len).sum()
    }

    /// Total out-of-line (logically moved) payload bytes.
    pub fn ool_len(&self) -> usize {
        self.body.iter().map(MsgItem::ool_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ool_clone_shares_storage() {
        let a = OolBuffer::from_slice(&[1, 2, 3]);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert_eq!(b.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn ool_exclusive_until_cloned() {
        let a = OolBuffer::from_vec(vec![0; 8]);
        assert!(a.is_exclusive());
        let b = a.clone();
        assert!(!a.is_exclusive() && !b.is_exclusive());
        drop(b);
        assert!(a.is_exclusive());
    }

    #[test]
    fn ool_watch_sees_the_last_handle_go_and_is_not_a_handle() {
        let a = OolBuffer::from_vec(vec![0; 8]);
        let watch = a.watch();
        assert!(a.is_exclusive(), "a watch is not a reference");
        let b = a.clone();
        drop(a);
        assert!(!watch.is_released(), "a clone keeps the pages");
        drop(b);
        assert!(watch.is_released());
        // An empty region is still a region somebody holds.
        let empty = OolBuffer::from_vec(Vec::new());
        let watch = empty.watch();
        assert!(!watch.is_released());
        drop(empty);
        assert!(watch.is_released());
    }

    #[test]
    fn ool_mut_copy_is_private() {
        let a = OolBuffer::from_slice(b"hello");
        let mut v = a.to_mut_vec();
        v[0] = b'H';
        assert_eq!(a.as_slice(), b"hello");
    }

    #[test]
    fn ool_page_count_rounds_up() {
        let b = OolBuffer::from_vec(vec![0; 4097]);
        assert_eq!(b.page_count(4096), 2);
        assert_eq!(OolBuffer::from_vec(vec![]).page_count(4096), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let item = MsgItem::u64s(&[7, 0xDEAD_BEEF, u64::MAX]);
        assert_eq!(item.as_u64s().unwrap(), vec![7, 0xDEAD_BEEF, u64::MAX]);
    }

    #[test]
    fn u64_decode_rejects_wrong_tag() {
        let item = MsgItem::bytes(vec![0; 8]);
        assert!(item.as_u64s().is_none());
    }

    #[test]
    fn message_length_accounting() {
        let m = Message::new(1)
            .with(MsgItem::bytes(vec![0; 10]))
            .with(MsgItem::OutOfLine(OolBuffer::from_vec(vec![0; 5000])));
        assert_eq!(m.inline_len(), 10);
        assert_eq!(m.ool_len(), 5000);
    }

    #[test]
    fn builder_sets_fields() {
        let m = Message::new(42);
        assert_eq!(m.id, 42);
        assert!(m.reply.is_none());
        assert!(m.body.is_empty());
    }
}
