//! Wire protocol of the external memory management interface.
//!
//! Every call in Tables 3-4, 3-5 and 3-6 is "implemented using IPC; the
//! first argument to each call is the port to which the request is sent".
//! Each protocol is one type: an enum whose variants are its messages,
//! declared with [`protocol!`](crate::protocol), which gives it the one
//! `encode` and the one `decode` its senders and receivers use — here
//! [`KernelToManager`] (Table 3-5), [`ManagerToKernel`] (Table 3-6) and
//! [`HostRequest`]; the task port's in `machcore::objport`, the file
//! server's in `machpagers::fs`. Every kernel ↔ data-manager call carries
//! the kernel's object id first, so one port can serve many objects.
//!
//! No message acknowledges a `pager_data_write`: the manager's release of
//! the data is its `vm_deallocate`, a memory operation, and the kernel
//! watches the buffer it sent for the last handle to go
//! (`machcore::backend`). Id `0x2306`, once that acknowledgement, stays
//! unassigned, so an old manager's message is counted in
//! `emm.malformed_dropped`.
//!
//! Shutdown is not a call of any protocol: every server loop is
//! [`machipc::serve_group`], which stops only on a message carrying its
//! owner's key.

use machipc::{MsgItem, OolBuffer, SendRight, TypeTag};
use machvm::VmProt;
use std::collections::VecDeque;

pub use machipc::Message;

/// Reply to [`HostRequest::Statistics`]: `introspect::HostStatistics`.
pub const HOST_STATISTICS_REPLY: u32 = 0x2501;
/// Reply to [`HostRequest::VmStatistics`]: `introspect::VmStatisticsSnapshot`.
pub const HOST_VM_STATISTICS_REPLY: u32 = 0x2503;
/// Reply to [`HostRequest::TaskInfo`]: `introspect::TaskInfoReply`.
pub const HOST_TASK_INFO_REPLY: u32 = 0x2505;
/// Reply to [`HostRequest::TraceQuery`]: `introspect::TraceQueryReply`.
pub const HOST_TRACE_QUERY_REPLY: u32 = 0x2507;

/// Opaque-handle tag for in-kernel memory region descriptors carried in
/// out-of-line message transfer (see `machcore::msg`).
pub const OPAQUE_REGION: u32 = 0x5E61;

crate::protocol! {
    /// Kernel → data manager: the calls of Table 3-5, sent to the memory
    /// object port. Those that expect an answer name the kernel's pager
    /// request port, "to which the data should be returned".
    #[derive(Debug)]
    pub enum KernelToManager {
        /// `pager_init(object, request, name)`: a kernel mapped the object
        /// for the first time; it holds the receive rights of both ports.
        Init(object: u64, request: SendRight, name: Option<SendRight>) = PAGER_INIT: 0x2200,
        /// `pager_data_request(object, offset, length, access, request)`.
        /// The fault engine sends a wave of these in one `send_many`, each
        /// with its own fault's correlation id.
        DataRequest(
            object: u64, offset: u64, length: u64, access: VmProt, request: SendRight
        ) = PAGER_DATA_REQUEST: 0x2201,
        /// `pager_data_write(object, offset, data, request)`: dirty data
        /// is being cleaned. Nothing answers it.
        DataWrite(object: u64, offset: u64, data: OolBuffer, request: SendRight)
            = PAGER_DATA_WRITE: 0x2202,
        /// `pager_data_unlock(object, offset, length, access, request)`.
        DataUnlock(
            object: u64, offset: u64, length: u64, access: VmProt, request: SendRight
        ) = PAGER_DATA_UNLOCK: 0x2203,
        /// `pager_create(object, request)`: the default pager adopts a
        /// kernel-created object (this kernel's own names no request port).
        Create(object: u64, request: Option<SendRight>) = PAGER_CREATE: 0x2204,
        /// `(object)` is terminated: release its backing storage. (Mach
        /// signals this by request and name port death; one port may serve
        /// many objects here.)
        Terminate(object: u64) = PAGER_TERMINATE: 0x2205,
    }
}

crate::protocol! {
    /// Data manager → kernel: the calls of Table 3-6, sent to the pager
    /// request port. A `lock` names the access that must be prevented.
    #[derive(Debug)]
    pub enum ManagerToKernel {
        /// `pager_data_provided(object, offset, lock, data)`.
        DataProvided(object: u64, offset: u64, lock: VmProt, data: OolBuffer)
            = PAGER_DATA_PROVIDED: 0x2300,
        /// `pager_data_lock(object, offset, length, lock)`.
        DataLock(object: u64, offset: u64, length: u64, lock: VmProt) = PAGER_DATA_LOCK: 0x2301,
        /// `pager_flush_request(object, offset, length)`: invalidate.
        FlushRequest(object: u64, offset: u64, length: u64) = PAGER_FLUSH_REQUEST: 0x2302,
        /// `pager_clean_request(object, offset, length)`: write back.
        CleanRequest(object: u64, offset: u64, length: u64) = PAGER_CLEAN_REQUEST: 0x2303,
        /// `pager_cache(object, may_cache)` once unreferenced.
        Cache(object: u64, may_cache: bool) = PAGER_CACHE: 0x2304,
        /// `pager_data_unavailable(object, offset, size)`: zero-fill.
        DataUnavailable(object: u64, offset: u64, size: u64)
            = PAGER_DATA_UNAVAILABLE: 0x2305,
        /// `(object, pages)`: at most `pages` per `pager_data_request` (1:
        /// no prefetch), the cluster-size attribute of later Mach.
        SetCluster(object: u64, pages: u64) = PAGER_SET_CLUSTER: 0x2307,
    }
}

crate::protocol! {
    /// Any task → kernel host port, in the style of Mach's `host_info`:
    /// introspection is just another message protocol, so a remote host
    /// can query it through a network proxy port. Each call is an RPC;
    /// its typed reply is in `machcore::introspect`.
    #[derive(Debug)]
    pub enum HostRequest {
        /// `host_statistics`: every counter and latency histogram.
        Statistics = HOST_STATISTICS: 0x2500,
        /// `host_vm_statistics`: the frame census, whole and per node.
        VmStatistics = HOST_VM_STATISTICS: 0x2502,
        /// `host_task_info`: live tasks and their address maps.
        TaskInfo = HOST_TASK_INFO: 0x2504,
        /// `host_trace_query(correlation, max_events)`: one chain, or the
        /// ring's tail when `correlation` is 0.
        TraceQuery(correlation: u64, max_events: u64) = HOST_TRACE_QUERY: 0x2506,
    }
}

/// A message that is not one of its protocol's: an unknown id, or a body
/// without the fields its id needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed;

/// A message body taken apart by item kind: the one reader and writer of
/// a message's shape. A body is a name (bytes), an array of `u64` words,
/// out-of-line buffers and send rights, on the wire in that order, each
/// item present only when there is something in it.
#[derive(Default)]
pub struct Parts {
    name: Option<Vec<u8>>,
    words: VecDeque<u64>,
    ool: VecDeque<OolBuffer>,
    rights: VecDeque<SendRight>,
}

/// How many words, rights, names and out-of-line buffers something needs.
pub type Need = [usize; 4];

impl Parts {
    /// Takes a received body apart, moving its buffers and rights out: the
    /// first name and word array, and every out-of-line buffer and right.
    pub fn of(body: Vec<MsgItem>) -> Parts {
        let mut parts = Parts::default();
        for item in body {
            match item {
                MsgItem::Inline {
                    tag: TypeTag::Int64,
                    ..
                } if parts.words.is_empty() => {
                    parts.words = item.as_u64s().unwrap_or_default().into()
                }
                MsgItem::Inline {
                    tag: TypeTag::Byte | TypeTag::Char,
                    data,
                } if parts.name.is_none() => parts.name = Some(data),
                MsgItem::OutOfLine(data) => parts.ool.push_back(data),
                MsgItem::SendRights(rights) => parts.rights.extend(rights),
                _ => {}
            }
        }
        parts
    }

    /// The message `id` with this body.
    pub fn into_message(mut self, id: u32) -> Message {
        let mut msg = Message::new(id);
        msg.body.extend(self.name.map(MsgItem::bytes));
        if !self.words.is_empty() {
            msg.body.push(MsgItem::u64s(self.words.make_contiguous()));
        }
        msg.body
            .extend(self.ool.into_iter().map(MsgItem::OutOfLine));
        if !self.rights.is_empty() {
            msg.body.push(MsgItem::SendRights(self.rights.into()));
        }
        msg
    }

    /// Whether the body holds all of each need.
    pub fn fits(&self, needs: &[Need]) -> bool {
        let (words, rights) = (self.words.len(), self.rights.len());
        let have = [words, rights, self.name.iter().len(), self.ool.len()];
        (0..4).all(|i| have[i] >= needs.iter().map(|need| need[i]).sum())
    }

    /// The name, as text.
    pub fn text(&mut self) -> Result<String, Malformed> {
        String::from_utf8(self.name.take().ok_or(Malformed)?).map_err(|_| Malformed)
    }

    /// The words not yet taken.
    pub fn words(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.words.drain(..)
    }
}

/// A value with a place in a message body: a word (`u64`, [`VmProt`],
/// `bool`), the name (`String`, which must be UTF-8, or raw bytes, or
/// several names), an out-of-line buffer, a send right, or an `Option` of
/// one.
pub trait Field: Sized {
    /// What taking this field needs of a body.
    const NEED: Need;
    /// Puts the value in its place.
    fn put(self, parts: &mut Parts);
    /// Takes the value out of a body that [`Parts::fits`] its need.
    fn take(parts: &mut Parts) -> Result<Self, Malformed>;
}

/// Implements [`Field`] for the types that fill one place: each line is
/// `type: need, |parts, value| put, |parts| take`.
macro_rules! field {
    ($($ty:ty: $need:expr, |$parts:ident, $value:ident| $put:expr, |$from:ident| $take:expr;)*)
    => {$(
        impl Field for $ty {
            const NEED: Need = $need;
            fn put(self, $parts: &mut Parts) {
                let $value = self;
                $put;
            }
            fn take($from: &mut Parts) -> Result<Self, Malformed> {
                $take.ok_or(Malformed)
            }
        }
    )*};
}

field! {
    u64: [1, 0, 0, 0], |p, v| p.words.push_back(v), |p| p.words.pop_front();
    VmProt: [1, 0, 0, 0], |p, v| u64::from(v.0).put(p),
        |p| p.words.pop_front().map(|w| VmProt(w as u8));
    bool: [1, 0, 0, 0], |p, v| u64::from(v).put(p), |p| p.words.pop_front().map(|w| w != 0);
    String: [0, 0, 1, 0], |p, v| p.name = Some(v.into_bytes()), |p| p.text().ok();
    Vec<u8>: [0, 0, 1, 0], |p, v| p.name = Some(v), |p| p.name.take();
    OolBuffer: [0, 0, 0, 1], |p, v| p.ool.push_back(v), |p| p.ool.pop_front();
    SendRight: [0, 1, 0, 0], |p, v| p.rights.push_back(v), |p| p.rights.pop_front();
}

/// Several names in the name's place, their count and byte lengths as
/// words: no byte of a name is a separator, so any names round-trip.
impl Field for Vec<String> {
    const NEED: Need = [1, 0, 1, 0];
    fn put(self, parts: &mut Parts) {
        parts.words.push_back(self.len() as u64);
        parts
            .words
            .extend(self.iter().map(|name| name.len() as u64));
        parts.name = Some(self.concat().into_bytes());
    }
    fn take(parts: &mut Parts) -> Result<Self, Malformed> {
        let count = parts.words.pop_front().ok_or(Malformed)?;
        let count = usize::try_from(count).map_err(|_| Malformed)?;
        let bytes = parts.name.take().ok_or(Malformed)?;
        if parts.words.len() < count {
            return Err(Malformed);
        }
        let mut at = 0usize;
        let mut names = Vec::with_capacity(count);
        for len in parts.words.drain(..count) {
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| at.checked_add(len));
            let name = end.and_then(|end| bytes.get(at..end)).ok_or(Malformed)?;
            names.push(String::from_utf8(name.to_vec()).map_err(|_| Malformed)?);
            at += name.len();
        }
        (at == bytes.len()).then_some(names).ok_or(Malformed)
    }
}

impl<T: Field> Field for Option<T> {
    const NEED: Need = [0; 4];
    fn put(self, parts: &mut Parts) {
        self.into_iter().for_each(|value| value.put(parts));
    }
    fn take(parts: &mut Parts) -> Result<Self, Malformed> {
        parts.fits(&[T::NEED]).then(|| T::take(parts)).transpose()
    }
}

/// Declares a protocol: an enum whose variants are its messages, with
/// `encode(self) -> Message` and `decode(Message) -> Result<Self, Malformed>`.
///
/// A variant is `Name(field: Type, ..) = ID: value`, or `Name = ID: value`
/// with no fields; it declares the wire id `ID` unless the value is left
/// out (an id declared elsewhere). Each field's [`Field`] type says where
/// it goes in the body ([`Parts`]), words in declaration order; extra
/// words and items are ignored. Variants may share an id (a reply's
/// shapes): `decode` takes the first declared whose fields the body holds,
/// so the one that needs most comes first.
#[macro_export]
macro_rules! protocol {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident $(($($field:ident: $ty:ty),* $(,)?))?
            = $id:ident $(: $value:literal)?),* $(,)?
    }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $(($($ty),*))?),*
        }

        $($(
            #[doc = concat!("Wire id of [`", stringify!($name), "::", stringify!($variant), "`].")]
            $vis const $id: u32 = $value;
        )?)*

        impl $name {
            /// The message for this call.
            pub fn encode(self) -> $crate::proto::Message {
                #[allow(unused_mut)]
                let mut parts = $crate::proto::Parts::default();
                match self {
                    $(Self::$variant $(($($field),*))? => {
                        $($($crate::proto::Field::put($field, &mut parts);)*)?
                        parts.into_message($id)
                    })*
                }
            }

            /// The call a received message makes, or why it makes none.
            pub fn decode(msg: $crate::proto::Message) -> Result<Self, $crate::proto::Malformed> {
                #[allow(unused_mut)]
                let mut parts = $crate::proto::Parts::of(msg.body);
                $(if msg.id == $id && parts.fits(&[$($(<$ty as $crate::proto::Field>::NEED),*)?]) {
                    return Ok(Self::$variant $(($({
                        let $field: $ty = $crate::proto::Field::take(&mut parts)?;
                        $field
                    }),*))?);
                })*
                Err($crate::proto::Malformed)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct() {
        let ids = [
            PAGER_INIT,
            PAGER_DATA_REQUEST,
            PAGER_DATA_WRITE,
            PAGER_DATA_UNLOCK,
            PAGER_CREATE,
            PAGER_TERMINATE,
            PAGER_DATA_PROVIDED,
            PAGER_DATA_LOCK,
            PAGER_FLUSH_REQUEST,
            PAGER_CLEAN_REQUEST,
            PAGER_CACHE,
            PAGER_DATA_UNAVAILABLE,
            PAGER_SET_CLUSTER,
            HOST_STATISTICS,
            HOST_STATISTICS_REPLY,
            HOST_VM_STATISTICS,
            HOST_VM_STATISTICS_REPLY,
            HOST_TASK_INFO,
            HOST_TASK_INFO_REPLY,
            HOST_TRACE_QUERY,
            HOST_TRACE_QUERY_REPLY,
            machipc::SERVER_STOP,
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn encoding_is_the_one_item_order() {
        let (_rx, right) = machipc::ReceiveRight::allocate(&machsim::Machine::default_machine());
        let data = OolBuffer::from_vec(vec![1; 4096]);
        let msg = KernelToManager::DataWrite(3, 4096, data, right).encode();
        assert_eq!(msg.id, PAGER_DATA_WRITE);
        assert_eq!(
            format!("{:?}", msg.body),
            "[Inline(Int64, 16 bytes), OutOfLine(4096 bytes), SendRights(x1)]"
        );
        let empty = HostRequest::Statistics.encode();
        assert!(empty.body.is_empty());
    }
}
