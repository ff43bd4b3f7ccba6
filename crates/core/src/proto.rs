//! Wire protocol of the external memory management interface.
//!
//! Every call in Tables 3-4, 3-5 and 3-6 is "implemented using IPC; the
//! first argument to each call is the port to which the request is sent".
//! This module pins down the message ids and body layouts. All kernel ↔
//! data-manager messages carry the kernel-internal object id as their first
//! `u64` so one port can serve many objects (the default pager does; user
//! managers usually allocate one port per object and may ignore it).
//!
//! Kernel → data manager (sent to the *memory object port*, Table 3-5):
//!
//! | id | call | body |
//! |----|------|------|
//! | [`PAGER_INIT`] | `pager_init` | u64s `[object]`; send rights `[request, name]` |
//! | [`PAGER_DATA_REQUEST`] | `pager_data_request` | u64s `[object, offset, length, access]`; rights `[request]` |
//! | [`PAGER_DATA_WRITE`] | `pager_data_write` | u64s `[object, offset]`; OOL data |
//! | [`PAGER_DATA_UNLOCK`] | `pager_data_unlock` | u64s `[object, offset, length, access]`; rights `[request]` |
//! | [`PAGER_CREATE`] | `pager_create` | u64s `[object]`; rights `[request, name]` |
//!
//! Data manager → kernel (sent to the *pager request port*, Table 3-6):
//!
//! | id | call | body |
//! |----|------|------|
//! | [`PAGER_DATA_PROVIDED`] | `pager_data_provided` | u64s `[object, offset, lock]`; OOL data |
//! | [`PAGER_DATA_LOCK`] | `pager_data_lock` | u64s `[object, offset, length, lock]` |
//! | [`PAGER_FLUSH_REQUEST`] | `pager_flush_request` | u64s `[object, offset, length]` |
//! | [`PAGER_CLEAN_REQUEST`] | `pager_clean_request` | u64s `[object, offset, length]` |
//! | [`PAGER_CACHE`] | `pager_cache` | u64s `[object, may_cache]` |
//! | [`PAGER_DATA_UNAVAILABLE`] | `pager_data_unavailable` | u64s `[object, offset, size]` |
//! | [`PAGER_SET_CLUSTER`] | (cluster-size attribute) | u64s `[object, pages]` |
//!
//! No message acknowledges a `pager_data_write`. The manager's release of
//! the written data is its `vm_deallocate` — a memory operation — and the
//! kernel observes the memory: it watches the out-of-line buffer it sent
//! and sees the last handle go (`machcore::backend`). Id `0x2306`, once
//! that acknowledgement, stays unassigned inside the Table 3-6 range, so
//! an old manager's message is counted in `emm.malformed_dropped`.
//!
//! Any task → kernel (sent to the *host port*, in the style of Mach's
//! `host_info`/`vm_statistics` — introspection is just another message
//! protocol, so a remote host can query it through a network proxy port):
//!
//! | id | call | body |
//! |----|------|------|
//! | [`HOST_STATISTICS`] | `host_statistics` | empty; reply port |
//! | [`HOST_VM_STATISTICS`] | `host_vm_statistics` | empty; reply port |
//! | [`HOST_TASK_INFO`] | `host_task_info` | empty; reply port |
//! | [`HOST_TRACE_QUERY`] | `host_trace_query` | u64s `[correlation_or_0, max_events]`; reply port |
//!
//! Replies carry the corresponding `*_REPLY` id; see `machcore::introspect`
//! for the body encodings.

/// Kernel → manager: initialize a memory object (Table 3-5).
pub const PAGER_INIT: u32 = 0x2200;
/// Kernel → manager: request data (Table 3-5).
///
/// The async fault engine batches these: runs coalesced per (pager,
/// object) ship as *many messages in one `send_many` enqueue* — one lock
/// round and one manager wakeup for a whole wave of faults. Each message
/// in the batch still carries its own faulting thread's correlation id,
/// so per-fault causal chains survive the batching (see
/// `machvm::continuation` and `IpcPagerBackend::data_request_many`).
pub const PAGER_DATA_REQUEST: u32 = 0x2201;
/// Kernel → manager: write back dirty data (Table 3-5).
pub const PAGER_DATA_WRITE: u32 = 0x2202;
/// Kernel → manager: ask for a lock to be relaxed (Table 3-5).
pub const PAGER_DATA_UNLOCK: u32 = 0x2203;
/// Kernel → default pager: adopt a kernel-created object (Table 3-5).
pub const PAGER_CREATE: u32 = 0x2204;
/// Kernel → manager: the object is terminated; release its backing
/// storage. (Real Mach signals this via request/name port death; the
/// explicit message is needed here because one port may serve many
/// objects.)
pub const PAGER_TERMINATE: u32 = 0x2205;

/// Manager → kernel: supply object data (Table 3-6).
pub const PAGER_DATA_PROVIDED: u32 = 0x2300;
/// Manager → kernel: restrict access to cached data (Table 3-6).
pub const PAGER_DATA_LOCK: u32 = 0x2301;
/// Manager → kernel: invalidate cached data (Table 3-6).
pub const PAGER_FLUSH_REQUEST: u32 = 0x2302;
/// Manager → kernel: write back cached data (Table 3-6).
pub const PAGER_CLEAN_REQUEST: u32 = 0x2303;
/// Manager → kernel: set persistence advice (Table 3-6).
pub const PAGER_CACHE: u32 = 0x2304;
/// Manager → kernel: no data exists for the region (Table 3-6).
pub const PAGER_DATA_UNAVAILABLE: u32 = 0x2305;
/// Manager → kernel: cap cluster paging for the object at the given
/// number of pages per `pager_data_request` (the cluster-size attribute
/// of `memory_object_set_attributes` in later Mach; 1 disables prefetch).
/// Body: u64s `[object, pages]`.
pub const PAGER_SET_CLUSTER: u32 = 0x2307;

/// Task → kernel host port: snapshot every named counter and latency
/// histogram of the serving host.
pub const HOST_STATISTICS: u32 = 0x2500;
/// Reply to [`HOST_STATISTICS`].
pub const HOST_STATISTICS_REPLY: u32 = 0x2501;
/// Task → kernel host port: snapshot resident-memory state (frame census,
/// whole and per memory node, pageout queue lengths).
pub const HOST_VM_STATISTICS: u32 = 0x2502;
/// Reply to [`HOST_VM_STATISTICS`].
pub const HOST_VM_STATISTICS_REPLY: u32 = 0x2503;
/// Task → kernel host port: list live tasks with their VM map summaries.
pub const HOST_TASK_INFO: u32 = 0x2504;
/// Reply to [`HOST_TASK_INFO`].
pub const HOST_TASK_INFO_REPLY: u32 = 0x2505;
/// Task → kernel host port: fetch trace events (one chain, or the tail of
/// the ring when the correlation argument is 0).
pub const HOST_TRACE_QUERY: u32 = 0x2506;
/// Reply to [`HOST_TRACE_QUERY`].
pub const HOST_TRACE_QUERY_REPLY: u32 = 0x2507;

/// Kernel service loop control: shut down.
pub const KERNEL_SHUTDOWN: u32 = 0x2FFF;

/// Opaque-handle tag for in-kernel memory region descriptors carried in
/// out-of-line message transfer (see `machcore::msg`).
pub const OPAQUE_REGION: u32 = 0x5E61;

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
            KERNEL_SHUTDOWN,
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
