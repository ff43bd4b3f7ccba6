//! Virtual memory object structures (Section 5.2).
//!
//! "An internal memory object structure is kept for each memory object used
//! in an address map (or for which the data manager has advised that
//! caching is permitted). Components of this structure include the ports
//! used to refer to the memory object, its size, the number of address map
//! references to the object, and whether the kernel is permitted to cache
//! the memory object when no address map references remain."
//!
//! The "ports used to refer to the memory object" appear here as a
//! [`PagerBackend`] trait object: the kernel crate implements it by sending
//! messages on the memory object port, while unit tests plug in in-process
//! fakes. Shadow objects — the holders of changed copy-on-write pages —
//! are objects whose `shadow` field links to the object they copy.

use crate::types::VmProt;
use machipc::OolBuffer;
use machsim::wall::{Deadline, Latch};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Kernel-internal identity of a memory object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// One run of a batched `pager_data_request` — the unit the async fault
/// engine coalesces per (pager, object) before shipping a whole batch in
/// one backlog-exempt `send_many`.
#[derive(Clone, Copy, Debug)]
pub struct PagerRequest {
    /// Start of the run within the object (page aligned).
    pub offset: u64,
    /// Length of the run in bytes (whole pages).
    pub length: u64,
    /// The access the faulting thread wanted.
    pub access: VmProt,
    /// Raw correlation id of the fault that claimed the run (`0` = none);
    /// stamped on the outgoing message so the causal chain survives the
    /// batching hop.
    pub correlation: u64,
    /// Span id of the claiming fault's chain root (`0` = none); stamped on
    /// the outgoing message so manager-side spans nest under the fault.
    pub parent_span: u64,
}

/// The kernel's outbound half of the external pager protocol (Table 3-5).
///
/// "These remote procedure calls made by the Mach kernel are asynchronous;
/// the calls do not have explicit return arguments and the kernel does not
/// wait for acknowledgement." — every method here is fire-and-forget; data
/// returns later through `PhysicalMemory::supply_page` and friends.
pub trait PagerBackend: Send + Sync {
    /// `pager_data_request`: ask the data manager for `[offset, offset+length)`.
    fn data_request(&self, object: ObjectId, offset: u64, length: u64, desired_access: VmProt);

    /// `pager_data_write`: hand dirty data back to the data manager.
    ///
    /// The data travels as an [`OolBuffer`] — the "temporary memory object"
    /// of Section 6.2.2 that exists until the manager releases it.
    fn data_write(&self, object: ObjectId, offset: u64, data: OolBuffer);

    /// `pager_data_unlock`: ask the manager to relax the lock on cached data.
    fn data_unlock(&self, object: ObjectId, offset: u64, length: u64, desired_access: VmProt);

    /// Batched `pager_data_request`: every run in `runs` asked for at
    /// once. The default forwards run by run (correct for any pager);
    /// IPC-attached backends override it to ship the whole batch in one
    /// backlog-exempt `send_many`, amortizing the per-message charge —
    /// the deep pager batching the async fault engine feeds.
    fn data_request_many(&self, object: ObjectId, runs: &[PagerRequest]) {
        for r in runs {
            let _scope = machsim::trace::CorrelationId::from_raw(r.correlation)
                .map(machsim::trace::CorrelationScope::enter);
            self.data_request(object, r.offset, r.length, r.access);
        }
    }

    /// Termination notice: the kernel dropped its last reference.
    fn terminate(&self, object: ObjectId) {
        let _ = object;
    }

    /// Whether the manager behind this backend answers multi-page
    /// `data_request`s and accepts multi-page `data_write`s (cluster
    /// paging). The kernel only issues clustered requests — and batched
    /// pageouts — when this is `true`, so single-page-minded pagers are
    /// never asked for runs they would leave half-filled.
    fn supports_cluster(&self) -> bool {
        false
    }

    /// A short label for diagnostics.
    fn name(&self) -> &str {
        "pager"
    }
}

/// Mutable state of a memory object.
pub struct ObjectState {
    /// Object size in bytes (may grow for temporary objects).
    pub size: u64,
    /// The external data manager, if any. `None` means zero-fill memory
    /// that has not yet been touched by the default pager.
    pub pager: Option<Arc<dyn PagerBackend>>,
    /// Object this one shadows for copy-on-write, with the offset of this
    /// object's page 0 within the shadowed object.
    pub shadow: Option<(Arc<VmObject>, u64)>,
    /// Kernel-created (zero-fill or shadow) object, backed — lazily — by
    /// the default pager rather than a user data manager.
    pub temporary: bool,
    /// Whether the kernel may keep cached pages after the last map
    /// reference goes away (`pager_cache`).
    pub can_persist: bool,
    /// Number of address-map references.
    pub map_refs: usize,
    /// Set when the object has been terminated.
    pub terminated: bool,
}

/// A kernel memory object structure.
pub struct VmObject {
    id: ObjectId,
    state: Mutex<ObjectState>,
    /// Pager-advised cap on cluster paging for this object, in pages
    /// (real Mach's `memory_object_set_attributes` cluster size). Zero
    /// means no advice: the fault policy's cluster applies unmodified.
    /// Coherence pagers set 1 so the kernel never prefetches pages whose
    /// caching they track individually.
    cluster_hint: AtomicUsize,
    /// Set by the first advice, for a mapper waiting on it (the fault path
    /// reads only `cluster_hint`).
    advised: Latch<()>,
    /// Read-ahead state sizing this object's `pager_data_request`s: the
    /// offset where the last claimed run ended and that run's window in
    /// pages, packed into one word (see [`VmObject::readahead_window`]).
    /// A hint only — racing faults may overwrite each other's update, and
    /// the loser costs one mis-sized request, never a wrong page.
    readahead: AtomicU64,
}

/// Low bits of the read-ahead word holding the window; the rest is the
/// expected offset (objects past 2^48 bytes merely alias, a mis-size).
const READAHEAD_WINDOW_BITS: u32 = 16;
const READAHEAD_WINDOW_MASK: u64 = (1 << READAHEAD_WINDOW_BITS) - 1;

/// A never-faulted object expects offset 0 with a saturated window: a
/// file is presumed read from its beginning, so its first miss asks for
/// as much as the cap allows instead of ramping up to it.
const READAHEAD_FRESH: u64 = READAHEAD_WINDOW_MASK;

fn pack_readahead(next: u64, window: usize) -> u64 {
    (next << READAHEAD_WINDOW_BITS) | (window as u64).min(READAHEAD_WINDOW_MASK)
}

impl fmt::Debug for VmObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "VmObject({}, size={}, temp={}, shadow={})",
            self.id,
            st.size,
            st.temporary,
            st.shadow.is_some()
        )
    }
}

impl VmObject {
    /// Creates a temporary (zero-fill) object, as `vm_allocate` does.
    pub fn new_temporary(size: u64) -> Arc<VmObject> {
        Arc::new(VmObject {
            id: ObjectId(NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)),
            state: Mutex::new(ObjectState {
                size,
                pager: None,
                shadow: None,
                temporary: true,
                can_persist: false,
                map_refs: 0,
                terminated: false,
            }),
            cluster_hint: AtomicUsize::new(0),
            advised: Latch::default(),
            readahead: AtomicU64::new(READAHEAD_FRESH),
        })
    }

    /// Creates an object backed by an external data manager, as
    /// `vm_allocate_with_pager` does.
    pub fn new_with_pager(size: u64, pager: Arc<dyn PagerBackend>) -> Arc<VmObject> {
        Arc::new(VmObject {
            id: ObjectId(NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)),
            state: Mutex::new(ObjectState {
                size,
                pager: Some(pager),
                shadow: None,
                temporary: false,
                can_persist: false,
                map_refs: 0,
                terminated: false,
            }),
            cluster_hint: AtomicUsize::new(0),
            advised: Latch::default(),
            readahead: AtomicU64::new(READAHEAD_FRESH),
        })
    }

    /// Creates a shadow object holding changes to `shadowed`, which this
    /// object's pages override starting at `offset` within `shadowed`.
    ///
    /// The shadow takes a reference on `shadowed` (dropped when the shadow
    /// is terminated), so a shadowed object outlives its map references.
    pub fn new_shadow(shadowed: Arc<VmObject>, offset: u64, size: u64) -> Arc<VmObject> {
        shadowed.add_map_ref();
        Arc::new(VmObject {
            id: ObjectId(NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)),
            state: Mutex::new(ObjectState {
                size,
                pager: None,
                shadow: Some((shadowed, offset)),
                temporary: true,
                can_persist: false,
                map_refs: 0,
                terminated: false,
            }),
            cluster_hint: AtomicUsize::new(0),
            advised: Latch::default(),
            readahead: AtomicU64::new(READAHEAD_FRESH),
        })
    }

    /// Kernel-internal identity.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Runs `f` with the object's state locked.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut ObjectState) -> R) -> R {
        f(&mut self.state.lock())
    }

    /// Object size in bytes.
    pub fn size(&self) -> u64 {
        self.state.lock().size
    }

    /// The data manager backing this object, if any.
    pub fn pager(&self) -> Option<Arc<dyn PagerBackend>> {
        self.state.lock().pager.clone()
    }

    /// Installs a pager (used by the default pager's `pager_create` path
    /// when a temporary object is first paged out).
    pub fn set_pager(&self, pager: Arc<dyn PagerBackend>) {
        self.state.lock().pager = Some(pager);
    }

    /// The object this one shadows, if it is a shadow object.
    pub fn shadow(&self) -> Option<(Arc<VmObject>, u64)> {
        self.state.lock().shadow.clone()
    }

    /// Whether the object is kernel-created temporary memory.
    pub fn is_temporary(&self) -> bool {
        self.state.lock().temporary
    }

    /// `pager_cache`: whether cached pages may outlive map references.
    pub fn can_persist(&self) -> bool {
        self.state.lock().can_persist
    }

    /// Sets the persistence advice.
    pub fn set_can_persist(&self, can: bool) {
        self.state.lock().can_persist = can;
    }

    /// The pager's cluster-size advice in pages; 0 means no advice.
    pub fn cluster_hint(&self) -> usize {
        self.cluster_hint.load(Ordering::Acquire)
    }

    /// Records the pager's cluster-size advice (the
    /// `memory_object_set_attributes` cluster size). Faults on this
    /// object never request more than `pages` pages per
    /// `pager_data_request`; 1 disables prefetch and pageout batching
    /// entirely.
    pub fn set_cluster_hint(&self, pages: usize) {
        self.cluster_hint.store(pages, Ordering::Release);
        self.advised.set(());
    }

    /// Waits until the pager has advised a cluster size or `deadline`
    /// passes, and returns the advice (0 if none came).
    pub fn await_cluster_hint(&self, deadline: &Deadline) -> usize {
        let _ = self.advised.wait_until(deadline);
        self.cluster_hint()
    }

    /// The inferred window, in pages, for a miss at `offset`: a miss that
    /// is not where the last claimed run ended is presumed random and gets
    /// one page; a miss that continues the run doubles its window, up to
    /// `cap`.
    pub fn readahead_window(&self, offset: u64, cap: usize) -> usize {
        let word = self.readahead.load(Ordering::Relaxed);
        let expected = word >> READAHEAD_WINDOW_BITS;
        if (offset << READAHEAD_WINDOW_BITS) >> READAHEAD_WINDOW_BITS != expected {
            return 1;
        }
        let last = (word & READAHEAD_WINDOW_MASK) as usize;
        last.saturating_mul(2).clamp(1, cap.max(1))
    }

    /// Records a claimed run: the next sequential miss is expected at
    /// `end`, and `window` is what the ramp doubles from.
    pub fn note_run(&self, end: u64, window: usize) {
        self.readahead
            .store(pack_readahead(end, window), Ordering::Relaxed);
    }

    /// Adds an address-map reference.
    pub fn add_map_ref(&self) {
        self.state.lock().map_refs += 1;
    }

    /// Drops an address-map reference; returns the remaining count.
    pub fn drop_map_ref(&self) -> usize {
        let mut st = self.state.lock();
        st.map_refs = st.map_refs.saturating_sub(1);
        st.map_refs
    }

    /// Current address-map reference count.
    pub fn map_refs(&self) -> usize {
        self.state.lock().map_refs
    }

    /// Marks the object terminated; returns the pager for notification if
    /// this was the first termination.
    pub fn mark_terminated(&self) -> Option<Arc<dyn PagerBackend>> {
        let mut st = self.state.lock();
        if st.terminated {
            return None;
        }
        st.terminated = true;
        st.pager.clone()
    }

    /// Whether the object has been terminated.
    pub fn is_terminated(&self) -> bool {
        self.state.lock().terminated
    }

    /// Grows the object to at least `size` bytes (temporary objects grow on
    /// demand; pager-backed sizes are set by the manager).
    pub fn grow_to(&self, size: u64) {
        let mut st = self.state.lock();
        if size > st.size {
            st.size = size;
        }
    }

    /// Length of the shadow chain below this object (0 for non-shadows).
    pub fn shadow_depth(&self) -> usize {
        let mut depth = 0;
        let mut cur = self.shadow();
        while let Some((obj, _)) = cur {
            depth += 1;
            cur = obj.shadow();
        }
        depth
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use parking_lot::Mutex;

    /// `len` bytes of `byte`, given away the way a manager's
    /// deallocate-on-send `pager_data_provided` gives pages away.
    pub fn filled(byte: u8, len: usize) -> OolBuffer {
        OolBuffer::from_vec(vec![byte; len])
    }

    /// Records pager calls for assertions; supplies nothing by itself.
    #[derive(Default)]
    pub struct RecordingPager {
        pub requests: Mutex<Vec<(ObjectId, u64, u64, VmProt)>>,
        pub writes: Mutex<Vec<(ObjectId, u64, Vec<u8>)>>,
        pub unlocks: Mutex<Vec<(ObjectId, u64, u64, VmProt)>>,
        pub terminated: Mutex<Vec<ObjectId>>,
        /// Advertise cluster support (tests of batched paths set this).
        pub cluster: bool,
    }

    impl PagerBackend for RecordingPager {
        fn supports_cluster(&self) -> bool {
            self.cluster
        }

        fn data_request(&self, object: ObjectId, offset: u64, length: u64, access: VmProt) {
            self.requests.lock().push((object, offset, length, access));
        }

        fn data_write(&self, object: ObjectId, offset: u64, data: OolBuffer) {
            self.writes
                .lock()
                .push((object, offset, data.as_slice().to_vec()));
        }

        fn data_unlock(&self, object: ObjectId, offset: u64, length: u64, access: VmProt) {
            self.unlocks.lock().push((object, offset, length, access));
        }

        fn terminate(&self, object: ObjectId) {
            self.terminated.lock().push(object);
        }

        fn name(&self) -> &str {
            "recording"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::RecordingPager;
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = VmObject::new_temporary(4096);
        let b = VmObject::new_temporary(4096);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn temporary_objects_have_no_pager() {
        let o = VmObject::new_temporary(8192);
        assert!(o.is_temporary());
        assert!(o.pager().is_none());
        assert_eq!(o.size(), 8192);
    }

    #[test]
    fn pager_backed_object() {
        let p = Arc::new(RecordingPager::default());
        let o = VmObject::new_with_pager(4096, p.clone());
        assert!(!o.is_temporary());
        o.pager()
            .unwrap()
            .data_request(o.id(), 0, 4096, VmProt::READ);
        assert_eq!(p.requests.lock().len(), 1);
    }

    #[test]
    fn shadow_chain_depth() {
        let base = VmObject::new_temporary(4096);
        let s1 = VmObject::new_shadow(base.clone(), 0, 4096);
        let s2 = VmObject::new_shadow(s1.clone(), 0, 4096);
        assert_eq!(base.shadow_depth(), 0);
        assert_eq!(s1.shadow_depth(), 1);
        assert_eq!(s2.shadow_depth(), 2);
        let (below, off) = s2.shadow().unwrap();
        assert_eq!(below.id(), s1.id());
        assert_eq!(off, 0);
    }

    #[test]
    fn map_ref_counting() {
        let o = VmObject::new_temporary(4096);
        o.add_map_ref();
        o.add_map_ref();
        assert_eq!(o.map_refs(), 2);
        assert_eq!(o.drop_map_ref(), 1);
        assert_eq!(o.drop_map_ref(), 0);
        assert_eq!(o.drop_map_ref(), 0);
    }

    #[test]
    fn terminate_is_idempotent() {
        let p = Arc::new(RecordingPager::default());
        let o = VmObject::new_with_pager(4096, p);
        assert!(o.mark_terminated().is_some());
        assert!(o.mark_terminated().is_none());
        assert!(o.is_terminated());
    }

    #[test]
    fn grow_only_grows() {
        let o = VmObject::new_temporary(4096);
        o.grow_to(8192);
        assert_eq!(o.size(), 8192);
        o.grow_to(4096);
        assert_eq!(o.size(), 8192);
    }

    #[test]
    fn persistence_advice() {
        let o = VmObject::new_temporary(4096);
        assert!(!o.can_persist());
        o.set_can_persist(true);
        assert!(o.can_persist());
    }
}
