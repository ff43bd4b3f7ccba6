//! The page fault handler — "the hub of the Mach virtual memory system"
//! (Section 5.5).
//!
//! Given the memory object resolved from an address map lookup, this module
//! performs the machine-independent steps of fault handling:
//!
//! * **page lookup** in the virtual-to-physical hash table, walking the
//!   shadow chain for copy-on-write objects;
//! * **copy-on-write** resolution: a write fault on a page found in a
//!   shadowed (ancestor) object copies it into the faulting object; a read
//!   fault maps the ancestor's page with write permission removed so a
//!   later write re-faults;
//! * **pager interaction**: absent pages at the bottom of the chain are
//!   requested from the data manager with `pager_data_request`, and the
//!   fault waits — parked in the fault engine, its thread waiting on the
//!   ticket — until `pager_data_provided` arrives or the fault *times
//!   out*, which Section 6.2.1 handles exactly like a communication
//!   timeout (fail the request, or substitute default-pager zero-filled
//!   memory);
//! * **lock negotiation**: access prohibited by a `pager_data_lock` value
//!   triggers `pager_data_unlock` and a wait for the manager to relax it.
//!
//! The caller (the address map layer) performs the remaining two steps:
//! validity/protection lookup before, hardware validation (pmap) after.

use crate::continuation::RunCollector;
use crate::object::{ObjectId, VmObject};
use crate::resident::{PageLookup, PhysicalMemory};
use crate::types::{VmError, VmProt};
use machsim::stats::keys as stat_keys;
use std::sync::Arc;
use std::time::Duration;

/// What to do when a data manager does not respond within the timeout —
/// the memory analogue of a communication failure (Section 6.2.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Abort the memory request: the fault returns [`VmError::Timeout`]
    /// ("termination of the waiting thread" is the caller's choice).
    #[default]
    Fail,
    /// Substitute zero-filled memory backed by the default pager.
    ZeroFill,
}

/// Fault-time policy: how long to wait for a data manager, what to do
/// when it does not answer, and how much to read ahead.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Maximum time to wait for `pager_data_provided` / unlock. `None`
    /// waits forever (the default, matching trusting 1987 Mach).
    pub pager_timeout: Option<Duration>,
    /// Action on timeout.
    pub on_timeout: TimeoutAction,
    /// Cap on inferred read-ahead, in pages: a fault that continues a
    /// sequential run against a cluster-capable pager requests up to this
    /// many contiguous absent pages in one `pager_data_request` (real
    /// Mach's cluster paging, which amortizes the per-page message cost
    /// of external pagers); see `request_window` for how the length of
    /// each request is chosen. `1` keeps every request to one page.
    pub cluster_pages: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            pager_timeout: None,
            on_timeout: TimeoutAction::default(),
            cluster_pages: 1,
        }
    }
}

impl FaultPolicy {
    /// A policy that waits forever (fully trusted data managers).
    pub fn trusting() -> Self {
        Self::default()
    }

    /// A policy that aborts the memory request after `t`.
    pub fn abort_after(t: Duration) -> Self {
        Self {
            pager_timeout: Some(t),
            ..Self::default()
        }
    }

    /// A policy that substitutes zero-filled memory after `t`.
    pub fn zero_fill_after(t: Duration) -> Self {
        Self {
            pager_timeout: Some(t),
            on_timeout: TimeoutAction::ZeroFill,
            ..Self::default()
        }
    }

    /// Returns the policy with pager fills requesting `pages`-page
    /// clusters from cluster-capable pagers.
    pub fn with_cluster(mut self, pages: usize) -> Self {
        self.cluster_pages = pages.max(1);
        self
    }
}

/// Outcome of resolving a page fault.
#[derive(Clone, Debug)]
pub struct FaultResult {
    /// The physical frame satisfying the fault.
    pub frame: usize,
    /// The object the frame belongs to (the faulting object, or an
    /// ancestor when a read fault was satisfied from down the chain).
    pub object: Arc<VmObject>,
    /// Page-aligned offset of the frame within `object`.
    pub offset: u64,
    /// Upper bound on the hardware protection for the new mapping: write
    /// permission is removed for copy-on-write read mappings, and any
    /// remaining manager lock is excluded so prohibited accesses re-fault.
    pub prot_limit: VmProt,
}

/// What a fault continuation is waiting for while parked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// A pending fill: the page must become resident (or the fill be
    /// cancelled) before the fault can make progress.
    Fill,
    /// A lock negotiation: the manager's `pager_data_lock` must stop
    /// prohibiting the wanted access (or the page must go away).
    Unlock,
}

/// The park point of a fault: the page event that will resume it.
#[derive(Clone, Copy, Debug)]
pub struct FaultWait {
    /// Object whose page the fault is waiting on.
    pub object: ObjectId,
    /// Page-aligned offset within that object.
    pub offset: u64,
    /// What kind of event resumes the fault.
    pub kind: WaitKind,
}

/// One step of the fault state machine: either the fault resolved (or
/// failed), or it must wait for a page event.
#[derive(Debug)]
pub enum FaultStep {
    /// The fault is finished; this is `resolve_page`'s result.
    Done(Result<FaultResult, VmError>),
    /// The fault cannot progress until the described page event.
    Park(FaultWait),
}

/// The captured state of one in-progress fault — everything `fault_step`
/// needs to resume after a park: the faulting (top) object and offset,
/// the shadow-chain cursor, the cache-hit probe flag, and the pager
/// window the fault has claimed (for cancellation on timeout). Parking
/// this struct, rather than a thread with the same things on its stack,
/// is what lets the engine release the thread.
#[derive(Debug)]
pub struct FaultState {
    /// The faulting object (top of the shadow chain).
    pub top: Arc<VmObject>,
    /// Fault offset within `top`.
    pub offset: u64,
    /// What the faulting thread is trying to do.
    pub access: VmProt,
    /// The fault-time policy (timeout, timeout action, cluster size).
    pub policy: FaultPolicy,
    /// Shadow-chain cursor: the object currently being probed.
    object: Arc<VmObject>,
    /// Offset within the cursor object.
    obj_offset: u64,
    /// True until the fault first sees an absent page — a resident hit
    /// while still true counts as a cache hit.
    first_probe: bool,
    /// The most recent run this fault claimed via `begin_fill_run`
    /// (object, start offset, pages): on timeout every claimed page must
    /// be released or later faults would strand on stale pending entries.
    pub claimed: Option<(ObjectId, u64, usize)>,
    /// Pages past this one the caller is known to touch next (fault-ahead
    /// sets it; a lone fault knows of none). Sizes the request this fault
    /// makes, see `request_window`.
    pub ahead: usize,
}

impl FaultState {
    /// Captures a fresh fault against `top` at `offset`.
    pub fn new(top: &Arc<VmObject>, offset: u64, access: VmProt, policy: FaultPolicy) -> Self {
        FaultState {
            top: top.clone(),
            offset,
            access,
            policy,
            object: top.clone(),
            obj_offset: offset,
            first_probe: true,
            claimed: None,
            ahead: 0,
        }
    }

    /// The object currently being probed (the shadow-chain cursor) — the
    /// async engine reads its pager to police in-flight caps and detect
    /// pager death.
    pub fn current_object(&self) -> &Arc<VmObject> {
        &self.object
    }

    /// Releases every page this fault has claimed (timeout/death path):
    /// the read-ahead pages have no other waiter, so a stale pending
    /// entry would block later faults until their own timeouts.
    pub fn cancel_claims(&mut self, phys: &PhysicalMemory, wait: FaultWait) {
        let page = phys.page_size() as u64;
        let (object, start, pages) = self.claimed.take().unwrap_or((wait.object, wait.offset, 1));
        for i in 0..pages as u64 {
            phys.cancel_fill(object, start + i * page);
        }
    }
}

/// How many pages the `pager_data_request` for the absent page under
/// `st`'s cursor should ask for — the one place a request is sized.
///
/// Two sources, both read from the access itself. *Explicit*: fault-ahead
/// knows the caller touches `st.ahead` more pages, so the first absent
/// page of the range asks for all of them at once. *Inferred*: the
/// object's read-ahead state ([`VmObject::readahead_window`]) gives a lone
/// random miss one page and a miss continuing a sequential run a doubling
/// window up to the policy's cap. The larger of the two wins; the pager's
/// per-object cluster advice caps both (coherence pagers advise 1:
/// prefetching a page they track per client would corrupt their view of
/// who caches what), and a pager or policy without cluster support gets
/// single pages whatever the access looks like.
fn request_window(st: &FaultState, pager: &dyn crate::object::PagerBackend) -> usize {
    if st.policy.cluster_pages <= 1 || !pager.supports_cluster() {
        return 1;
    }
    let advised = |pages: usize| match st.object.cluster_hint() {
        0 => pages,
        hint => pages.min(hint),
    };
    let inferred = st
        .object
        .readahead_window(st.obj_offset, advised(st.policy.cluster_pages));
    inferred.max(advised(st.ahead.saturating_add(1)))
}

/// Advances a fault as far as it can go without blocking.
///
/// Runs the machine-independent fault transitions — shadow-chain walk,
/// copy-on-write, lock negotiation, pager request, zero fill — until the
/// fault either resolves ([`FaultStep::Done`]) or must wait for a page
/// event ([`FaultStep::Park`]). On a park the engine files the state as a
/// continuation; re-stepping after the event re-probes from the current
/// shadow-chain cursor. Any `pager_data_request` the step makes goes into
/// `runs`, for the engine to batch and send.
pub(crate) fn fault_step(
    phys: &PhysicalMemory,
    st: &mut FaultState,
    runs: &mut RunCollector,
) -> FaultStep {
    let machine = phys.machine().clone();
    // The offset is page-granular relative to the mapping's own alignment;
    // it need not be page aligned within the object (Section 3.4.1).
    let page = phys.page_size() as u64;
    let wants_write = st.access.allows(VmProt::WRITE);

    loop {
        if st.object.is_terminated() {
            return FaultStep::Done(Err(VmError::ObjectDestroyed));
        }
        match phys.lookup(st.object.id(), st.obj_offset) {
            PageLookup::Resident { frame, lock } => {
                // Negotiate any manager lock prohibiting this access: ask
                // for the unlock, then park until the lock changes (or
                // the page goes away, which re-probes from here).
                if lock.intersects(st.access) {
                    if let Some(pager) = st.object.pager() {
                        pager.data_unlock(st.object.id(), st.obj_offset, page, st.access);
                    }
                    return FaultStep::Park(FaultWait {
                        object: st.object.id(),
                        offset: st.obj_offset,
                        kind: WaitKind::Unlock,
                    });
                }
                if st.first_probe {
                    machine.hot.vm_cache_hits.incr();
                }
                let residual_lock = phys
                    .page_lock(st.object.id(), st.obj_offset)
                    .unwrap_or(VmProt::NONE);
                if Arc::ptr_eq(&st.object, &st.top) {
                    if wants_write {
                        phys.set_modified(frame);
                    }
                    return FaultStep::Done(Ok(FaultResult {
                        frame,
                        object: st.object.clone(),
                        offset: st.obj_offset,
                        prot_limit: !residual_lock,
                    }));
                }
                // Page found down the shadow chain.
                if wants_write {
                    // Copy-on-write: copy the ancestor's page into the
                    // faulting object ("a new page is created as a copy of
                    // the original"). Pin the source page by key so the
                    // frame cannot be reclaimed — and recycled for another
                    // page — while its bytes are being copied; on a lost
                    // race the fault restarts and refills the ancestor.
                    let Some(src) = phys.pin_resident(st.object.id(), st.obj_offset) else {
                        continue;
                    };
                    let copied = phys.copy_page(src, &st.top, st.offset);
                    phys.unpin(src);
                    return FaultStep::Done(copied.map(|frame| FaultResult {
                        frame,
                        object: st.top.clone(),
                        offset: st.offset,
                        prot_limit: VmProt::ALL,
                    }));
                }
                // Read fault: map the ancestor's page without write
                // permission so a later write triggers the copy.
                return FaultStep::Done(Ok(FaultResult {
                    frame,
                    object: st.object.clone(),
                    offset: st.obj_offset,
                    prot_limit: !(VmProt::WRITE | residual_lock),
                }));
            }
            PageLookup::Pending => {
                // Someone (possibly this fault, one step ago) asked the
                // pager already; wait for the fill.
                return FaultStep::Park(FaultWait {
                    object: st.object.id(),
                    offset: st.obj_offset,
                    kind: WaitKind::Fill,
                });
            }
            PageLookup::Absent => {
                st.first_probe = false;
                if let Some((below, shadow_off)) = st.object.shadow() {
                    st.obj_offset += shadow_off;
                    st.object = below;
                    continue;
                }
                if let Some(pager) = st.object.pager() {
                    // Claim the faulting page plus as much of the run ahead
                    // of it as the access calls for, so one message fills
                    // what will be touched and nothing else.
                    let window = request_window(st, pager.as_ref());
                    let claimed = phys.begin_fill_run(
                        st.object.id(),
                        st.obj_offset,
                        window,
                        st.object.size(),
                    );
                    if let Some(pages) = claimed {
                        machine.hot.vm_pager_fills.incr();
                        st.object
                            .note_run(st.obj_offset + pages as u64 * page, window);
                        st.claimed = Some((st.object.id(), st.obj_offset, pages));
                        runs.data_request(
                            &pager,
                            st.object.id(),
                            st.obj_offset,
                            pages as u64 * page,
                            st.access,
                        );
                    }
                    return FaultStep::Park(FaultWait {
                        object: st.object.id(),
                        offset: st.obj_offset,
                        kind: WaitKind::Fill,
                    });
                }
                // Bottom of the chain with no pager: zero-fill memory. The
                // page is created in the *faulting* object: it is private
                // memory that has simply never been touched.
                return FaultStep::Done(phys.zero_fill(&st.top, st.offset).map(|frame| {
                    if wants_write {
                        phys.set_modified(frame);
                    }
                    FaultResult {
                        frame,
                        object: st.top.clone(),
                        offset: st.offset,
                        prot_limit: VmProt::ALL,
                    }
                }));
            }
        }
    }
}

/// Resolves a page fault against `top` at page-aligned `offset`.
///
/// `access` is what the faulting thread is trying to do (already validated
/// against the map entry's protection by the caller).
///
/// Every fault allocates a fresh [`machsim::trace::CorrelationId`] that is
/// installed as the faulting thread's trace context for the duration of the
/// fault, so
/// all downstream work — the `pager_data_request` message, the manager's
/// disk reads, the `pager_data_provided` reply — carries the same id and
/// forms one inspectable chain in the machine's trace buffer.
///
/// The fault is submitted to the memory's
/// [`crate::continuation::FaultEngine`] and this thread waits on its
/// ticket: a wait for a data manager lives in the engine's continuation
/// table (batched pager requests, bounded outstanding faults), not in a
/// kernel wait primitive of its own.
pub fn resolve_page(
    phys: &PhysicalMemory,
    top: &Arc<VmObject>,
    offset: u64,
    access: VmProt,
    policy: FaultPolicy,
) -> Result<FaultResult, VmError> {
    let ticket = phys.fault_engine().submit(top, offset, access, policy);
    let result = ticket.wait();
    // Adopt the fault's chain as this thread's context so follow-on
    // work (the pmap update in the map layer) joins the same span
    // tree even though the engine resolved the fault elsewhere.
    machsim::trace::set_current_correlation(Some(ticket.correlation()));
    machsim::trace::set_current_span(ticket.span());
    result
}

/// Applies the policy's timeout action.
pub(crate) fn handle_timeout(
    phys: &PhysicalMemory,
    top: &Arc<VmObject>,
    offset: u64,
    policy: FaultPolicy,
) -> Result<FaultResult, VmError> {
    match policy.on_timeout {
        TimeoutAction::Fail => Err(VmError::Timeout),
        TimeoutAction::ZeroFill => {
            phys.machine().stats.incr(stat_keys::VM_TIMEOUT_ZERO_FILLS);
            let frame = phys.zero_fill(top, offset)?;
            Ok(FaultResult {
                frame,
                object: top.clone(),
                offset,
                prot_limit: VmProt::ALL,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::test_support::{filled, RecordingPager};
    use crate::object::PagerBackend;
    use machipc::OolBuffer;
    use machsim::stats::keys;
    use machsim::Machine;
    use parking_lot::Mutex;

    fn setup(frames: usize) -> (Machine, Arc<PhysicalMemory>) {
        let m = Machine::default_machine();
        let p = PhysicalMemory::new(&m, frames * 4096, 4096, 2);
        (m, p)
    }

    /// A pager that supplies deterministic data from a background thread.
    struct EchoPager {
        phys: Arc<PhysicalMemory>,
        object: Mutex<Option<Arc<VmObject>>>,
        fill: u8,
        lock: VmProt,
        cluster: bool,
        requests: Mutex<Vec<(u64, u64)>>,
    }

    impl EchoPager {
        fn attach(phys: &Arc<PhysicalMemory>, fill: u8, lock: VmProt) -> Arc<VmObject> {
            Self::attach_with(phys, fill, lock, false).0
        }

        fn attach_cluster(
            phys: &Arc<PhysicalMemory>,
            fill: u8,
            lock: VmProt,
        ) -> (Arc<VmObject>, Arc<EchoPager>) {
            Self::attach_with(phys, fill, lock, true)
        }

        fn attach_with(
            phys: &Arc<PhysicalMemory>,
            fill: u8,
            lock: VmProt,
            cluster: bool,
        ) -> (Arc<VmObject>, Arc<EchoPager>) {
            let pager = Arc::new(EchoPager {
                phys: phys.clone(),
                object: Mutex::new(None),
                fill,
                lock,
                cluster,
                requests: Mutex::new(Vec::new()),
            });
            let obj = VmObject::new_with_pager(1 << 20, pager.clone());
            *pager.object.lock() = Some(obj.clone());
            (obj, pager)
        }
    }

    impl PagerBackend for EchoPager {
        fn supports_cluster(&self) -> bool {
            self.cluster
        }

        fn data_request(&self, _object: crate::ObjectId, offset: u64, length: u64, _a: VmProt) {
            self.requests.lock().push((offset, length));
            let phys = self.phys.clone();
            let obj = self.object.lock().clone().unwrap();
            let fill = self.fill;
            let lock = self.lock;
            std::thread::spawn(move || {
                phys.supply_page(&obj, offset, filled(fill, length as usize), lock)
                    .unwrap();
            });
        }

        fn data_write(&self, _o: crate::ObjectId, _off: u64, _d: OolBuffer) {}

        fn data_unlock(&self, _object: crate::ObjectId, offset: u64, length: u64, _a: VmProt) {
            let phys = self.phys.clone();
            let obj = self.object.lock().clone().unwrap();
            std::thread::spawn(move || {
                phys.lock_range(&obj, offset, length, VmProt::NONE);
            });
        }
    }

    #[test]
    fn zero_fill_fault() {
        let (m, phys) = setup(8);
        let obj = VmObject::new_temporary(8192);
        let r = resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        phys.with_frame(r.frame, |d| assert!(d.iter().all(|&b| b == 0)));
        assert_eq!(r.prot_limit, VmProt::ALL);
        assert_eq!(m.stats.get(keys::VM_ZERO_FILLS), 1);
        assert_eq!(m.stats.get(keys::VM_FAULTS), 1);
    }

    #[test]
    fn second_fault_hits_cache() {
        let (m, phys) = setup(8);
        let obj = VmObject::new_temporary(8192);
        resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        assert_eq!(m.stats.get(keys::VM_CACHE_HITS), 1);
        assert_eq!(m.stats.get(keys::VM_FAULTS), 2);
    }

    #[test]
    fn pager_fill_round_trip() {
        let (m, phys) = setup(8);
        let obj = EchoPager::attach(&phys, 0xAB, VmProt::NONE);
        let r = resolve_page(&phys, &obj, 4096, VmProt::READ, FaultPolicy::trusting()).unwrap();
        phys.with_frame(r.frame, |d| assert!(d.iter().all(|&b| b == 0xAB)));
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 1);
    }

    #[test]
    fn concurrent_faults_issue_one_request() {
        let (m, phys) = setup(16);
        let obj = EchoPager::attach(&phys, 1, VmProt::NONE);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let phys = phys.clone();
                let obj = obj.clone();
                s.spawn(move || {
                    resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
                });
            }
        });
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 1);
    }

    #[test]
    fn unresponsive_pager_times_out() {
        let (_m, phys) = setup(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager.clone());
        let err = resolve_page(
            &phys,
            &obj,
            0,
            VmProt::READ,
            FaultPolicy::abort_after(Duration::from_millis(20)),
        )
        .unwrap_err();
        assert_eq!(err, VmError::Timeout);
        assert_eq!(pager.requests.lock().len(), 1);
    }

    #[test]
    fn timeout_can_zero_fill_instead() {
        let (m, phys) = setup(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager);
        let r = resolve_page(
            &phys,
            &obj,
            0,
            VmProt::READ,
            FaultPolicy::zero_fill_after(Duration::from_millis(20)),
        )
        .unwrap();
        phys.with_frame(r.frame, |d| assert!(d.iter().all(|&b| b == 0)));
        assert_eq!(m.stats.get(stat_keys::VM_TIMEOUT_ZERO_FILLS), 1);
    }

    #[test]
    fn cow_read_maps_ancestor_without_write() {
        let (_m, phys) = setup(8);
        let base = VmObject::new_temporary(8192);
        phys.supply_page(&base, 0, filled(9u8, 4096), VmProt::NONE)
            .unwrap();
        let shadow = VmObject::new_shadow(base.clone(), 0, 8192);
        let r = resolve_page(&phys, &shadow, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        assert_eq!(r.object.id(), base.id());
        assert!(!r.prot_limit.allows(VmProt::WRITE));
        phys.with_frame(r.frame, |d| assert_eq!(d[0], 9));
        // No copy happened.
        assert_eq!(phys.resident_pages_of(shadow.id()), 0);
    }

    #[test]
    fn cow_write_copies_into_shadow() {
        let (m, phys) = setup(8);
        let base = VmObject::new_temporary(8192);
        phys.supply_page(&base, 0, filled(9u8, 4096), VmProt::NONE)
            .unwrap();
        let shadow = VmObject::new_shadow(base.clone(), 0, 8192);
        let r = resolve_page(&phys, &shadow, 0, VmProt::WRITE, FaultPolicy::trusting()).unwrap();
        assert_eq!(r.object.id(), shadow.id());
        assert_eq!(r.prot_limit, VmProt::ALL);
        phys.with_frame(r.frame, |d| assert_eq!(d[0], 9));
        assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);
        // Base page is untouched and still resident.
        assert_eq!(phys.resident_pages_of(base.id()), 1);
        assert_eq!(phys.resident_pages_of(shadow.id()), 1);
    }

    #[test]
    fn shadow_chain_walks_multiple_levels() {
        let (_m, phys) = setup(8);
        let base = VmObject::new_temporary(8192);
        phys.supply_page(&base, 4096, filled(7u8, 4096), VmProt::NONE)
            .unwrap();
        let s1 = VmObject::new_shadow(base.clone(), 0, 8192);
        let s2 = VmObject::new_shadow(s1, 0, 8192);
        let r = resolve_page(&phys, &s2, 4096, VmProt::READ, FaultPolicy::trusting()).unwrap();
        assert_eq!(r.object.id(), base.id());
        phys.with_frame(r.frame, |d| assert_eq!(d[0], 7));
    }

    #[test]
    fn shadow_offset_is_applied() {
        let (_m, phys) = setup(8);
        let base = VmObject::new_temporary(16384);
        phys.supply_page(&base, 8192, filled(3u8, 4096), VmProt::NONE)
            .unwrap();
        // Shadow whose page 0 is base's page 2.
        let shadow = VmObject::new_shadow(base.clone(), 8192, 4096);
        let r = resolve_page(&phys, &shadow, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        assert_eq!(r.offset, 8192);
        phys.with_frame(r.frame, |d| assert_eq!(d[0], 3));
    }

    #[test]
    fn zero_fill_through_shadow_chain_lands_in_top() {
        let (_m, phys) = setup(8);
        let base = VmObject::new_temporary(8192);
        let shadow = VmObject::new_shadow(base.clone(), 0, 8192);
        let r = resolve_page(&phys, &shadow, 0, VmProt::WRITE, FaultPolicy::trusting()).unwrap();
        assert_eq!(r.object.id(), shadow.id());
        assert_eq!(phys.resident_pages_of(base.id()), 0);
    }

    #[test]
    fn locked_page_triggers_unlock_negotiation() {
        let (_m, phys) = setup(8);
        // EchoPager supplies pages write-locked and unlocks on request.
        let obj = EchoPager::attach(&phys, 5, VmProt::WRITE);
        // Read fault succeeds: lock prohibits only write.
        let r = resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap();
        assert!(!r.prot_limit.allows(VmProt::WRITE));
        // Write fault negotiates the unlock.
        let r2 = resolve_page(&phys, &obj, 0, VmProt::WRITE, FaultPolicy::trusting()).unwrap();
        assert!(r2.prot_limit.allows(VmProt::WRITE));
    }

    #[test]
    fn unlock_negotiation_times_out_against_silent_manager() {
        let (_m, phys) = setup(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager.clone());
        phys.supply_page(&obj, 0, filled(1u8, 4096), VmProt::WRITE)
            .unwrap();
        let err = resolve_page(
            &phys,
            &obj,
            0,
            VmProt::WRITE,
            FaultPolicy::abort_after(Duration::from_millis(20)),
        )
        .unwrap_err();
        assert_eq!(err, VmError::Timeout);
        assert_eq!(pager.unlocks.lock().len(), 1);
    }

    #[test]
    fn terminated_object_faults_fail() {
        let (_m, phys) = setup(8);
        let obj = VmObject::new_temporary(4096);
        obj.mark_terminated();
        let err = resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()).unwrap_err();
        assert_eq!(err, VmError::ObjectDestroyed);
    }

    #[test]
    fn write_fault_marks_page_dirty() {
        let (_m, phys) = setup(8);
        let obj = VmObject::new_temporary(4096);
        let r = resolve_page(&phys, &obj, 0, VmProt::WRITE, FaultPolicy::trusting()).unwrap();
        let _ = r;
        assert_eq!(phys.page_dirty(obj.id(), 0), Some(true));
    }

    #[test]
    fn after_shutdown_a_fault_resolves_only_if_it_need_not_wait() -> Result<(), VmError> {
        let (_m, phys) = setup(16);
        let anon = VmObject::new_temporary(8192);
        resolve_page(&phys, &anon, 0, VmProt::WRITE, FaultPolicy::trusting())?;
        phys.fault_engine().shutdown();

        // A resident hit and a zero fill never wait, so they still resolve.
        resolve_page(&phys, &anon, 0, VmProt::READ, FaultPolicy::trusting())?;
        resolve_page(&phys, &anon, 4096, VmProt::READ, FaultPolicy::trusting())?;

        // A miss that would have to wait for its pager errors at once,
        // leaves nothing claimed and sends nothing.
        let pager = Arc::new(RecordingPager {
            cluster: true,
            ..Default::default()
        });
        let obj = VmObject::new_with_pager(8 * 4096, pager.clone());
        let policy = FaultPolicy::trusting().with_cluster(8);
        let err = resolve_page(&phys, &obj, 0, VmProt::READ, policy).unwrap_err();
        assert_eq!(err, VmError::ObjectDestroyed);
        for pg in 0..8u64 {
            assert_eq!(phys.lookup(obj.id(), pg * 4096), PageLookup::Absent);
        }
        assert_eq!(phys.frame_census().pending, 0);
        assert_eq!(phys.fault_engine().outstanding(), 0);
        assert!(pager.requests.lock().is_empty());
        Ok(())
    }

    #[test]
    fn dropping_the_memory_ends_its_completion_thread() {
        let (_m, phys) = setup(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager.clone());
        std::thread::scope(|s| {
            let fault =
                s.spawn(|| resolve_page(&phys, &obj, 0, VmProt::READ, FaultPolicy::trusting()));
            // The request is sent by the completion thread, so seeing it
            // means the fault parked and the thread exists.
            assert!(machsim::wall::poll_until(
                Duration::from_secs(5),
                Duration::from_millis(1),
                || pager.requests.lock().len() == 1
            ));
            phys.supply_page(&obj, 0, filled(3u8, 4096), VmProt::NONE)
                .expect("supply the parked fault's page");
            fault
                .join()
                .expect("faulting thread")
                .expect("the supplied fault resolves");
        });
        // Nothing but the completion thread can still reach the memory,
        // and it holds no strong reference across ticks.
        let weak = Arc::downgrade(&phys);
        drop(phys);
        assert!(
            machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || weak
                .upgrade()
                .is_none()),
            "the memory outlived its last owner: a cycle, or a thread holding it"
        );
    }

    /// Faults pages `first..first + n` one at a time, in order.
    fn scan(phys: &Arc<PhysicalMemory>, obj: &Arc<VmObject>, first: u64, n: u64) {
        let policy = FaultPolicy::trusting().with_cluster(8);
        for pg in first..first + n {
            let r = resolve_page(phys, obj, pg * 4096, VmProt::READ, policy).unwrap();
            phys.with_frame(r.frame, |d| assert!(d.iter().all(|&b| b == 0x5A)));
        }
    }

    #[test]
    fn scan_from_the_start_of_a_fresh_object_asks_for_the_cap_at_once() {
        let (m, phys) = setup(32);
        let (obj, pager) = EchoPager::attach_cluster(&phys, 0x5A, VmProt::NONE);
        scan(&phys, &obj, 0, 16);
        // A never-faulted object is presumed read from its beginning: no
        // ramp, one request per 8 pages.
        assert_eq!(
            *pager.requests.lock(),
            vec![(0, 8 * 4096), (8 * 4096, 8 * 4096)]
        );
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 2);
        assert_eq!(m.stats.get(keys::VM_CACHE_HITS), 14);
    }

    #[test]
    fn scan_from_mid_object_ramps_one_two_four_then_the_cap() {
        let (_m, phys) = setup(80);
        let (obj, pager) = EchoPager::attach_cluster(&phys, 0x5A, VmProt::NONE);
        scan(&phys, &obj, 100, 64);
        let pages: Vec<(u64, u64)> = pager
            .requests
            .lock()
            .iter()
            .map(|&(off, len)| (off / 4096, len / 4096))
            .collect();
        assert_eq!(pages[..4], [(100, 1), (101, 2), (103, 4), (107, 8)]);
        assert!(pages[4..].iter().all(|&(_, len)| len == 8));
        assert!(pages.len() <= 64 / 8 + 3, "{pages:?}");
    }

    #[test]
    fn random_faults_ask_for_one_page_each() {
        let (m, phys) = setup(80);
        let (obj, pager) = EchoPager::attach_cluster(&phys, 0x5A, VmProt::NONE);
        let policy = FaultPolicy::trusting().with_cluster(8);
        let mut rng = machsim::SplitMix64::new(7);
        let (mut missed, mut expected_next) = (std::collections::HashSet::new(), 0);
        for _ in 0..64 {
            let pg = 1 + rng.next_below(255);
            if missed.insert(pg) {
                assert_ne!(
                    pg, expected_next,
                    "the seed has no miss continuing the last"
                );
                expected_next = pg + 1;
            }
            resolve_page(&phys, &obj, pg * 4096, VmProt::WRITE, policy).unwrap();
        }
        let requests = pager.requests.lock().clone();
        assert!(requests.iter().all(|&(_, len)| len == 4096), "{requests:?}");
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), requests.len() as u64);
    }

    #[test]
    fn pager_advice_of_one_page_overrides_the_scan() {
        let (_m, phys) = setup(16);
        let (obj, pager) = EchoPager::attach_cluster(&phys, 0x5A, VmProt::NONE);
        obj.set_cluster_hint(1);
        scan(&phys, &obj, 0, 8);
        assert_eq!(pager.requests.lock().len(), 8);
    }

    #[test]
    fn cluster_policy_stays_single_page_for_plain_pagers() {
        let (m, phys) = setup(16);
        // supports_cluster() is false: the kernel must not assume the
        // manager can answer more than it asked for per page.
        let obj = EchoPager::attach(&phys, 2, VmProt::NONE);
        let policy = FaultPolicy::trusting().with_cluster(8);
        for pg in 0..4u64 {
            resolve_page(&phys, &obj, pg * 4096, VmProt::READ, policy).unwrap();
        }
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 4);
    }

    #[test]
    fn timeout_releases_every_page_of_the_claimed_run() {
        let (_m, phys) = setup(16);
        let pager = Arc::new(RecordingPager {
            cluster: true,
            ..Default::default()
        });
        let obj = VmObject::new_with_pager(8 * 4096, pager.clone());
        let policy = FaultPolicy::abort_after(Duration::from_millis(20)).with_cluster(8);
        let err = resolve_page(&phys, &obj, 0, VmProt::READ, policy).unwrap_err();
        assert_eq!(err, VmError::Timeout);
        assert_eq!(pager.requests.lock().len(), 1);
        assert_eq!(pager.requests.lock()[0].2, 8 * 4096, "the run was 8 pages");
        // The abandoned claims must not strand later faults in Pending:
        // every page of the run is absent again, and a retry re-requests
        // immediately.
        for pg in 0..8u64 {
            assert_eq!(phys.lookup(obj.id(), pg * 4096), PageLookup::Absent);
        }
        let err = resolve_page(&phys, &obj, 4096, VmProt::READ, policy).unwrap_err();
        assert_eq!(err, VmError::Timeout);
        assert_eq!(pager.requests.lock().len(), 2);
    }
}
