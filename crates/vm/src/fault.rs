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

/// What a finished fault resolved to: its page, and the pages of its run
/// behind that one (none for a lone fault, whose outcome so allocates
/// nothing). A run fails as a whole, with its first failing page's error.
pub type FaultOutcome = Result<(FaultResult, Vec<FaultResult>), VmError>;

/// One step of the fault state machine: either the fault resolved (or
/// failed), or it must wait for a page event.
#[derive(Debug)]
pub enum FaultStep {
    /// The fault is finished; this is what its ticket completes with.
    Done(FaultOutcome),
    /// The fault cannot progress until the described page event.
    Park(FaultWait),
}

/// [`FaultStep`] for one page of a fault.
enum PageStep {
    Done(Result<FaultResult, VmError>),
    /// The wait, and the object whose page it is for.
    Park(FaultWait, Arc<VmObject>),
}

/// The captured state of one in-progress fault — everything `fault_step`
/// needs to resume after a park: the faulting (top) object, offset and
/// extent, the cache-hit probe flag, what its pages have resolved to so
/// far, and the pager windows the fault has claimed (for cancellation on
/// timeout). Parking this struct, rather than a thread with the same
/// things on its stack, is what lets the engine release the thread.
#[derive(Debug)]
pub struct FaultState {
    /// The faulting object (top of the shadow chain).
    pub top: Arc<VmObject>,
    /// Fault offset within `top`: the first page of the fault's run.
    pub offset: u64,
    /// What the faulting thread is trying to do.
    pub access: VmProt,
    /// The fault-time policy (timeout, timeout action, cluster size).
    pub policy: FaultPolicy,
    /// True until the fault first sees an absent page — a resident hit
    /// while still true counts as a cache hit.
    first_probe: bool,
    /// The object whose page the fault is parked on, once it has parked.
    waiting_on: Option<Arc<VmObject>>,
    /// Every run this fault claimed via `begin_fill_run` (object, start
    /// offset, pages): on timeout every claimed page must be released or
    /// later faults would strand on stale pending entries.
    claimed: Vec<(ObjectId, u64, usize)>,
    /// What the fault's page resolved to, once it has.
    resolved: Option<FaultResult>,
    /// The same for each page of the run behind it, which the caller is
    /// known to touch next (fault-ahead over an absent run; a lone fault
    /// has none, and allocates nothing). Their number sizes the request
    /// the fault makes, see `request_window`.
    behind: Vec<Option<FaultResult>>,
    /// The policy deadline fired: from here on a page that would wait
    /// for its manager gets the policy's timeout action instead.
    expired: bool,
}

impl FaultState {
    /// Captures a fresh fault against the `pages`-page run of `top` that
    /// starts at `offset` (a lone fault is the run of one page).
    pub fn new(
        top: &Arc<VmObject>,
        offset: u64,
        pages: usize,
        access: VmProt,
        policy: FaultPolicy,
    ) -> Self {
        FaultState {
            top: top.clone(),
            offset,
            access,
            policy,
            first_probe: true,
            waiting_on: None,
            claimed: Vec::new(),
            resolved: None,
            behind: vec![None; pages.saturating_sub(1)],
            expired: false,
        }
    }

    /// The object whose page the fault is parked on — the async engine
    /// reads its pager to detect pager death.
    pub fn current_object(&self) -> &Arc<VmObject> {
        self.waiting_on.as_ref().unwrap_or(&self.top)
    }

    /// Where page `index` of the run keeps its result.
    fn slot(&mut self, index: usize) -> &mut Option<FaultResult> {
        match index {
            0 => &mut self.resolved,
            _ => &mut self.behind[index - 1],
        }
    }

    /// Marks the policy deadline as fired: the next step applies the
    /// timeout action to every page still waiting for a manager.
    pub(crate) fn expire(&mut self) {
        self.expired = true;
    }

    /// Releases every page this fault has claimed (timeout/death path) —
    /// or, having claimed none, the page it waits on: the read-ahead
    /// pages have no other waiter, so a stale pending entry would block
    /// later faults until their own timeouts.
    pub fn cancel_claims(&mut self, phys: &PhysicalMemory, wait: FaultWait) {
        if self.claimed.is_empty() {
            phys.cancel_fill_run(wait.object, wait.offset, 1);
        }
        self.release_claims(phys);
    }

    /// Releases every page this fault claimed itself: a fault that ends
    /// in an error leaves nothing pending that only it was waiting for.
    pub(crate) fn release_claims(&mut self, phys: &PhysicalMemory) {
        for (object, start, pages) in self.claimed.drain(..) {
            phys.cancel_fill_run(object, start, pages);
        }
    }
}

/// How many pages the `pager_data_request` for the absent page of
/// `object` at `obj_offset` should ask for, on behalf of a fault that has
/// `behind` more pages to resolve after this one — the one place a
/// request is sized.
///
/// Two sources, both read from the access itself. *Explicit*: a fault
/// over a run knows the caller touches the `behind` pages after this one,
/// so the first absent page of the run asks for all of them at once.
/// *Inferred*: the
/// object's read-ahead state ([`VmObject::readahead_window`]) gives a lone
/// random miss one page and a miss continuing a sequential run a doubling
/// window up to the policy's cap. The larger of the two wins; the pager's
/// per-object cluster advice caps both (coherence pagers advise 1:
/// prefetching a page they track per client would corrupt their view of
/// who caches what), and a pager or policy without cluster support gets
/// single pages whatever the access looks like.
fn request_window(
    policy: FaultPolicy,
    object: &VmObject,
    obj_offset: u64,
    behind: usize,
    pager: &dyn crate::object::PagerBackend,
) -> usize {
    if policy.cluster_pages <= 1 || !pager.supports_cluster() {
        return 1;
    }
    let advised = |pages: usize| match object.cluster_hint() {
        0 => pages,
        hint => pages.min(hint),
    };
    let inferred = object.readahead_window(obj_offset, advised(policy.cluster_pages));
    inferred.max(advised(behind.saturating_add(1)))
}

/// Advances a fault as far as it can go without blocking.
///
/// Steps every page of the fault's run that has not resolved yet
/// ([`page_step`]), in order, so whatever the run needs from its pagers is
/// asked for in this one step (and sent in one batch). The fault is done
/// ([`FaultStep::Done`]) when its last page resolves or any page fails;
/// otherwise it must wait ([`FaultStep::Park`]) for the first page that is
/// still pending. On a park the engine files the state as a continuation;
/// re-stepping after the event walks the pages still unresolved again,
/// each from the top of its shadow chain. Any `pager_data_request` the
/// step makes goes into `runs`, for the engine to batch and send.
pub(crate) fn fault_step(
    phys: &PhysicalMemory,
    st: &mut FaultState,
    runs: &mut RunCollector,
) -> FaultStep {
    let mut park = None;
    for index in 0..=st.behind.len() {
        if st.slot(index).is_some() {
            continue;
        }
        match page_step(phys, st, index, runs) {
            PageStep::Done(Ok(result)) => *st.slot(index) = Some(result),
            PageStep::Done(Err(e)) => return FaultStep::Done(Err(e)),
            PageStep::Park(wait, object) => {
                if park.is_none() {
                    park = Some(wait);
                    st.waiting_on = Some(object);
                }
            }
        }
    }
    if let Some(wait) = park {
        return FaultStep::Park(wait);
    }
    let behind = st.behind.drain(..).flatten().collect();
    let first = st
        .resolved
        .take()
        .expect("invariant: no page parked, so every page resolved");
    FaultStep::Done(Ok((first, behind)))
}

/// Advances page `index` of a fault's run as far as it can go without
/// blocking: the machine-independent fault transitions — shadow-chain
/// walk, copy-on-write, lock negotiation, pager request, zero fill.
fn page_step(
    phys: &PhysicalMemory,
    st: &mut FaultState,
    index: usize,
    runs: &mut RunCollector,
) -> PageStep {
    let machine = phys.machine();
    // The offset is page-granular relative to the mapping's own alignment;
    // it need not be page aligned within the object (Section 3.4.1).
    let page = phys.page_size() as u64;
    let wants_write = st.access.allows(VmProt::WRITE);
    let offset = st.offset + index as u64 * page;
    // Shadow-chain cursor: the object currently being probed, and the
    // page's offset within it.
    let (mut object, mut obj_offset) = (st.top.clone(), offset);
    let park = |object: Arc<VmObject>, obj_offset: u64, kind: WaitKind| {
        let wait = FaultWait {
            object: object.id(),
            offset: obj_offset,
            kind,
        };
        PageStep::Park(wait, object)
    };

    loop {
        if object.is_terminated() {
            return PageStep::Done(Err(VmError::ObjectDestroyed));
        }
        match phys.lookup(object.id(), obj_offset) {
            PageLookup::Resident { frame, lock } => {
                // Negotiate any manager lock prohibiting this access: ask
                // for the unlock, then park until the lock changes (or
                // the page goes away, which re-probes from the top). The
                // one `lock` this probe read both decides that and limits
                // the mapping: a `pager_data_lock` landing after it is
                // applied to the mapping by `lock_range` itself.
                if lock.intersects(st.access) {
                    if st.expired {
                        return PageStep::Done(handle_timeout(phys, st, offset));
                    }
                    if let Some(pager) = object.pager() {
                        pager.data_unlock(object.id(), obj_offset, page, st.access);
                    }
                    return park(object, obj_offset, WaitKind::Unlock);
                }
                if st.first_probe {
                    // A cache hit is a property of the fault, counted on
                    // the first page it probes only.
                    st.first_probe = false;
                    machine.hot.vm_cache_hits.incr();
                }
                if Arc::ptr_eq(&object, &st.top) {
                    if wants_write {
                        phys.set_modified(frame);
                    }
                    return PageStep::Done(Ok(FaultResult {
                        frame,
                        object,
                        offset: obj_offset,
                        prot_limit: !lock,
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
                    let Some(src) = phys.pin_resident(object.id(), obj_offset) else {
                        continue;
                    };
                    let copied = phys.copy_page(src, &st.top, offset);
                    phys.unpin(src);
                    return PageStep::Done(copied.map(|frame| FaultResult {
                        frame,
                        object: st.top.clone(),
                        offset,
                        prot_limit: VmProt::ALL,
                    }));
                }
                // Read fault: map the ancestor's page without write
                // permission so a later write triggers the copy.
                return PageStep::Done(Ok(FaultResult {
                    frame,
                    object,
                    offset: obj_offset,
                    prot_limit: !(VmProt::WRITE | lock),
                }));
            }
            PageLookup::Pending => {
                if st.expired {
                    return PageStep::Done(handle_timeout(phys, st, offset));
                }
                // Someone (possibly this fault, one step ago) asked the
                // pager already; wait for the fill.
                return park(object, obj_offset, WaitKind::Fill);
            }
            PageLookup::Absent => {
                st.first_probe = false;
                if let Some((below, shadow_off)) = object.shadow() {
                    obj_offset += shadow_off;
                    object = below;
                    continue;
                }
                if let Some(pager) = object.pager() {
                    if st.expired {
                        return PageStep::Done(handle_timeout(phys, st, offset));
                    }
                    // Claim the faulting page plus as much of the run ahead
                    // of it as the access calls for, so one message fills
                    // what will be touched and nothing else.
                    let behind = st.behind.len() - index;
                    let window =
                        request_window(st.policy, &object, obj_offset, behind, pager.as_ref());
                    let claimed =
                        phys.begin_fill_run(object.id(), obj_offset, window, object.size());
                    if let Some(pages) = claimed {
                        machine.hot.vm_pager_fills.incr();
                        object.note_run(obj_offset + pages as u64 * page, window);
                        st.claimed.push((object.id(), obj_offset, pages));
                        runs.data_request(
                            &pager,
                            object.id(),
                            obj_offset,
                            pages as u64 * page,
                            st.access,
                        );
                    }
                    return park(object, obj_offset, WaitKind::Fill);
                }
                // Bottom of the chain with no pager: zero-fill memory. The
                // page is created in the *faulting* object: it is private
                // memory that has simply never been touched.
                return PageStep::Done(phys.zero_fill(&st.top, offset).map(|frame| {
                    if wants_write {
                        phys.set_modified(frame);
                    }
                    FaultResult {
                        frame,
                        object: st.top.clone(),
                        offset,
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

/// Applies the policy's timeout action to the page of `st`'s object at
/// `offset`.
fn handle_timeout(
    phys: &PhysicalMemory,
    st: &FaultState,
    offset: u64,
) -> Result<FaultResult, VmError> {
    match st.policy.on_timeout {
        TimeoutAction::Fail => Err(VmError::Timeout),
        TimeoutAction::ZeroFill => {
            phys.machine().stats.incr(stat_keys::VM_TIMEOUT_ZERO_FILLS);
            let frame = phys.zero_fill(&st.top, offset)?;
            Ok(FaultResult {
                frame,
                object: st.top.clone(),
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
    fn evicting_a_clean_page_resumes_the_fault_parked_for_its_unlock() {
        let (_m, phys) = setup(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager.clone());
        phys.supply_page(&obj, 0, filled(1u8, 4096), VmProt::WRITE)
            .expect("memory for one page");
        let poll = |what: &dyn Fn() -> bool| {
            machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), what)
        };
        // The manager never answers the unlock; far longer than the test,
        // so only the eviction's page event can end the wait.
        let policy = FaultPolicy::abort_after(Duration::from_secs(60));
        std::thread::scope(|s| {
            let fault = s.spawn(|| resolve_page(&phys, &obj, 0, VmProt::WRITE, policy));
            assert!(poll(&|| phys.fault_engine().outstanding() == 1));
            assert_eq!(pager.unlocks.lock().len(), 1);
            // A clean drop (the first pass only clears the reference bit):
            // nothing is written, nothing marked in transit.
            assert!(poll(&|| phys.reclaim_pages(1) == 1));
            assert!(pager.writes.lock().is_empty());
            // Re-probed from the top, the fault finds the page absent and
            // asks for it again.
            assert!(poll(&|| pager.requests.lock().len() == 1));
            phys.supply_page(&obj, 0, filled(2u8, 4096), VmProt::NONE)
                .expect("memory for one page");
            let r = fault
                .join()
                .expect("faulting thread")
                .expect("the fault resolves once its page is back, unlocked");
            assert!(r.prot_limit.allows(VmProt::WRITE));
        });
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
        // So does a run — while one that need not wait resolves whole.
        let engine = phys.fault_engine();
        let run = engine.submit_run(&obj, 0, 8, VmProt::READ, policy);
        assert_eq!(run.wait_run().unwrap_err(), VmError::ObjectDestroyed);
        let run = engine.submit_run(&anon, 0, 2, VmProt::READ, policy);
        assert_eq!(run.wait_run()?.len(), 2);
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
    fn a_run_is_one_fault_one_request_and_one_result_per_page() {
        let (m, phys) = setup(32);
        let (obj, pager) = EchoPager::attach_cluster(&phys, 0x5A, VmProt::NONE);
        let policy = FaultPolicy::trusting().with_cluster(8);
        let run = phys
            .fault_engine()
            .submit_run(&obj, 4 * 4096, 16, VmProt::READ, policy);
        let pages = run.wait_run().expect("the run resolves");
        // The run knows its own length: the policy's cap bounds only what
        // is inferred.
        assert_eq!(*pager.requests.lock(), vec![(4 * 4096, 16 * 4096)]);
        assert_eq!(m.stats.get(keys::VM_FAULTS), 1);
        assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 1);
        assert!(m.stats.get(keys::VM_ASYNC_PARKS) <= 1);
        assert_eq!(m.stats.get(keys::VM_CACHE_HITS), 0);
        assert_eq!(
            m.clock.now_ns(),
            m.cost.fault_overhead_ns + 16 * m.cost.map_page_ns
        );
        for (i, r) in pages.iter().enumerate() {
            assert_eq!((r.object.id(), r.offset), (obj.id(), (4 + i as u64) * 4096));
            phys.with_frame(r.frame, |d| assert!(d.iter().all(|&b| b == 0x5A)));
        }
        // `wait` on a run is its first page.
        assert_eq!(run.wait().expect("resolved").offset, 4 * 4096);
    }

    #[test]
    fn a_run_over_single_page_requests_asks_for_all_of_them_before_it_waits() {
        let (m, phys) = setup(32);
        // Not cluster-capable: sixteen requests, made in one step (so they
        // leave in one batch), sixteen single-page replies.
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(16 * 4096, pager.clone());
        let policy = FaultPolicy::trusting().with_cluster(8);
        let run = phys
            .fault_engine()
            .submit_run(&obj, 0, 16, VmProt::READ, policy);
        assert!(machsim::wall::poll_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || pager.requests.lock().len() == 16
        ));
        assert!(!run.is_done());
        assert_eq!(m.stats.get(keys::VM_ASYNC_PARKS), 1);
        for pg in (0..16u64).rev() {
            phys.supply_page(&obj, pg * 4096, filled(pg as u8, 4096), VmProt::NONE)
                .expect("memory for sixteen pages");
        }
        let pages = run.wait_run().expect("the run resolves");
        assert_eq!(pages.len(), 16);
        assert_eq!(m.stats.get(keys::VM_FAULTS), 1);
        // Parked on its first pending page throughout: only the last
        // reply, page 0's, woke it.
        assert_eq!(m.stats.get(keys::VM_ASYNC_PARKS), 1);
    }

    #[test]
    fn a_run_fails_as_a_whole_and_releases_what_it_claimed() {
        let (_m, phys) = setup(32);
        let pager = Arc::new(RecordingPager {
            cluster: true,
            ..Default::default()
        });
        let obj = VmObject::new_with_pager(16 * 4096, pager.clone());
        let policy = FaultPolicy::abort_after(Duration::from_millis(20)).with_cluster(8);
        let run = phys
            .fault_engine()
            .submit_run(&obj, 0, 16, VmProt::READ, policy);
        assert_eq!(run.wait_run().unwrap_err(), VmError::Timeout);
        assert_eq!(pager.requests.lock().len(), 1, "one request, one timeout");
        assert_eq!(phys.frame_census().pending, 0);
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
