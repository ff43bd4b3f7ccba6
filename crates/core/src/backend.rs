//! The kernel's outbound half of the pager protocol: [`IpcPagerBackend`].
//!
//! This is where `machvm`'s abstract [`PagerBackend`] trait meets real
//! ports: every trait method becomes an asynchronous message on the memory
//! object port ("the calls do not have explicit return arguments and the
//! kernel does not wait for acknowledgement"), sent with the backlog-exempt
//! notification path so the kernel can never be blocked by a slow manager.
//!
//! The backend also implements the starvation protection of Section 6.2.2:
//! dirty data handed to a manager with `pager_data_write` is *laundry*
//! until the manager lets go of it. "If the data manager does not process
//! and release the data within an adequate period of time, the data may
//! then be paged out to the default pager": a manager whose laundry has
//! stayed over a threshold, with no release, past a deadline loses further
//! pageouts to the default pager — "In this way, the kernel is protected
//! from starvation by errant data managers." The release is the manager's
//! `vm_deallocate`, a memory operation, so the kernel learns of it from
//! memory: it keeps a watch on every buffer it sends and sees the last
//! handle go. No message acknowledges a pageout. A page diverted to the
//! default pager is remembered, and the next request for it goes where
//! the data went.

use crate::proto;
use machipc::{Message, MsgItem, OolBuffer, OolWatch, SendRight};
use machsim::{wall, Machine};
use machvm::{ObjectId, PagerBackend, PagerRequest, VmProt};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::time::Duration;

/// Default number of outstanding laundered bytes a manager may hold before
/// it is on notice: pageouts divert to the default pager if it then goes
/// [`LAUNDRY_DEADLINE`] without releasing any.
pub const DEFAULT_LAUNDRY_LIMIT: u64 = 64 * 4096;

/// How long (wall clock, like the watchdog's debounce: the question is
/// whether a real thread is making progress) a manager over its laundry
/// limit may go without a single release before it counts as errant. A
/// burst of pageouts (a fault storm reclaiming inline, one `reclaim_pages`
/// call) can hand a manager several times the limit before its thread is
/// ever scheduled; a healthy manager drains that burst within a few
/// milliseconds of getting the CPU, a hoarder never does.
pub const LAUNDRY_DEADLINE: Duration = Duration::from_millis(100);

/// Per-manager laundry: the written-back buffers the manager still holds.
#[derive(Debug, Default)]
struct LaundryState {
    /// Every buffer sent and not yet seen dead, with its size.
    alive: Vec<(OolWatch, u64)>,
    /// Buffers seen dead so far: a change tells the backend the manager is
    /// alive, whatever the balance.
    releases: u64,
    /// Set by the first pageout that finds the manager over its limit:
    /// the release count at that moment and when its grace runs out. A
    /// release in between re-arms it.
    on_notice: Option<(u64, wall::Deadline)>,
}

impl LaundryState {
    /// Records `data` as handed to the manager.
    fn charge(&mut self, data: &OolBuffer) {
        self.alive.push((data.watch(), data.len() as u64));
    }

    /// Bytes written to the manager that it has not let go of. A buffer
    /// found dead here is one release (the manager's `vm_deallocate`).
    fn outstanding(&mut self) -> u64 {
        let sent = self.alive.len();
        self.alive.retain(|(watch, _)| !watch.is_released());
        self.releases += (sent - self.alive.len()) as u64;
        self.alive.iter().map(|(_, bytes)| bytes).sum()
    }

    /// Whether a pageout of `bytes` finds the manager errant: over `limit`
    /// since a deadline ago, with no release in between. Never waits.
    fn is_errant(&mut self, bytes: u64, limit: u64) -> bool {
        if self.outstanding() + bytes <= limit {
            return false;
        }
        match self.on_notice {
            Some((seen, deadline)) if seen == self.releases => deadline.expired(),
            _ => {
                self.on_notice = Some((self.releases, wall::Deadline::after(LAUNDRY_DEADLINE)));
                false
            }
        }
    }
}

/// Shared per-object termination hook (used by the default pager
/// backend, which serves many objects through one port).
type TerminateObjectHook = Box<dyn Fn(ObjectId) + Send>;

/// Kernel-side connection to one data manager's memory object port.
pub struct IpcPagerBackend {
    machine: Machine,
    /// The memory object port (manager receives on it).
    manager: SendRight,
    /// Send right to the kernel's pager request port, included in calls
    /// that expect a response ("specifying the pager request port to which
    /// the data should be returned").
    request: SendRight,
    /// Laundry accounting for starvation protection: the buffers *this*
    /// backend sent, so a page diverted to the fallback is the fallback's.
    laundry: parking_lot::Mutex<LaundryState>,
    /// Outstanding laundry beyond which the manager must keep releasing.
    laundry_limit: AtomicU64,
    /// Where diverted pageouts go (`None` for the default pager itself).
    fallback: RwLock<Weak<dyn PagerBackend>>,
    /// Pages whose latest contents went to the fallback instead of the
    /// manager; requests for them must follow.
    diverted: parking_lot::Mutex<HashSet<(ObjectId, u64)>>,
    /// System page size, the granularity of `diverted`.
    page_size: u64,
    /// Kernel cleanup to run at object termination (deallocates the
    /// request and name ports, notifying the manager via port death).
    on_terminate: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Shared per-object termination hook (used by the default pager
    /// backend, which serves many objects through one port).
    on_terminate_object: parking_lot::Mutex<Option<TerminateObjectHook>>,
    /// Label for diagnostics.
    label: String,
}

impl IpcPagerBackend {
    /// Creates a backend speaking to `manager`, returning data via
    /// `request`, for a kernel whose pages are `page_size` bytes.
    pub fn new(
        machine: &Machine,
        manager: SendRight,
        request: SendRight,
        page_size: usize,
        label: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(IpcPagerBackend {
            machine: machine.clone(),
            manager,
            request,
            laundry: parking_lot::Mutex::new(LaundryState::default()),
            laundry_limit: AtomicU64::new(DEFAULT_LAUNDRY_LIMIT),
            fallback: RwLock::new(Weak::<IpcPagerBackend>::new()),
            diverted: parking_lot::Mutex::new(HashSet::new()),
            page_size: page_size.max(1) as u64,
            on_terminate: parking_lot::Mutex::new(None),
            on_terminate_object: parking_lot::Mutex::new(None),
            label: label.into(),
        })
    }

    /// Sets the default-pager fallback for laundry overflow.
    pub fn set_fallback(&self, fallback: &Arc<dyn PagerBackend>) {
        *self.fallback.write().expect("lock poisoned") = Arc::downgrade(fallback);
    }

    /// Installs the cleanup run when the object is terminated.
    pub fn set_terminate_hook(&self, hook: impl FnOnce() + Send + 'static) {
        *self.on_terminate.lock() = Some(Box::new(hook));
    }

    /// Adjusts the laundry limit (ablation experiments).
    pub fn set_laundry_limit(&self, bytes: u64) {
        self.laundry_limit.store(bytes, Ordering::Relaxed);
    }

    /// Installs a hook run for every terminated object (default pager).
    pub fn set_object_terminate_hook(&self, hook: impl Fn(ObjectId) + Send + 'static) {
        *self.on_terminate_object.lock() = Some(Box::new(hook));
    }

    /// The memory object port this backend drives.
    pub fn manager_port(&self) -> &SendRight {
        &self.manager
    }

    fn ids(&self, values: &[u64]) -> MsgItem {
        MsgItem::u64s(values)
    }

    fn fallback(&self) -> Option<Arc<dyn PagerBackend>> {
        self.fallback.read().expect("lock poisoned").upgrade()
    }

    /// Cuts `[offset, offset + length)` into maximal runs that all went to
    /// the fallback or all did not: `(offset, length, diverted)`.
    fn split_diverted(&self, object: ObjectId, offset: u64, length: u64) -> Vec<(u64, u64, bool)> {
        let diverted = self.diverted.lock();
        if diverted.is_empty() {
            return vec![(offset, length, false)];
        }
        let mut runs: Vec<(u64, u64, bool)> = Vec::new();
        let mut page = offset;
        while page < offset.saturating_add(length) {
            let len = self.page_size.min(offset + length - page);
            let went = diverted.contains(&(object, page));
            match runs.last_mut() {
                Some((_, run_len, run_went)) if *run_went == went => *run_len += len,
                _ => runs.push((page, len, went)),
            }
            page += len;
        }
        runs
    }

    fn request_message(
        &self,
        object: ObjectId,
        offset: u64,
        length: u64,
        access: VmProt,
    ) -> Message {
        machipc::slab::message(proto::PAGER_DATA_REQUEST)
            .with(self.ids(&[object.0, offset, length, access.0 as u64]))
            .with(MsgItem::SendRights(vec![self.request.clone()]))
    }
}

impl PagerBackend for IpcPagerBackend {
    fn supports_cluster(&self) -> bool {
        // The kernel → manager protocol carries an explicit length on every
        // call, and `pager_data_provided` / `pager_data_unavailable` answers
        // are applied page by page, so any IPC-attached manager can be asked
        // for multi-page runs.
        true
    }

    fn data_request(&self, object: ObjectId, offset: u64, length: u64, desired_access: VmProt) {
        for (offset, length, diverted) in self.split_diverted(object, offset, length) {
            match diverted.then(|| self.fallback()).flatten() {
                Some(fallback) => fallback.data_request(object, offset, length, desired_access),
                None => self.manager.send_notification(self.request_message(
                    object,
                    offset,
                    length,
                    desired_access,
                )),
            }
        }
    }

    fn data_request_many(&self, object: ObjectId, runs: &[PagerRequest]) {
        // The deep batch: every queued run for this (pager, object) pair
        // travels in one `send_many` — one port lock round, one receiver
        // wakeup — instead of a message per faulting page. Each message
        // still carries its own fault's correlation id, so per-fault
        // causal chains survive the coalescing. Diverted parts of a run
        // are asked of the fallback instead, in a batch of their own —
        // unless the fallback is gone (kernel teardown), when the
        // manager's stale copy is the only answer left.
        let fallback = self.fallback();
        let (mut msgs, mut elsewhere) = (Vec::with_capacity(runs.len()), Vec::new());
        for r in runs {
            for (offset, length, diverted) in self.split_diverted(object, r.offset, r.length) {
                if diverted && fallback.is_some() {
                    elsewhere.push(PagerRequest {
                        offset,
                        length,
                        ..*r
                    });
                } else {
                    let mut m = self.request_message(object, offset, length, r.access);
                    m.correlation = r.correlation;
                    m.parent_span = r.parent_span;
                    msgs.push(m);
                }
            }
        }
        if let Some(fallback) = fallback.filter(|_| !elsewhere.is_empty()) {
            fallback.data_request_many(object, &elsewhere);
        }
        if !msgs.is_empty() {
            self.manager.send_many_notification(msgs);
        }
    }

    fn is_alive(&self) -> bool {
        self.manager.is_alive()
    }

    fn data_write(&self, object: ObjectId, offset: u64, data: OolBuffer) {
        let bytes = data.len() as u64;
        let pages =
            (0..bytes.div_ceil(self.page_size)).map(|i| (object, offset + i * self.page_size));
        let limit = self.laundry_limit.load(Ordering::Relaxed);
        if self.laundry.lock().is_errant(bytes, limit) {
            // Starvation protection: the manager has sat on too much
            // unreleased laundry for too long; page to the default pager
            // instead, and remember that these pages now live there.
            if let Some(fallback) = self.fallback() {
                self.machine
                    .stats
                    .incr(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS);
                self.diverted.lock().extend(pages);
                fallback.data_write(object, offset, data);
                return;
            }
        }
        {
            // The manager is about to hold the newest copy again.
            let mut diverted = self.diverted.lock();
            if !diverted.is_empty() {
                for page in pages {
                    diverted.remove(&page);
                }
            }
        }
        self.laundry.lock().charge(&data);
        self.manager.send_notification(
            machipc::slab::message(proto::PAGER_DATA_WRITE)
                .with(self.ids(&[object.0, offset]))
                .with(MsgItem::OutOfLine(data))
                .with(MsgItem::SendRights(vec![self.request.clone()])),
        );
    }

    fn data_unlock(&self, object: ObjectId, offset: u64, length: u64, desired_access: VmProt) {
        self.manager.send_notification(
            machipc::slab::message(proto::PAGER_DATA_UNLOCK)
                .with(self.ids(&[object.0, offset, length, desired_access.0 as u64]))
                .with(MsgItem::SendRights(vec![self.request.clone()])),
        );
    }

    fn terminate(&self, object: ObjectId) {
        // Termination is signaled by request/name port death (the FnOnce
        // hook drops the kernel's receive rights) plus an explicit
        // PAGER_TERMINATE message so multi-object managers — the default
        // pager above all — can free that object's backing storage.
        let had_diverted = {
            let mut diverted = self.diverted.lock();
            let before = diverted.len();
            diverted.retain(|(o, _)| *o != object);
            diverted.len() != before
        };
        // An object with pages at the fallback has paging blocks there to
        // free: the fallback's own termination says so, and counts the
        // object for both.
        match had_diverted.then(|| self.fallback()).flatten() {
            Some(fallback) => fallback.terminate(object),
            None => self
                .machine
                .stats
                .incr(machsim::stats::keys::EMM_OBJECTS_TERMINATED),
        }
        self.manager
            .send_notification(Message::new(proto::PAGER_TERMINATE).with(self.ids(&[object.0])));
        if let Some(hook) = self.on_terminate.lock().take() {
            hook();
        }
        if let Some(hook) = self.on_terminate_object.lock().as_ref() {
            hook(object);
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machipc::ReceiveRight;
    use parking_lot::Mutex;

    fn setup() -> (Machine, ReceiveRight, ReceiveRight, Arc<IpcPagerBackend>) {
        let m = Machine::default_machine();
        let (mgr_rx, mgr_tx) = ReceiveRight::allocate(&m);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        let b = IpcPagerBackend::new(&m, mgr_tx, req_tx, 4096, "test");
        (m, mgr_rx, req_rx, b)
    }

    #[test]
    fn data_request_message_layout() {
        let (_m, mgr_rx, _req_rx, b) = setup();
        b.data_request(ObjectId(7), 4096, 4096, VmProt::READ);
        let msg = mgr_rx.receive(None).unwrap();
        assert_eq!(msg.id, proto::PAGER_DATA_REQUEST);
        assert_eq!(
            msg.body[0].as_u64s().unwrap(),
            vec![7, 4096, 4096, VmProt::READ.0 as u64]
        );
        let MsgItem::SendRights(rights) = &msg.body[1] else {
            panic!("request port expected");
        };
        assert_eq!(rights.len(), 1);
    }

    #[test]
    fn data_write_carries_ool_and_the_laundry_is_the_buffer() {
        let (_m, mgr_rx, _req_rx, b) = setup();
        b.data_write(ObjectId(3), 0, OolBuffer::from_vec(vec![1u8; 4096]));
        assert_eq!(b.laundry.lock().outstanding(), 4096);
        let msg = mgr_rx.receive(None).unwrap();
        assert_eq!(msg.id, proto::PAGER_DATA_WRITE);
        assert_eq!(msg.body[1].as_ool().unwrap().len(), 4096);
        assert_eq!(b.laundry.lock().outstanding(), 4096, "the manager has it");
        drop(msg);
        assert_eq!(b.laundry.lock().outstanding(), 0);
    }

    #[test]
    fn laundry_is_the_buffers_still_alive() {
        let mut l = LaundryState::default();
        let (a, b) = (page(), OolBuffer::from_vec(vec![0; 8192]));
        l.charge(&a);
        l.charge(&b);
        assert_eq!((l.outstanding(), l.releases), (4096 + 8192, 0));
        // A dropped buffer is one release, whatever its size.
        drop(b);
        assert_eq!((l.outstanding(), l.releases), (4096, 1));
        // A kept clone keeps the debt: the pages are still the manager's.
        let kept = a.clone();
        drop(a);
        assert_eq!((l.outstanding(), l.releases), (4096, 1));
        drop(kept);
        assert_eq!((l.outstanding(), l.releases), (0, 2));
    }

    /// A fallback that records what reaches it.
    #[derive(Default)]
    struct Sink {
        writes: Mutex<Vec<u64>>,
        requests: Mutex<Vec<(u64, u64)>>,
        terminated: Mutex<Vec<u64>>,
    }

    impl PagerBackend for Sink {
        fn data_request(&self, _o: ObjectId, off: u64, len: u64, _a: VmProt) {
            self.requests.lock().push((off, len));
        }
        fn data_write(&self, _o: ObjectId, off: u64, _d: OolBuffer) {
            self.writes.lock().push(off);
        }
        fn data_unlock(&self, _o: ObjectId, _off: u64, _l: u64, _a: VmProt) {}
        fn terminate(&self, o: ObjectId) {
            self.terminated.lock().push(o.0);
        }
    }

    fn page() -> OolBuffer {
        OolBuffer::from_vec(vec![0; 4096])
    }

    #[test]
    fn only_a_manager_over_its_limit_past_the_deadline_is_taken_over() {
        let (m, mgr_rx, _req_rx, b) = setup();
        let sink = Arc::new(Sink::default());
        let sink_dyn: Arc<dyn PagerBackend> = sink.clone();
        b.set_fallback(&sink_dyn);
        let takeovers = || {
            m.stats
                .get(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS)
        };
        // A burst twice the limit, inside the grace period: all of it is
        // the manager's.
        let pages = 2 * DEFAULT_LAUNDRY_LIMIT / 4096;
        for i in 0..pages {
            b.data_write(ObjectId(1), i * 4096, page());
        }
        assert_eq!((sink.writes.lock().len(), takeovers()), (0, 0));
        // Still over the limit a deadline later, nothing released: errant.
        wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(20));
        b.data_write(ObjectId(1), pages * 4096, page());
        assert_eq!(
            (sink.writes.lock().clone(), takeovers()),
            (vec![pages * 4096], 1)
        );
        // One release (the manager receives a page and lets it go) — still
        // over the limit — and the manager is merely on notice again.
        drop(mgr_rx.try_receive().expect("the first page written"));
        b.data_write(ObjectId(1), (pages + 1) * 4096, page());
        assert_eq!(takeovers(), 1);
        let mut received = 1;
        while mgr_rx.try_receive().is_some() {
            received += 1;
        }
        assert_eq!(received, pages + 1);
    }

    #[test]
    fn requests_follow_a_diverted_page_until_the_manager_holds_it_again() {
        let (_m, mgr_rx, _req_rx, b) = setup();
        let sink = Arc::new(Sink::default());
        let sink_dyn: Arc<dyn PagerBackend> = sink.clone();
        b.set_fallback(&sink_dyn);
        b.set_laundry_limit(0);
        b.data_write(ObjectId(1), 0, page()); // puts the manager on notice
        wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(20));
        b.data_write(ObjectId(1), 2 * 4096, page());
        b.data_write(ObjectId(1), 3 * 4096, page());
        assert_eq!(*sink.writes.lock(), vec![2 * 4096, 3 * 4096]);
        // The manager drains its port, letting go of page 0: one release.
        while mgr_rx.try_receive().is_some() {}

        // A six-page run over the two diverted pages: three requests, the
        // middle one to the fallback.
        let run = PagerRequest {
            offset: 0,
            length: 6 * 4096,
            access: VmProt::READ,
            correlation: 9,
            parent_span: 0,
        };
        b.data_request_many(ObjectId(1), &[run]);
        assert_eq!(*sink.requests.lock(), vec![(2 * 4096, 2 * 4096)]);
        let to_manager: Vec<Vec<u64>> = std::iter::from_fn(|| mgr_rx.try_receive())
            .map(|msg| {
                assert_eq!(msg.correlation, 9);
                msg.body[0].as_u64s().expect("request ids")[1..3].to_vec()
            })
            .collect();
        assert_eq!(
            to_manager,
            vec![vec![0, 2 * 4096], vec![4 * 4096, 2 * 4096]]
        );

        // The manager has released since its notice and is written page 2
        // again: it holds the newest copy, and a request for page 2 is its
        // own once more.
        b.data_write(ObjectId(1), 2 * 4096, page());
        b.data_request(ObjectId(1), 2 * 4096, 2 * 4096, VmProt::READ);
        assert_eq!(sink.requests.lock()[1..], [(3 * 4096, 4096)]);
    }

    #[test]
    fn terminating_an_object_with_diverted_pages_tells_the_fallback() {
        let (m, _mgr_rx, _req_rx, b) = setup();
        let sink = Arc::new(Sink::default());
        let sink_dyn: Arc<dyn PagerBackend> = sink.clone();
        b.set_fallback(&sink_dyn);
        b.set_laundry_limit(0);
        b.data_write(ObjectId(1), 0, page()); // puts the manager on notice
        wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(20));
        b.data_write(ObjectId(1), 4096, page());
        assert_eq!(*sink.writes.lock(), vec![4096]);
        let terminated = || m.stats.get(machsim::stats::keys::EMM_OBJECTS_TERMINATED);
        // Nothing of object 2 is at the fallback: the count is this
        // backend's. Object 1's is the fallback's to make (the sink makes
        // none), and a second notice finds nothing diverted any more.
        b.terminate(ObjectId(2));
        assert_eq!((sink.terminated.lock().clone(), terminated()), (vec![], 1));
        b.terminate(ObjectId(1));
        assert_eq!((sink.terminated.lock().clone(), terminated()), (vec![1], 1));
        b.terminate(ObjectId(1));
        assert_eq!((sink.terminated.lock().clone(), terminated()), (vec![1], 2));
    }

    #[test]
    fn unlock_message_layout() {
        let (_m, mgr_rx, _req_rx, b) = setup();
        b.data_unlock(ObjectId(2), 8192, 4096, VmProt::WRITE);
        let msg = mgr_rx.receive(None).unwrap();
        assert_eq!(msg.id, proto::PAGER_DATA_UNLOCK);
        assert_eq!(
            msg.body[0].as_u64s().unwrap(),
            vec![2, 8192, 4096, VmProt::WRITE.0 as u64]
        );
    }

    #[test]
    fn sends_never_block_on_full_queue() {
        let (_m, mgr_rx, _req_rx, b) = setup();
        // Default backlog is 5; kernel notifications are exempt.
        for i in 0..50u64 {
            b.data_request(ObjectId(1), i * 4096, 4096, VmProt::READ);
        }
        assert_eq!(mgr_rx.status().num_msgs, 50);
    }
}
