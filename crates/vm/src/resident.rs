//! Resident memory structures and page replacement queues (§5.3, §5.4).
//!
//! "Each resident page structure corresponds to a page of physical memory,
//! and vice versa. The resident page structure records the memory object
//! and offset into the object, along with the access permitted to that page
//! by the data manager. Reference and modification information provided by
//! the hardware is also saved here. An interface providing fast resident
//! page lookup by memory object and offset (virtual to physical table) is
//! implemented as a hash table..."
//!
//! "Page replacement uses several pageout queues linked through the
//! resident page structures. An active queue contains all of the pages
//! currently in use, in least-recently-used order. An inactive queue is
//! used to hold pages being prepared for pageout. Pages not caching any
//! data are kept on a free queue."
//!
//! This module also implements the *reserved memory pool* of §6.2.3: a
//! configurable number of frames only "privileged" allocations (pageout and
//! default-pager paths) may consume, so the kernel can always make forward
//! progress cleaning pages even when user allocations have exhausted
//! memory.
//!
//! # Concurrency
//!
//! Because page faults become IPC in this design, fault throughput is
//! system throughput. What two clients of one object contend on is the
//! *number* of times each takes a lock, so the state is split by how
//! often it is needed, not by page:
//!
//! * One resident table — the virtual-to-physical map, the in-flight fill
//!   set, the replica sets and each frame's resident page structure
//!   (owner, manager lock, reverse mappings) — under one reader-writer
//!   lock. Its maps are ordered by `(object, offset)`, so every request
//!   that is a range (`pager_data_request`, `pager_data_provided`,
//!   `pager_flush_request`, `pager_data_lock`, termination, shadow
//!   collapse) is one range query under one hold, followed by *one*
//!   report to the fault engine. Lookups, pins, copies out of a resident
//!   page and the censuses share the lock as readers. Faults waiting on a
//!   fill or an unlock wait in the fault engine; every change that can
//!   unblock one is reported to it as a page event, with the table
//!   unlocked.
//! * The pageout queues (free/active/inactive) live behind one separate
//!   lock that the hot fault path only takes on a miss (to allocate a
//!   frame) — a cache hit touches no queue at all; it just sets the
//!   frame's reference bit, and the second-chance scan reorders later.
//!   Active and inactive are linked through per-frame indices, so taking
//!   a frame off either is O(1).
//! * The fast-changing per-frame bits (busy, wired, dirty, referenced,
//!   pins) are lock-free atomics; the page bytes have a per-frame lock.
//!
//! The `busy` bit doubles as the frame reservation: only the thread that
//! flips it false→true may free, retarget, or page out the frame, so
//! eviction, flush and install can race without holding the table across
//! I/O. Lock order, where locks nest, is resident → frame data → queues.
//!
//! # NUMA placement
//!
//! Frames are partitioned into per-node pools (contiguous blocks, one
//! free list per node); allocation prefers a node and steals only on
//! local exhaustion. On asymmetric machines three policies run on top of
//! the existing machinery (see [`crate::numa`]): first-touch allocation,
//! read-only replication of read-hot pages, and migration of write-hot
//! pages. Replica frames hold their `busy` reservation for life, sit on
//! no queue, and are reachable only through the table's replica sets,
//! so the table lock alone protects them; a write shoots the replica set
//! down and mutates the primary under one continuous *write* hold of the
//! table, while a reader holds it shared for as long as it reads a
//! replica, so readers serialize entirely before or after the write and
//! can never see a stale replica. One deliberate bypass: the raw
//! [`PhysicalMemory::with_frame_mut_if`] does not shoot down replicas —
//! replicated pages are only written through the policy-aware paths
//! ([`PhysicalMemory::numa_write_if`], [`PhysicalMemory::copy_to_resident`]).

use crate::continuation::{FaultEngine, FaultEngineConfig};
use crate::lockdep::{ClassMutex, ClassRwLock, LockClass};
use crate::numa::NumaConfig;
use crate::object::{ObjectId, PagerBackend, VmObject};
use crate::pmap::Pmap;
use crate::protocol;
use crate::types::{VmError, VmProt};
use machipc::OolBuffer;
use machsim::stats::keys as stat_keys;
use machsim::trace::keys as trace_keys;
use machsim::wall;
use machsim::{Machine, MemoryKind};
use parking_lot::{Condvar, RwLock};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Callback invoked when a temporary object first adopts the default
/// pager (see [`PhysicalMemory::set_adoption_hook`]).
type AdoptionHook = Box<dyn Fn(&Arc<VmObject>) + Send + Sync>;

/// Most contiguous dirty pages folded into one `pager_data_write`.
const PAGEOUT_BATCH_PAGES: usize = 8;

/// A page's identity: its memory object and byte offset within it.
type PageKey = (ObjectId, u64);

/// Which pageout queue a frame is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageQueue {
    /// Caching data and recently used.
    Active,
    /// Caching data, candidate for pageout.
    Inactive,
    /// Not caching any data.
    Free,
    /// Caching data but wired or busy (on no queue).
    None,
}

/// The slow-changing part of a frame's resident page structure, kept in
/// the resident table (fast-changing bits — busy/wired/dirty/referenced —
/// are atomics on [`Frame`]).
#[derive(Default)]
struct PageInfo {
    /// Owning memory object and offset, when caching data. The key is
    /// stored alongside the weak ref so eviction can find the table entry
    /// even after the object itself has been dropped.
    owner: Option<(Weak<VmObject>, ObjectId, u64)>,
    /// Access prohibited by the data manager (`pager_data_lock` value).
    lock: VmProt,
    /// Reverse mappings: pmaps (and virtual pages) mapping this frame.
    mappings: Vec<(Weak<Pmap>, u64)>,
}

/// Per-(frame, node) access counters driving the hot-page policies.
#[derive(Default)]
struct NodeAccess {
    reads: AtomicU32,
    writes: AtomicU32,
}

/// One physical frame: page data plus the lock-free half of its resident
/// page structure.
struct Frame {
    data: ClassRwLock<Box<[u8]>>,
    /// Memory node this frame's storage is attached to (fixed at boot).
    home: usize,
    /// Accesses per node since the page was installed (or last migrated):
    /// the evidence the replication/migration policies act on.
    node_stats: Box<[NodeAccess]>,
    /// A fill or pageout is in transit; the frame must not be disturbed.
    /// Flipping this false→true is the exclusive reservation required to
    /// free, retarget or page out the frame.
    busy: AtomicBool,
    /// Excluded from pageout (kernel-critical data).
    wired: AtomicBool,
    /// Modified since last cleaned ("modification information").
    dirty: AtomicBool,
    /// Referenced since last queue scan ("reference information").
    referenced: AtomicBool,
    /// Shared pin count: threads holding the frame against reclaim while
    /// they copy out of it (a COW source). Raised only under a hold of
    /// the resident table; reclaim and flush decide under a write hold
    /// and back off while pins are outstanding, so a pinned frame keeps
    /// its page identity.
    pins: AtomicUsize,
}

impl Frame {
    fn new(page_size: usize, home: usize, nodes: usize) -> Self {
        Frame {
            data: ClassRwLock::new(
                LockClass::FrameData,
                vec![0u8; page_size].into_boxed_slice(),
            ),
            home,
            node_stats: (0..nodes).map(|_| NodeAccess::default()).collect(),
            busy: AtomicBool::new(false),
            wired: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
            pins: AtomicUsize::new(0),
        }
    }

    fn reset_node_stats(&self) {
        for s in self.node_stats.iter() {
            s.reads.store(0, Ordering::Relaxed);
            s.writes.store(0, Ordering::Relaxed);
        }
    }

    /// Reserves the frame; the caller becomes the only thread allowed to
    /// free/retarget it until it clears `busy` again.
    fn reserve(&self) -> bool {
        self.busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn release(&self) {
        self.busy.store(false, Ordering::Release);
    }
}

/// A pager fill (or write-back) in transit for one page.
#[derive(Clone, Copy, Debug)]
struct PendingFill {
    /// Sim time the entry was claimed (for `vm.request_to_fill`).
    since_ns: u64,
    /// Node of the CPU that faulted — the data manager's supply runs on
    /// its own thread, so first-touch placement must remember where the
    /// requester was.
    node: usize,
}

/// The resident table: everything found by `(object, offset)`, ordered so
/// that an object's pages in `[first, end)` are one range.
struct ResidentTable {
    /// The virtual-to-physical table: page -> frame.
    pages: BTreeMap<PageKey, usize>,
    /// Pages with pager traffic in flight: outstanding
    /// `pager_data_request`s awaiting `pager_data_provided`, and evicted
    /// dirty pages whose `pager_data_write` has not yet been sent.
    /// Faults on these keys wait rather than re-request, so a refault can
    /// never overtake an in-flight write-back on the pager's port.
    pending: BTreeMap<PageKey, PendingFill>,
    /// Per-node read-only replicas of read-hot pages: page ->
    /// [(node, frame)]. Replica frames live outside the pageout queues,
    /// hold their `busy` reservation for life, are never pinned, wired or
    /// pmap-mapped, and are reachable only through this map — so the
    /// table lock alone protects them. Any write to the primary (or its
    /// invalidation) shoots the whole set down.
    replicas: BTreeMap<PageKey, Vec<(usize, usize)>>,
    /// Per frame: whose page it caches, under which manager lock, mapped
    /// where. `info[f].owner` names a key of `pages` exactly when
    /// `pages[key] == f`.
    info: Vec<PageInfo>,
}

impl ResidentTable {
    /// The pages of `object` in `[first, end)` with their frames.
    fn span(&self, object: ObjectId, first: u64, end: u64) -> Vec<(u64, usize)> {
        self.pages
            .range((object, first)..(object, end))
            .map(|(&(_, offset), &frame)| (offset, frame))
            .collect()
    }

    /// The key of the page `frame` caches, if it caches one.
    fn key_of(&self, frame: usize) -> Option<PageKey> {
        self.info[frame]
            .owner
            .as_ref()
            .map(|&(_, object, offset)| (object, offset))
    }
}

/// The pageout queues, behind their own lock separate from the table.
struct Queues {
    /// One free list per memory node; a frame always returns to its home
    /// node's list, so first-touch allocation is a node-local pop and
    /// stealing is an explicit walk of the other nodes.
    free: Vec<Vec<usize>>,
    /// The active and inactive queues, "linked through the resident page
    /// structures" (§5.4): `(prev, next)` per frame, each queue a ring
    /// closed by a head entry of its own after the last frame's — so
    /// taking a frame off either is O(1), with no end-of-queue case.
    links: Vec<(usize, usize)>,
    /// Lengths of the active and the inactive queue.
    lens: [usize; 2],
    /// Which queue each frame is on.
    membership: Vec<PageQueue>,
    /// Frames unlinked so far: lets a test bound the queue work of an
    /// operation without timing it.
    #[cfg(test)]
    unlinked: u64,
}

impl Queues {
    fn new(free: Vec<Vec<usize>>, frames: usize) -> Self {
        Queues {
            free,
            links: (0..frames + 2).map(|i| (i, i)).collect(),
            lens: [0; 2],
            membership: vec![PageQueue::Free; frames],
            #[cfg(test)]
            unlinked: 0,
        }
    }

    fn total_free(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Where a pageout queue keeps its length and, past the frames, its
    /// head; `None` for what is not a linked queue.
    fn ring(which: PageQueue) -> Option<usize> {
        match which {
            PageQueue::Active => Some(0),
            PageQueue::Inactive => Some(1),
            PageQueue::Free | PageQueue::None => None,
        }
    }

    fn len(&self, which: PageQueue) -> usize {
        Self::ring(which).map_or(0, |ring| self.lens[ring])
    }

    /// Appends `frame`, which is on no queue, to the active or inactive
    /// queue.
    fn push_back(&mut self, which: PageQueue, frame: usize) {
        let ring = Self::ring(which).expect("only pageout queues are linked");
        let head = self.membership.len() + ring;
        let tail = self.links[head].0;
        self.links[frame] = (tail, head);
        self.links[tail].1 = frame;
        self.links[head].0 = frame;
        self.lens[ring] += 1;
        self.membership[frame] = which;
    }

    /// Takes `frame` off whichever pageout queue it is on, in O(1).
    fn unlink(&mut self, frame: usize) {
        if let Some(ring) = Self::ring(self.membership[frame]) {
            let (prev, next) = self.links[frame];
            self.links[prev].1 = next;
            self.links[next].0 = prev;
            self.lens[ring] -= 1;
            #[cfg(test)]
            {
                self.unlinked += 1;
            }
        }
        self.membership[frame] = PageQueue::None;
    }

    /// Takes the oldest frame off the active or inactive queue.
    fn pop_front(&mut self, which: PageQueue) -> Option<usize> {
        let head = self.membership.len() + Self::ring(which)?;
        let first = self.links[head].1;
        (first != head).then(|| {
            self.unlink(first);
            first
        })
    }
}

/// Result of a resident-page lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageLookup {
    /// The page is cached; fields are the frame and the manager's lock.
    Resident {
        /// Physical frame index.
        frame: usize,
        /// Data manager lock value on the page.
        lock: VmProt,
    },
    /// A fill request is already outstanding.
    Pending,
    /// Not cached and not requested.
    Absent,
}

/// A point-in-time census of physical memory (see
/// [`PhysicalMemory::frame_census`]). All fields are frame counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCensus {
    /// Total frames in the machine.
    pub total: u64,
    /// Frames on the free queue.
    pub free: u64,
    /// Frames on the active queue.
    pub active: u64,
    /// Frames on the inactive queue.
    pub inactive: u64,
    /// Frames caching a page (V2P table entries).
    pub resident: u64,
    /// Pages with pager traffic in flight (awaiting fill or write-back).
    pub pending: u64,
    /// Frames pinned against reclaim.
    pub pinned: u64,
    /// Frames holding modified data not yet written back.
    pub dirty: u64,
    /// Frames wired (never evicted).
    pub wired: u64,
    /// Frames reserved by a thread for free/retarget.
    pub busy: u64,
    /// Frames kept back for privileged pageout-path allocations.
    pub reserve: u64,
}

/// Per-node slice of the frame census (see
/// [`PhysicalMemory::node_census`]). All fields are frame counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCensus {
    /// Node index.
    pub node: u64,
    /// Frames whose storage is attached to this node.
    pub total: u64,
    /// Frames on this node's free list.
    pub free: u64,
    /// Primary resident pages placed on this node.
    pub resident: u64,
    /// Read-only replicas living on this node.
    pub replicas: u64,
}

/// Simulated physical memory: frames, the resident page table and queues.
pub struct PhysicalMemory {
    machine: Machine,
    page_size: usize,
    reserve: usize,
    /// NUMA placement configuration (single node by default).
    numa: NumaConfig,
    /// Whether remote word accesses cost more than local ones on this
    /// machine *and* there is more than one node. The placement policies
    /// and remote charging only act when true, so a UMA machine behaves
    /// identically whatever policies are configured.
    asymmetric: bool,
    /// Round-robin cursor for allocations with no better placement hint
    /// (the striping baseline when first-touch is off).
    alloc_cursor: AtomicUsize,
    frames: Vec<Frame>,
    resident: ClassRwLock<ResidentTable>,
    queues: ClassMutex<Queues>,
    /// Signaled when frames return to the free queue.
    free_event: Condvar,
    /// Free-frame count under which an allocation wakes the pageout daemon
    /// (0 until a daemon waits in [`wait_for_pressure`](Self::wait_for_pressure)).
    pageout_below: AtomicUsize,
    /// Signaled by the allocation that takes the free queue under
    /// `pageout_below`.
    pageout_event: Condvar,
    /// Lazy backing store for temporary objects (the default pager).
    default_pager: RwLock<Option<Arc<dyn PagerBackend>>>,
    /// Called when a temporary object first adopts the default pager (the
    /// kernel uses this to register the object for supply routing —
    /// the `pager_create` handshake).
    adoption_hook: RwLock<Option<AdoptionHook>>,
    /// The fault engine: every fault against this memory is submitted to
    /// it, and every change that can unblock a parked fault — a fill
    /// installed or cancelled, a manager lock changed, a page removed — is
    /// reported to it ([`FaultEngine::on_range_event`]), once per
    /// operation and always with the resident table unlocked: its
    /// continuation table ranks *above* the resident table.
    engine: FaultEngine,
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PhysicalMemory({} frames, {} free, {} resident)",
            self.frames.len(),
            self.free_frames(),
            self.resident_pages()
        )
    }
}

impl PhysicalMemory {
    /// Creates `total_bytes / page_size` frames with `reserve_pages` kept
    /// for privileged (pageout-path) allocations: one memory node, default
    /// fault-engine budgets.
    pub fn new(
        machine: &Machine,
        total_bytes: usize,
        page_size: usize,
        reserve_pages: usize,
    ) -> Arc<Self> {
        Self::with_config(
            machine,
            total_bytes,
            page_size,
            reserve_pages,
            NumaConfig::single(),
            FaultEngineConfig::default(),
        )
    }

    /// The one constructor. Like [`new`](Self::new), but partitions the
    /// frames across `numa.nodes` memory nodes (contiguous equal blocks,
    /// one free list per node), arms the configured placement policies,
    /// and gives the memory's fault engine the budgets in `faults`.
    pub fn with_config(
        machine: &Machine,
        total_bytes: usize,
        page_size: usize,
        reserve_pages: usize,
        numa: NumaConfig,
        faults: FaultEngineConfig,
    ) -> Arc<Self> {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        let n = total_bytes / page_size;
        assert!(n > reserve_pages, "memory must exceed the reserved pool");
        let nodes = numa.nodes.max(1);
        assert!(n >= nodes, "need at least one frame per node");
        let home = |i: usize| i * nodes / n;
        let mut free: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for i in (0..n).rev() {
            free[home(i)].push(i);
        }
        let asymmetric = nodes > 1 && machine.cost.topology.is_asymmetric();
        Arc::new_cyclic(|weak| PhysicalMemory {
            machine: machine.clone(),
            page_size,
            reserve: reserve_pages,
            numa,
            asymmetric,
            alloc_cursor: AtomicUsize::new(0),
            frames: (0..n)
                .map(|i| Frame::new(page_size, home(i), nodes))
                .collect(),
            resident: ClassRwLock::new(
                LockClass::Resident,
                ResidentTable {
                    pages: BTreeMap::new(),
                    pending: BTreeMap::new(),
                    replicas: BTreeMap::new(),
                    info: (0..n).map(|_| PageInfo::default()).collect(),
                },
            ),
            queues: ClassMutex::new(LockClass::Queues, Queues::new(free, n)),
            free_event: Condvar::new(),
            pageout_below: AtomicUsize::new(0),
            pageout_event: Condvar::new(),
            default_pager: RwLock::new(None),
            adoption_hook: RwLock::new(None),
            engine: FaultEngine::new(weak.clone(), machine, faults),
        })
    }

    /// System page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Frames on the free queue (all nodes).
    pub fn free_frames(&self) -> usize {
        self.queues.lock().total_free()
    }

    /// Number of memory nodes the frames are partitioned across.
    pub fn nodes(&self) -> usize {
        self.numa.nodes.max(1)
    }

    /// The memory node `frame`'s storage is attached to.
    pub fn frame_node(&self, frame: usize) -> usize {
        self.frames[frame].home
    }

    /// Frames caching data (resident pages).
    pub fn resident_pages(&self) -> usize {
        self.resident.read().pages.len()
    }

    /// Pages with pager traffic in flight ([`FrameCensus::pending`]).
    pub fn pending_fills(&self) -> usize {
        self.resident.read().pending.len()
    }

    /// (active, inactive, free) queue lengths.
    pub fn queue_lengths(&self) -> (usize, usize, usize) {
        let q = self.queues.lock();
        let (active, inactive) = (q.len(PageQueue::Active), q.len(PageQueue::Inactive));
        (active, inactive, q.total_free())
    }

    /// A point-in-time census of every frame and queue — the
    /// `vm_statistics`-style summary served over the kernel's host port
    /// and dumped in watchdog black-box reports.
    ///
    /// Queue lengths are read under the queue lock, table sizes under the
    /// table lock; per-frame flag counts are relaxed reads, so under
    /// concurrent faulting the flag totals are approximate (each flag is
    /// individually coherent).
    pub fn frame_census(&self) -> FrameCensus {
        let (active, inactive, free) = self.queue_lengths();
        let mut census = FrameCensus {
            total: self.frames.len() as u64,
            free: free as u64,
            active: active as u64,
            inactive: inactive as u64,
            resident: self.resident_pages() as u64,
            pending: self.pending_fills() as u64,
            reserve: self.reserve as u64,
            ..FrameCensus::default()
        };
        for f in &self.frames {
            census.pinned += u64::from(f.pins.load(Ordering::Relaxed) > 0);
            census.dirty += u64::from(f.dirty.load(Ordering::Relaxed));
            census.wired += u64::from(f.wired.load(Ordering::Relaxed));
            census.busy += u64::from(f.busy.load(Ordering::Relaxed));
        }
        census
    }

    /// The machine this memory charges.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Registers the default pager used to back temporary objects when
    /// their dirty pages must be evicted (§6.2.2).
    pub fn set_default_pager(&self, pager: Arc<dyn PagerBackend>) {
        *self.default_pager.write() = Some(pager);
    }

    /// The registered default pager, if any.
    pub fn default_pager(&self) -> Option<Arc<dyn PagerBackend>> {
        self.default_pager.read().clone()
    }

    /// Registers a callback invoked when a temporary object adopts the
    /// default pager during pageout (`pager_create`).
    pub fn set_adoption_hook(&self, hook: impl Fn(&Arc<VmObject>) + Send + Sync + 'static) {
        *self.adoption_hook.write() = Some(Box::new(hook));
    }

    /// The fault engine every fault against this memory goes through.
    pub fn fault_engine(&self) -> &FaultEngine {
        &self.engine
    }

    // ----- queue maintenance (callers hold the queues lock) -----

    fn activate(&self, q: &mut Queues, frame: usize) {
        q.unlink(frame);
        q.push_back(PageQueue::Active, frame);
        self.frames[frame].referenced.store(true, Ordering::Release);
    }

    /// Second-chance scan: moves the oldest unreferenced active pages to
    /// the inactive queue until it holds `target_inactive` pages.
    fn second_chance(&self, q: &mut Queues, target_inactive: usize) {
        for _ in 0..q.len(PageQueue::Active) {
            if q.len(PageQueue::Inactive) >= target_inactive {
                break;
            }
            let Some(f) = q.pop_front(PageQueue::Active) else {
                break;
            };
            if self.frames[f].referenced.swap(false, Ordering::AcqRel) {
                q.push_back(PageQueue::Active, f);
            } else {
                q.push_back(PageQueue::Inactive, f);
            }
        }
    }

    /// Pageout-daemon entry point: moves the oldest unreferenced active
    /// pages onto the inactive queue until it holds `target_inactive`
    /// pages, applying the second-chance discipline to reference bits.
    pub fn balance_queues(&self, target_inactive: usize) {
        let mut q = self.queues.lock();
        self.second_chance(&mut q, target_inactive);
    }

    /// Resets the fast per-frame bits; the frame must be unreachable
    /// (freshly popped from the free queue or being freed).
    fn reset_frame_bits(&self, frame: usize) {
        let fr = &self.frames[frame];
        fr.wired.store(false, Ordering::Release);
        fr.dirty.store(false, Ordering::Release);
        fr.referenced.store(false, Ordering::Release);
    }

    /// Returns reserved (busy) frames to their free lists under one hold
    /// of the queues lock. The caller must hold each frame's `busy`
    /// reservation and have already taken it out of the resident table
    /// (which clears its page info).
    fn release_frames(&self, frames: impl IntoIterator<Item = usize>) {
        let mut q = self.queues.lock();
        for frame in frames {
            self.free_frame_locked(&mut q, frame);
        }
        self.free_event.notify_all();
    }

    /// The caller signals `free_event`, once for all it frees.
    fn free_frame_locked(&self, q: &mut Queues, frame: usize) {
        let fr = &self.frames[frame];
        debug_assert_eq!(fr.pins.load(Ordering::Acquire), 0, "freed a pinned frame");
        self.reset_frame_bits(frame);
        q.unlink(frame);
        q.free[fr.home].push(frame);
        q.membership[frame] = PageQueue::Free;
        fr.reset_node_stats();
        fr.release();
    }

    // ----- lookup -----

    /// Looks up `(object, offset)` in the virtual-to-physical table.
    ///
    /// A hit only sets the frame's reference bit — no queue is touched on
    /// the hot path; the second-chance scan reorders queues later.
    pub fn lookup(&self, object: ObjectId, offset: u64) -> PageLookup {
        let key = (object, offset);
        let t = self.resident.read();
        if let Some(&frame) = t.pages.get(&key) {
            self.frames[frame].referenced.store(true, Ordering::Release);
            let lock = t.info[frame].lock;
            return PageLookup::Resident { frame, lock };
        }
        if t.pending.contains_key(&key) {
            return PageLookup::Pending;
        }
        PageLookup::Absent
    }

    /// Claims responsibility for filling `(object, offset)`: `true` if the
    /// caller must issue the `pager_data_request`, `false` if the page
    /// became resident or another thread already asked.
    pub fn begin_fill(&self, object: ObjectId, offset: u64) -> bool {
        self.begin_fill_run(object, offset, 1, 0).is_some()
    }

    /// Claims the forward run `[offset, offset + window_pages)` for one
    /// `pager_data_request` — the paper's `pager_data_request(offset,
    /// length)` with the length the access calls for — under one hold of
    /// the table.
    ///
    /// The faulting page is claimed first; `None` means it is already
    /// resident or in flight and the caller should simply await it. The
    /// claim then grows forward one page at a time and stops at the first
    /// page that is resident or pending (never re-requested, so a fill
    /// cannot overwrite it) and at the object's page-rounded size (so
    /// pagers are never asked for pages that cannot exist). Returns the
    /// run's length in pages.
    pub fn begin_fill_run(
        &self,
        object: ObjectId,
        offset: u64,
        window_pages: usize,
        object_size: u64,
    ) -> Option<usize> {
        let ps = self.page_size as u64;
        let rounded_size = object_size.max(offset + ps).div_ceil(ps) * ps;
        let limit = (offset + window_pages.max(1) as u64 * ps).min(rounded_size);
        let since_ns = self.machine.clock.now_ns();
        let mut t = self.resident.write();
        let mut end = offset;
        while end < limit && !t.pages.contains_key(&(object, end)) {
            // Placement is decided per page, so a run stripes (or lands on
            // the faulting CPU's node) exactly as single claims would.
            let node = self.preferred_node();
            let Entry::Vacant(slot) = t.pending.entry((object, end)) else {
                break;
            };
            slot.insert(PendingFill { since_ns, node });
            end += ps;
        }
        (end > offset).then(|| ((end - offset) / ps) as usize)
    }

    /// Installs the `pages` pages of `object` from `offset` that are not
    /// resident yet, each in a fresh frame `fill` has written (it is given
    /// the page's index in the range and the frame), then reports *one*
    /// page event for the range, if any of it was awaited — after its
    /// last page, so a fault parked on the first is resumed once and
    /// finds the rest resident. Returns the pages installed: none for an
    /// object terminated meanwhile (a late reply), whose claimed pages
    /// are simply released.
    ///
    /// One hold of the table decides which pages take a frame: a page
    /// that arrived by another route keeps its resident copy (before a
    /// frame is taken and maybe a page evicted for nothing). Frames are
    /// then taken and filled with the table unlocked, each on the node its
    /// pending fill recorded (the manager's supply runs on its own thread,
    /// so first-touch placement reads the requester's node from there),
    /// and entered under one more hold — or, for a buffer larger than free
    /// memory, one each time the free lists run dry: only pages in the
    /// table can be reclaimed to make room.
    fn fill_range(
        &self,
        object: &Arc<VmObject>,
        offset: u64,
        pages: usize,
        lock: VmProt,
        mut fill: impl FnMut(usize, usize),
    ) -> Result<usize, VmError> {
        let ps = self.page_size as u64;
        let id = object.id();
        let mut awaited = false;
        let wanted: Vec<(usize, Option<usize>)> = {
            let mut t = self.resident.write();
            let dead = object.is_terminated();
            (0..pages)
                .filter_map(|i| {
                    let key = (id, offset + i as u64 * ps);
                    if dead || t.pages.contains_key(&key) {
                        awaited |= t.pending.remove(&key).is_some();
                        return None;
                    }
                    Some((i, t.pending.get(&key).map(|p| p.node)))
                })
                .collect()
        };
        let mut installed = 0;
        let mut filled: Vec<(u64, usize)> = Vec::with_capacity(wanted.len());
        let taken = wanted.into_iter().try_for_each(|(i, node)| {
            let node = node.unwrap_or_else(|| self.preferred_node());
            let frame = match self.take_free(node, true, true) {
                Some(frame) => frame,
                None => {
                    installed += self.link(object, &mut filled, lock, &mut awaited);
                    self.allocate_frame_on(node, true)?
                }
            };
            fill(i, frame);
            filled.push((offset + i as u64 * ps, frame));
            Ok(())
        });
        installed += self.link(object, &mut filled, lock, &mut awaited);
        if awaited {
            self.engine
                .on_range_event(id, (0..pages as u64).map(|i| offset + i * ps));
        }
        taken.map(|()| installed)
    }

    /// Abandons the pending fills of the `pages`-page run a
    /// `begin_fill_run` claimed (e.g. its fault timed out), so a later
    /// fault can re-request the data: every pending entry goes under one
    /// hold, then one page event covers the run (none if none of it was
    /// still pending).
    pub fn cancel_fill_run(&self, object: ObjectId, offset: u64, pages: usize) {
        let ps = self.page_size as u64;
        let run = || (0..pages as u64).map(|i| offset + i * ps);
        let awaited = {
            let mut t = self.resident.write();
            run().fold(false, |any, page| {
                t.pending.remove(&(object, page)).is_some() | any
            })
        };
        if awaited {
            self.engine.on_range_event(object, run());
        }
    }

    // ----- frame allocation and reclaim -----

    /// The node new allocations should land on absent a stronger hint:
    /// the faulting CPU's node under first-touch, round-robin otherwise.
    fn preferred_node(&self) -> usize {
        let nodes = self.numa.nodes.max(1);
        if nodes <= 1 {
            return 0;
        }
        if self.numa.first_touch {
            if let Some(n) = crate::numa::current_node() {
                return n % nodes;
            }
        }
        self.alloc_cursor.fetch_add(1, Ordering::Relaxed) % nodes
    }

    /// Allocates a frame, reclaiming cached pages if necessary.
    ///
    /// Unprivileged allocations may not dip into the reserved pool; the
    /// pageout path and default pager allocate privileged. The returned
    /// frame is reserved (busy) until `install` links it into the table.
    pub fn allocate_frame(&self, privileged: bool) -> Result<usize, VmError> {
        self.allocate_frame_on(self.preferred_node(), privileged)
    }

    /// Like [`allocate_frame`](Self::allocate_frame), but prefers `node`'s
    /// free list, stealing from the other nodes only when it is empty —
    /// the first-touch placement path.
    pub fn allocate_frame_on(&self, node: usize, privileged: bool) -> Result<usize, VmError> {
        let mut failures = 0u32;
        loop {
            if let Some(frame) = self.take_free(node, privileged, true) {
                return Ok(frame);
            }
            // Out of easy frames: reclaim one page (outside the lock for
            // any pager I/O), then retry. The first reclaim pass may only
            // clear reference bits (second chance), so several consecutive
            // failures are needed before giving up.
            if self.reclaim_one() {
                failures = 0;
                continue;
            }
            // Replicas are pure placement optimization; under pressure
            // they are the first thing to go.
            if self.reclaim_replica() {
                failures = 0;
                continue;
            }
            failures += 1;
            if failures >= 8 {
                return Err(VmError::NoMemory);
            }
            // Wait briefly for frames to return to the free queue.
            let mut q = self.queues.lock();
            let _ = self
                .free_event
                .wait_for(q.inner_mut(), Duration::from_millis(5));
        }
    }

    /// Pops a free frame — from `node`'s list, or with `steal` from the
    /// next node that has one — without reclaiming or blocking; `None`
    /// when that would dip under the floor (the reserve, unless
    /// `privileged`). Takes only the queues lock, so it is safe under a
    /// hold of the resident table (resident → queues is the canonical
    /// order), which is where the replication and migration policies
    /// need it. The frame comes back reserved (busy): free-queue frames
    /// cache nothing and are otherwise unreachable, so the reservation
    /// always succeeds.
    fn take_free(&self, node: usize, privileged: bool, steal: bool) -> Option<usize> {
        let mut q = self.queues.lock();
        let floor = if privileged { 0 } else { self.reserve };
        if q.total_free() <= floor {
            return None;
        }
        let nodes = q.free.len();
        let reach = if steal { nodes } else { 1 };
        let frame = (0..reach).find_map(|i| q.free[(node + i) % nodes].pop())?;
        q.membership[frame] = PageQueue::None;
        let pressure = self.under_pressure(&q);
        drop(q);
        if pressure {
            self.pageout_event.notify_one();
        }
        self.frames[frame].busy.store(true, Ordering::Release);
        self.reset_frame_bits(frame);
        Some(frame)
    }

    /// Whether the free queue is under the level the pageout daemon asked
    /// to be woken at.
    fn under_pressure(&self, q: &Queues) -> bool {
        q.total_free() < self.pageout_below.load(Ordering::Relaxed)
    }

    /// Blocks the pageout daemon until fewer than `low_water` frames are
    /// free or `patience` of real time has passed; returns whether the
    /// free queue is under `low_water`. The allocation that crosses the
    /// mark wakes the daemon (as `vm_page_alloc` wakes Mach's), so how
    /// much one sweep has to reclaim follows the allocations, not how many
    /// of them the host fitted into a poll interval.
    pub fn wait_for_pressure(&self, low_water: usize, patience: Duration) -> bool {
        self.pageout_below.store(low_water, Ordering::Relaxed);
        let deadline = wall::Deadline::after(patience);
        let mut q = self.queues.lock();
        while q.total_free() >= low_water {
            let Some(left) = deadline.remaining() else {
                return false;
            };
            let _ = self.pageout_event.wait_for(q.inner_mut(), left);
        }
        true
    }

    /// Frees one page's replica set somewhere in the table, if any exists;
    /// returns whether frames were released. Memory pressure values real
    /// pages over placement copies.
    fn reclaim_replica(&self) -> bool {
        let popped = self.resident.write().replicas.pop_first();
        // Out of the table = unreachable; we inherit each frame's
        // lifetime `busy` reservation, so freeing needs no table hold.
        popped.is_some_and(|(_, reps)| {
            self.release_frames(reps.into_iter().map(|(_, frame)| frame));
            true
        })
    }

    /// Reclaims up to `n` pages (the pageout daemon's work loop); returns
    /// how many frames were actually freed.
    pub fn reclaim_pages(&self, n: usize) -> usize {
        (0..n).take_while(|_| self.reclaim_one()).count()
    }

    /// Takes the page `key`, cached in `frame`, out of the table: its
    /// entry, its replicas (they die with the primary), its page info and
    /// — before the modified bit or the bytes are looked at — every
    /// hardware mapping, so no new writer can reach the frame. Returns
    /// the bytes of a modified page if `write_back` wants them, leaving
    /// the page marked in transit until the caller has its
    /// `pager_data_write` on the wire: a refault in that window must wait
    /// here rather than send a `pager_data_request` that could overtake
    /// the write and get `data_unavailable` for data the pager is about
    /// to receive — the port's FIFO ordering then guarantees the pager
    /// sees the write before the re-request. The caller holds the frame's
    /// `busy` reservation and frees it afterwards.
    fn evict_locked(
        &self,
        t: &mut ResidentTable,
        key: PageKey,
        frame: usize,
        write_back: bool,
    ) -> Option<Vec<u8>> {
        t.pages.remove(&key);
        self.drop_replicas_locked(t, key);
        for (pmap, vpn) in std::mem::take(&mut t.info[frame]).mappings {
            if let Some(p) = pmap.upgrade() {
                p.remove(vpn);
            }
        }
        let fr = &self.frames[frame];
        (fr.dirty.swap(false, Ordering::AcqRel) && write_back).then(|| {
            let since_ns = self.machine.clock.now_ns();
            let node = fr.home;
            t.pending.insert(key, PendingFill { since_ns, node });
            fr.data.read().to_vec()
        })
    }

    /// Attempts to evict one page; returns whether a frame was freed.
    fn reclaim_one(&self) -> bool {
        // Phase 1: pick and reserve a victim under the queues lock alone.
        let victim = {
            let mut q = self.queues.lock();
            // Keep the inactive queue primed (second chance on the
            // reference bits).
            self.second_chance(&mut q, 4);
            let mut found = None;
            for _ in 0..q.len(PageQueue::Inactive) {
                let Some(f) = q.pop_front(PageQueue::Inactive) else {
                    break;
                };
                let fr = &self.frames[f];
                if fr.wired.load(Ordering::Acquire) {
                    q.push_back(PageQueue::Inactive, f);
                } else if fr.referenced.load(Ordering::Acquire) {
                    // Used since deactivation: give it another chance.
                    self.activate(&mut q, f);
                } else if !fr.reserve() {
                    // Mid-fill or mid-flush elsewhere; leave it queued.
                    q.push_back(PageQueue::Inactive, f);
                } else {
                    found = Some(f);
                    break;
                }
            }
            found
        };
        let Some(frame) = victim else {
            return false;
        };
        // Phase 2: one hold of the table removes the page. The
        // reservation keeps everyone else away from the frame, and a
        // queued frame always caches a page — though maybe not the one it
        // cached when it was queued (shadow-chain collapse rekeys).
        let fr = &self.frames[frame];
        let mut t = self.resident.write();
        let (owner, id, offset) = t.info[frame]
            .owner
            .clone()
            .expect("invariant: a frame on a pageout queue caches a page");
        if fr.pins.load(Ordering::Acquire) != 0 {
            // A fault holds the page pinned while it copies from it;
            // give the frame back to the queue.
            drop(t);
            self.queues.lock().push_back(PageQueue::Inactive, frame);
            fr.release();
            return false;
        }
        let owner = owner.upgrade();
        let data = self.evict_locked(&mut t, (id, offset), frame, owner.is_some());
        drop(t);
        self.release_frames([frame]);
        // Phase 3: pageout I/O outside every lock, batching contiguous
        // dirty neighbors of the same object into one `pager_data_write`
        // when the pager accepts clusters.
        let (Some(object), Some(data)) = (owner, data) else {
            // Clean drop: nothing travels to the pager, so nothing was
            // marked in transit and no table hold is needed — but a fault
            // parked for an *unlock* of this page must re-probe.
            self.engine.on_range_event(id, [offset]);
            return true;
        };
        let ps = self.page_size as u64;
        // Batching is both a backend capability and a per-object
        // attribute: a coherence pager that asked for single-page
        // clustering must also see single-page writebacks.
        let cluster_ok = object
            .pager()
            .map(|p| p.supports_cluster())
            .unwrap_or(false)
            && object.cluster_hint() != 1;
        if !cluster_ok {
            self.pageout_data(&object, offset, data);
            self.cancel_fill_run(id, offset, 1);
            return true;
        }
        let mut chunks = VecDeque::from([data]);
        let mut start = offset;
        while chunks.len() < PAGEOUT_BATCH_PAGES && start >= ps {
            let Some(d) = self.try_evict_for_pageout(&object, start - ps) else {
                break;
            };
            chunks.push_front(d);
            start -= ps;
        }
        while chunks.len() < PAGEOUT_BATCH_PAGES {
            let next = start + chunks.len() as u64 * ps;
            let Some(d) = self.try_evict_for_pageout(&object, next) else {
                break;
            };
            chunks.push_back(d);
        }
        let pages = chunks.len();
        self.pageout_data(&object, start, Vec::from(chunks).concat());
        self.cancel_fill_run(id, start, pages);
        true
    }

    /// Tries to evict `(object, offset)` right now so its data can join a
    /// batched pageout. Only succeeds for an idle, unwired, unreferenced
    /// dirty resident page; returns the page contents on success, with
    /// the page marked in transit (see `evict_locked`; the caller clears
    /// the marker once the batched write is sent).
    fn try_evict_for_pageout(&self, object: &Arc<VmObject>, offset: u64) -> Option<Vec<u8>> {
        let key = (object.id(), offset);
        let mut t = self.resident.write();
        let frame = *t.pages.get(&key)?;
        let fr = &self.frames[frame];
        if !fr.reserve() {
            return None;
        }
        if fr.pins.load(Ordering::Acquire) != 0
            || fr.wired.load(Ordering::Acquire)
            || fr.referenced.load(Ordering::Acquire)
            || !fr.dirty.load(Ordering::Acquire)
        {
            fr.release();
            return None;
        }
        let data = self.evict_locked(&mut t, key, frame, true);
        drop(t);
        self.release_frames([frame]);
        data
    }

    /// Sends dirty page data to the object's pager (or the default pager,
    /// adopting the object first, per `pager_create`). `data` may span
    /// several contiguous pages (batched pageout).
    fn pageout_data(&self, object: &Arc<VmObject>, offset: u64, data: Vec<u8>) {
        let pages = (data.len() / self.page_size).max(1) as u64;
        self.machine.hot.vm_pageouts.add(pages);
        let pager = match object.pager() {
            Some(p) => p,
            None => {
                // A kernel-created object touched by pageout for the first
                // time: hand it to the default pager (pager_create).
                match self.default_pager() {
                    Some(p) => {
                        object.set_pager(p.clone());
                        if let Some(hook) = self.adoption_hook.read().as_ref() {
                            hook(object);
                        }
                        p
                    }
                    // No default pager registered (unit tests): the data is
                    // dropped, which models a diskless machine.
                    None => return,
                }
            }
        };
        pager.data_write(object.id(), offset, OolBuffer::from_vec(data));
    }

    // ----- page installation -----

    /// Installs `frame` as the page `(object, offset)` and, if a fault may
    /// be parked on the page, reports the page event.
    fn install(
        &self,
        object: &Arc<VmObject>,
        offset: u64,
        frame: usize,
        lock: VmProt,
        dirty: bool,
    ) -> Result<usize, VmError> {
        let mut awaited = false;
        let mut t = self.resident.write();
        let linked = self.link_locked(&mut t, object, (offset, frame), lock, dirty, &mut awaited);
        drop(t);
        self.settle([(frame, linked == Ok(frame))]);
        if awaited {
            self.engine.on_range_event(object.id(), [offset]);
        }
        linked
    }

    /// Enters every filled `(offset, frame)` of `filled` into the table as
    /// a clean page of `object`, under one hold of the table and then one
    /// of the queues; drains `filled` and returns how many of its pages
    /// now cache what was filled (see `link_locked`). The caller reports
    /// the page event.
    fn link(
        &self,
        object: &Arc<VmObject>,
        filled: &mut Vec<(u64, usize)>,
        lock: VmProt,
        awaited: &mut bool,
    ) -> usize {
        if filled.is_empty() {
            return 0;
        }
        let outcomes: Vec<(usize, bool)> = {
            let mut t = self.resident.write();
            let mut link = |page: (u64, usize)| {
                let linked = self.link_locked(&mut t, object, page, lock, false, awaited);
                (page.1, linked == Ok(page.1))
            };
            filled.drain(..).map(&mut link).collect()
        };
        let installed = outcomes.iter().filter(|&&(_, linked)| linked).count();
        self.settle(outcomes);
        installed
    }

    /// Ends an install under one hold of the queues: a frame that was
    /// linked joins the active queue and gives up its allocation
    /// reservation — only now that it is fully linked; flush and reclaim
    /// skip busy frames, so there is no window in which a half-installed
    /// page can be freed — and one that was not is freed.
    fn settle(&self, frames: impl IntoIterator<Item = (usize, bool)>) {
        let mut q = self.queues.lock();
        for (frame, linked) in frames {
            if linked {
                self.activate(&mut q, frame);
                self.frames[frame].release();
            } else {
                self.free_frame_locked(&mut q, frame);
                self.free_event.notify_all();
            }
        }
    }

    /// Enters `frame` into the resident table as the page `(object,
    /// offset)`, without reporting the page event: the caller does, once
    /// for everything it installs, if any of it was `awaited` — set when
    /// the install resolves a pending fill, the only state of a page a
    /// fault parks on, so an install that finds none (every zero fill and
    /// copy-on-write copy) has nobody to wake. Returns the frame now
    /// caching the page: not `frame` if something is already resident
    /// (racing installs, or a cluster fill overlapping a page that
    /// arrived by another route). A terminated object gets nothing,
    /// decided under the table hold `release_object` takes after the
    /// object is marked — so either this sees the mark, or the release
    /// sees the page. The caller `settle`s the frame either way.
    fn link_locked(
        &self,
        t: &mut ResidentTable,
        object: &Arc<VmObject>,
        (offset, frame): (u64, usize),
        lock: VmProt,
        dirty: bool,
        awaited: &mut bool,
    ) -> Result<usize, VmError> {
        let key = (object.id(), offset);
        let pending = t.pending.remove(&key);
        *awaited |= pending.is_some();
        if object.is_terminated() {
            return Err(VmError::ObjectDestroyed);
        }
        if let Some(pf) = pending {
            // This install resolves a pager fill claimed by `begin_fill`.
            self.machine.latency.record(
                trace_keys::REQUEST_TO_FILL,
                self.machine.clock.now_ns().saturating_sub(pf.since_ns),
            );
        }
        if let Some(&existing) = t.pages.get(&key) {
            return Ok(existing);
        }
        t.pages.insert(key, frame);
        t.info[frame] = PageInfo {
            owner: Some((Arc::downgrade(object), key.0, key.1)),
            lock,
            mappings: Vec::new(),
        };
        self.frames[frame].dirty.store(dirty, Ordering::Release);
        Ok(frame)
    }

    /// `pager_data_provided`: installs data supplied by a data manager.
    ///
    /// The data must be an integral number of pages; trailing partial pages
    /// are discarded, as the paper specifies ("The Mach kernel can only
    /// handle integral multiples of the system page size in any one call
    /// and partial pages are discarded"). The offset may be unaligned —
    /// consistency is then only guaranteed among mappings with the same
    /// alignment, exactly as in Mach. Multi-page data (a cluster fill)
    /// is entered into the table together and reports one page event for
    /// the whole buffer; pages that are already resident keep their
    /// current contents and cost nothing. Returns the pages installed.
    ///
    /// A page the manager gave away changes hands by a table update, as
    /// every other out-of-line page does: when `data` is the only handle
    /// on its pages (sent deallocate-on-send) and frame placement is
    /// invisible to the clock, each page is *stolen* for `map_page_ns`.
    /// Otherwise it is copied — a manager that kept a handle still owns
    /// the page, and on an asymmetric machine the copy into a frame on
    /// the requester's node is the first-touch placement. The host-side
    /// memcpy below stands in for the frame exchange either way.
    pub fn supply_page(
        &self,
        object: &Arc<VmObject>,
        offset: u64,
        data: OolBuffer,
        lock: VmProt,
    ) -> Result<usize, VmError> {
        let whole_pages = data.len() / self.page_size;
        if !data.len().is_multiple_of(self.page_size) {
            self.machine
                .stats
                .incr(stat_keys::VM_PARTIAL_SUPPLIES_DISCARDED);
        }
        if whole_pages == 0 {
            return Err(VmError::BadAlignment);
        }
        self.machine
            .trace_event("vm.supply", machsim::EventKind::DataProvided);
        let steal = data.is_exclusive() && !self.machine.cost.topology.is_asymmetric();
        let bytes = data.as_slice();
        self.fill_range(object, offset, whole_pages, lock, |i, frame| {
            let page = &bytes[i * self.page_size..(i + 1) * self.page_size];
            self.frames[frame].data.write().copy_from_slice(page);
            if steal {
                self.machine.clock.charge(self.machine.cost.map_page_ns);
                self.machine.hot.vm_pages_stolen.incr();
            } else {
                self.machine
                    .clock
                    .charge(self.machine.cost.copy_cost_ns(self.page_size as u64));
                self.machine.hot.bytes_copied.add(self.page_size as u64);
            }
        })
    }

    /// `pager_data_unavailable`: the manager has no data for the pages of
    /// `[offset, offset + length)`; zero-fill them, with one page event
    /// for the range as in `supply_page`. Returns the pages zero-filled.
    ///
    /// A page that became resident in the meantime (a cluster request
    /// partially satisfied by other routes) keeps its resident copy, so
    /// only the truly missing pages are zero-filled.
    pub fn data_unavailable(
        &self,
        object: &Arc<VmObject>,
        offset: u64,
        length: u64,
    ) -> Result<usize, VmError> {
        let pages = length.div_ceil(self.page_size as u64).max(1) as usize;
        self.fill_range(object, offset, pages, VmProt::NONE, |_, frame| {
            self.frames[frame].data.write().fill(0);
            self.machine.hot.vm_zero_fills.incr();
        })
    }

    /// Installs a zero-filled page for an untouched temporary object.
    pub fn zero_fill(&self, object: &Arc<VmObject>, offset: u64) -> Result<usize, VmError> {
        let frame = self.allocate_frame(false)?;
        self.frames[frame].data.write().fill(0);
        self.machine.hot.vm_zero_fills.incr();
        self.install(object, offset, frame, VmProt::NONE, false)
    }

    /// Copies `src_frame` into a fresh page of `(dst_object, dst_offset)` —
    /// the deferred physical copy of copy-on-write.
    pub fn copy_page(
        &self,
        src_frame: usize,
        dst_object: &Arc<VmObject>,
        dst_offset: u64,
    ) -> Result<usize, VmError> {
        let frame = self.allocate_frame(false)?;
        {
            let src = self.frames[src_frame].data.read();
            let mut dst = self.frames[frame].data.write();
            dst.copy_from_slice(&src);
        }
        self.machine
            .clock
            .charge(self.machine.cost.copy_cost_ns(self.page_size as u64));
        self.machine.hot.vm_cow_copies.incr();
        self.machine.hot.bytes_copied.add(self.page_size as u64);
        // The copy exists precisely because someone is about to write it.
        self.install(dst_object, dst_offset, frame, VmProt::NONE, true)
    }

    // ----- frame data access -----

    /// Runs `f` over the frame's bytes (read-only).
    pub fn with_frame<R>(&self, frame: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.frames[frame].data.read())
    }

    /// Pins the frame caching `(object, offset)` against reclaim and
    /// returns it, or `None` if the page is not resident (reclaimed, or
    /// never filled). The count is raised under a hold of the table, and
    /// reclaim and flush decide under a write hold of it, so a successful
    /// pin guarantees the frame keeps this page's identity — and
    /// contents — until [`unpin`](Self::unpin): what a copy-on-write
    /// fault needs while it copies the page with no lock on it at all.
    pub fn pin_resident(&self, object: ObjectId, offset: u64) -> Option<usize> {
        let t = self.resident.read();
        let &frame = t.pages.get(&(object, offset))?;
        self.frames[frame].pins.fetch_add(1, Ordering::AcqRel);
        self.frames[frame].referenced.store(true, Ordering::Release);
        Some(frame)
    }

    /// Releases a [`pin_resident`](Self::pin_resident) pin.
    pub fn unpin(&self, frame: usize) {
        self.frames[frame].pins.fetch_sub(1, Ordering::AcqRel);
    }

    /// The mapping tail of a fault: for each page it resolved — `(object,
    /// offset, vpn, prot)` — enters the page's frame into `pmap` at `vpn`
    /// and records the reverse mapping for later shootdown, all under one
    /// write hold of the table. A resolved fault holds only bare frame
    /// indices, and the instant it resolved a page can be reclaimed and
    /// its frame recycled for a *different* page; so each page is found
    /// again by key, under the hold eviction removes a page and shoots
    /// its mappings down under: either the eviction sees this mapping, or
    /// this sees the page gone and skips it (the caller re-faults, or
    /// leaves the page to its first touch). `modified` re-marks the frame
    /// now caching a page (it may have moved since a write fault marked
    /// it). Returns the frame the last page was mapped to, if it was.
    pub fn enter_mappings(
        &self,
        pmap: &Arc<Pmap>,
        modified: bool,
        pages: impl IntoIterator<Item = (ObjectId, u64, u64, VmProt)>,
    ) -> Option<usize> {
        let mut t = self.resident.write();
        let here = Arc::as_ptr(pmap);
        let mut last = None;
        for (object, offset, vpn, prot) in pages {
            last = t.pages.get(&(object, offset)).copied();
            let Some(frame) = last else {
                continue;
            };
            let fr = &self.frames[frame];
            fr.referenced.store(true, Ordering::Release);
            if modified {
                fr.dirty.store(true, Ordering::Release);
            }
            pmap.enter(vpn, frame, prot);
            // One record per mapping, and none for an address space that
            // is gone: a page that stays resident is faulted on again and
            // again, and must not grow a record each time.
            let mappings = &mut t.info[frame].mappings;
            mappings.retain(|(p, v)| p.strong_count() > 0 && (*v != vpn || p.as_ptr() != here));
            mappings.push((Arc::downgrade(pmap), vpn));
        }
        last
    }

    /// Like [`with_frame`], but only while `valid()` still holds, checked
    /// under the frame's data lock. A raw frame index is not protected
    /// against reclaim: between resolving it and copying, the frame can be
    /// evicted and recycled for a different page. Reclaim tears down the
    /// page's visibility (pmap entry, resident-table entry) before the
    /// frame can be reused, and reuse must take the data lock to replace
    /// the contents — so a check that still sees the page mapped here
    /// vouches for the bytes. Returns `None` if the check fails; the
    /// caller must re-fault.
    pub fn with_frame_if<R>(
        &self,
        frame: usize,
        valid: impl FnOnce() -> bool,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let d = self.frames[frame].data.read();
        valid().then(|| f(&d))
    }

    /// Mutable counterpart of [`with_frame_if`]; marks the frame modified.
    pub fn with_frame_mut_if<R>(
        &self,
        frame: usize,
        valid: impl FnOnce() -> bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Option<R> {
        let mut d = self.frames[frame].data.write();
        if !valid() {
            return None;
        }
        let r = f(&mut d);
        self.frames[frame].dirty.store(true, Ordering::Release);
        Some(r)
    }

    // ----- NUMA placement policies (the replica rule: module docs) -----

    /// Frees every replica of `key`, without counting a shootdown (used
    /// by eviction/invalidation paths, where the primary dies too).
    fn drop_replicas_locked(&self, t: &mut ResidentTable, key: PageKey) {
        if let Some(reps) = t.replicas.remove(&key) {
            self.release_frames(reps.into_iter().map(|(_, frame)| frame));
        }
    }

    /// Write shootdown: invalidates `key`'s replicas because the primary
    /// is about to be written. Counted and traced.
    fn shoot_down_locked(&self, t: &mut ResidentTable, key: PageKey) {
        let count = t.replicas.get(&key).map_or(0, Vec::len);
        if !protocol::write_requires_shootdown(count) {
            return;
        }
        self.drop_replicas_locked(t, key);
        self.machine
            .stats
            .add(stat_keys::NUMA_SHOOTDOWNS, count as u64);
        self.machine
            .trace_event("vm.numa", machsim::EventKind::Mark("shootdown"));
    }

    /// Copies the primary into a fresh frame on `node` and enters it in
    /// the replica sets. Caller holds the table for writing and has
    /// validated that `frame` is the resident primary for `key`.
    fn replicate_locked(&self, t: &mut ResidentTable, key: PageKey, frame: usize, node: usize) {
        let has_one = |reps: &Vec<(usize, usize)>| reps.iter().any(|&(n, _)| n == node);
        if t.replicas.get(&key).is_some_and(has_one) {
            return;
        }
        // Non-blocking, never steals, never dips into the reserve: a
        // replica is worth having only when memory is easy.
        let Some(rf) = self.take_free(node, false, false) else {
            return;
        };
        {
            let src = self.frames[frame].data.read();
            let mut dst = self.frames[rf].data.write();
            dst.copy_from_slice(&src);
        }
        self.machine
            .clock
            .charge(self.machine.cost.copy_cost_ns(self.page_size as u64));
        self.machine.hot.bytes_copied.add(self.page_size as u64);
        // The frame keeps its busy reservation for life (module docs); it
        // joins no queue and gets no page info.
        t.replicas.entry(key).or_default().push((node, rf));
        self.machine.stats.incr(stat_keys::NUMA_REPLICATIONS);
        self.machine
            .trace_event("vm.numa", machsim::EventKind::Mark("replicate"));
    }

    /// `node` as an index of this memory's nodes, and what `frame` is to a
    /// CPU there (always local on a one-node machine).
    fn locality(&self, frame: usize, node: usize) -> (usize, MemoryKind) {
        let node = node % self.nodes();
        match node == self.frames[frame].home {
            true => (node, MemoryKind::Local),
            false => (node, MemoryKind::Remote),
        }
    }

    /// Reads the page cached in `frame` from a CPU on `node`, serving the
    /// read from a node-local replica when one exists and growing one
    /// when the page turns read-hot. Returns the closure result and the
    /// memory kind actually touched (what the clock should charge), or
    /// `None` if `valid()` failed and the caller must re-fault.
    pub fn numa_read_if<R>(
        &self,
        frame: usize,
        node: usize,
        valid: impl FnOnce() -> bool,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<(R, MemoryKind)> {
        let (node, kind) = self.locality(frame, node);
        if !self.asymmetric || kind == MemoryKind::Local || !self.numa.replication {
            return self.with_frame_if(frame, valid, f).map(|r| (r, kind));
        }
        // Remote read with replication armed: look for a node-local
        // replica. The shared hold pins the primary's identity and the
        // replica sets for the duration of the read.
        let t = self.resident.read();
        let Some(key) = t.key_of(frame) else {
            drop(t);
            return self.with_frame_if(frame, valid, f).map(|r| (r, kind));
        };
        let replica = t
            .replicas
            .get(&key)
            .and_then(|reps| reps.iter().find(|&&(n, _)| n == node))
            .map(|&(_, rf)| rf);
        if let Some(rf) = replica.filter(|_| protocol::replica_serves_read(true)) {
            // Local replica hit. `valid` is still consulted: the pmap
            // entry could have been shot down by a concurrent lock_range.
            let d = self.frames[rf].data.read();
            let r = valid().then(|| f(&d))?;
            self.frames[frame].referenced.store(true, Ordering::Release);
            return Some((r, MemoryKind::Local));
        }
        let hits = self.frames[frame].node_stats[node]
            .reads
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        let r = {
            let d = self.frames[frame].data.read();
            valid().then(|| f(&d))?
        };
        drop(t);
        if hits >= self.numa.hot_threshold {
            // Growing a replica changes the table: take it for writing,
            // and look again — the page may have gone meanwhile.
            let mut t = self.resident.write();
            if t.pages.get(&key) == Some(&frame) {
                self.replicate_locked(&mut t, key, frame, node);
            }
        }
        Some((r, MemoryKind::Remote))
    }

    /// Writes the page cached in `frame` from a CPU on `node`, shooting
    /// down any replicas first (under the same write hold of the table as
    /// the write, so no stale replica survives) and migrating the page
    /// when it proves write-hot from a remote node. Returns the closure
    /// result and the memory kind touched, or `None` if `valid()` failed.
    pub fn numa_write_if<R>(
        &self,
        frame: usize,
        node: usize,
        valid: impl FnOnce() -> bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Option<(R, MemoryKind)> {
        let (node, kind) = self.locality(frame, node);
        if !self.asymmetric {
            return self.with_frame_mut_if(frame, valid, f).map(|r| (r, kind));
        }
        self.frames[frame].node_stats[node]
            .writes
            .fetch_add(1, Ordering::Relaxed);
        let r = if self.numa.replication {
            let mut t = self.resident.write();
            if let Some(key) = t.key_of(frame) {
                self.shoot_down_locked(&mut t, key);
            }
            // Write while still holding the table: a racing reader
            // serializes either before the shootdown (and reads the old
            // replica+old data) or after the write (no replica, new data).
            self.with_frame_mut_if(frame, valid, f)?
        } else {
            self.with_frame_mut_if(frame, valid, f)?
        };
        if kind == MemoryKind::Remote && self.numa.migration {
            self.maybe_migrate(frame, node);
        }
        Some((r, kind))
    }

    /// Moves the page in `frame` to `node` when that node's writes
    /// dominate: allocate on the target, copy, transplant the resident
    /// entry and page info, and invalidate every hardware mapping so
    /// accessors re-fault onto the new frame.
    fn maybe_migrate(&self, frame: usize, node: usize) {
        let fr = &self.frames[frame];
        let here = fr.node_stats[node].writes.load(Ordering::Relaxed);
        if here < self.numa.hot_threshold
            || here <= fr.node_stats[fr.home].writes.load(Ordering::Relaxed)
            || fr.wired.load(Ordering::Acquire)
        {
            return;
        }
        let Some(nf) = self.take_free(node, false, false) else {
            return;
        };
        let mut t = self.resident.write();
        let movable = t.key_of(frame).filter(|_| {
            fr.pins.load(Ordering::Acquire) == 0
                && !fr.wired.load(Ordering::Acquire)
                && fr.reserve()
        });
        let Some(key) = movable else {
            // Raced with eviction, a pin, or a concurrent reservation;
            // placement is advisory, so just give the new frame back.
            drop(t);
            self.release_frames([nf]);
            return;
        };
        // We hold the table and the old frame's busy reservation: no
        // fault, reclaim or flush can touch the page now. In-flight
        // readers hold the old frame's data read lock; taking the write
        // lock below waits them out (the with_frame_if argument).
        self.shoot_down_locked(&mut t, key);
        {
            let src = fr.data.write();
            let mut dst = self.frames[nf].data.write();
            dst.copy_from_slice(&src);
        }
        self.machine
            .clock
            .charge(self.machine.cost.copy_cost_ns(self.page_size as u64));
        self.machine.hot.bytes_copied.add(self.page_size as u64);
        let mut info = std::mem::take(&mut t.info[frame]);
        for (pmap, vpn) in info.mappings.drain(..) {
            if let Some(p) = pmap.upgrade() {
                p.remove(vpn);
            }
        }
        t.info[nf] = info;
        self.frames[nf]
            .dirty
            .store(fr.dirty.swap(false, Ordering::AcqRel), Ordering::Release);
        t.pages.insert(key, nf);
        self.activate(&mut self.queues.lock(), nf);
        self.frames[nf].release();
        // Fresh hot-page evidence on the new home (hysteresis).
        self.frames[nf].reset_node_stats();
        drop(t);
        // We hold the old frame's reservation; it is out of the table.
        self.release_frames([frame]);
        self.machine.stats.incr(stat_keys::NUMA_MIGRATIONS);
        self.machine
            .trace_event("vm.numa", machsim::EventKind::Mark("migrate"));
    }

    /// Per-node slice of the frame census: totals, free-list depth,
    /// primary placements and replica counts for each memory node.
    pub fn node_census(&self) -> Vec<NodeCensus> {
        let nodes = self.numa.nodes.max(1);
        let mut out: Vec<NodeCensus> = (0..nodes)
            .map(|n| NodeCensus {
                node: n as u64,
                ..NodeCensus::default()
            })
            .collect();
        for f in &self.frames {
            out[f.home].total += 1;
        }
        for (n, list) in self.queues.lock().free.iter().enumerate() {
            out[n].free = list.len() as u64;
        }
        let t = self.resident.read();
        for &frame in t.pages.values() {
            out[self.frames[frame].home].resident += 1;
        }
        for &(n, _) in t.replicas.values().flatten() {
            out[n].replicas += 1;
        }
        out
    }

    /// Copies out of the resident page `(object, offset)` starting at byte
    /// `src_off` within the page. Holding the table (shared) across the
    /// copy pins the resident entry — reclaim removes it under a write
    /// hold before freeing the frame — so a page that is resident here
    /// cannot have its frame recycled mid-copy. Returns `false` if the
    /// page is no longer resident (reclaimed since the caller's fault
    /// resolved it); the caller must re-fault.
    pub fn copy_from_resident(
        &self,
        object: ObjectId,
        offset: u64,
        src_off: usize,
        dst: &mut [u8],
    ) -> bool {
        let t = self.resident.read();
        let Some(&frame) = t.pages.get(&(object, offset)) else {
            return false;
        };
        let fr = &self.frames[frame];
        fr.referenced.store(true, Ordering::Release);
        let d = fr.data.read();
        dst.copy_from_slice(&d[src_off..src_off + dst.len()]);
        true
    }

    /// Write-side counterpart of [`copy_from_resident`]; marks the page
    /// modified under the same pin.
    pub fn copy_to_resident(
        &self,
        object: ObjectId,
        offset: u64,
        dst_off: usize,
        src: &[u8],
    ) -> bool {
        let key = (object, offset);
        let (shared, mut exclusive);
        let t: &ResidentTable = if self.asymmetric && self.numa.replication {
            // A kernel write (vm_write / msg deposit) invalidates replicas
            // like any other write, under the same write hold.
            exclusive = self.resident.write();
            self.shoot_down_locked(&mut exclusive, key);
            &exclusive
        } else {
            shared = self.resident.read();
            &shared
        };
        let Some(&frame) = t.pages.get(&key) else {
            return false;
        };
        let fr = &self.frames[frame];
        fr.referenced.store(true, Ordering::Release);
        fr.data.write()[dst_off..dst_off + src.len()].copy_from_slice(src);
        fr.dirty.store(true, Ordering::Release);
        true
    }

    /// Sets the hardware "modified" bit for the frame.
    pub fn set_modified(&self, frame: usize) {
        self.frames[frame].dirty.store(true, Ordering::Release);
    }

    /// Sets the hardware "referenced" bit for the frame.
    pub fn set_referenced(&self, frame: usize) {
        self.frames[frame].referenced.store(true, Ordering::Release);
    }

    /// Wires a frame, excluding it from pageout.
    pub fn wire(&self, frame: usize, wired: bool) {
        self.frames[frame].wired.store(wired, Ordering::Release);
    }

    // ----- data manager cache control (Table 3-6 kernel side) -----

    /// `pager_flush_request`: invalidates cached pages in the range,
    /// writing back modifications first.
    pub fn flush_range(&self, object: &Arc<VmObject>, offset: u64, length: u64) {
        self.cache_control(object, offset, length, CacheControl::Flush)
    }

    /// `pager_clean_request`: writes back modifications but keeps the
    /// cached pages.
    pub fn clean_range(&self, object: &Arc<VmObject>, offset: u64, length: u64) {
        self.cache_control(object, offset, length, CacheControl::Clean)
    }

    /// Releases every cached page of `object`, optionally writing dirty
    /// pages back first (object termination) — and every fill it still
    /// has pending: a reply that arrives later installs nothing
    /// (`link_locked`), so whoever waits for one is woken to find the
    /// object gone.
    pub fn release_object(&self, object: &Arc<VmObject>, write_back: bool) {
        self.cache_control(object, 0, u64::MAX, CacheControl::Release { write_back })
    }

    /// One range query under one hold of the table serves the whole
    /// request, whatever else is resident; the modified pages then travel
    /// with the table unlocked (marked in transit if they were removed, a
    /// second hold clearing the marks once they are sent), and one page
    /// event reports every page that went.
    fn cache_control(&self, object: &Arc<VmObject>, offset: u64, length: u64, op: CacheControl) {
        let ps = self.page_size as u64;
        let id = object.id();
        let first = offset - offset % ps;
        let end = offset.saturating_add(length);
        let invalidate = op != CacheControl::Clean;
        let write_back = op != CacheControl::Release { write_back: false };
        let mut writebacks: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut gone: Vec<u64> = Vec::new();
        let mut freed: Vec<usize> = Vec::new();
        {
            let mut t = self.resident.write();
            if matches!(op, CacheControl::Release { .. }) {
                gone.extend(t.pending.range((id, first)..(id, end)).map(|(k, _)| k.1));
                for &page in &gone {
                    t.pending.remove(&(id, page));
                }
            }
            for (page, frame) in t.span(id, first, end) {
                let fr = &self.frames[frame];
                if !invalidate {
                    if !fr.busy.load(Ordering::Acquire) && fr.dirty.swap(false, Ordering::AcqRel) {
                        writebacks.push((page, fr.data.read().to_vec()));
                    }
                    continue;
                }
                // Freeing requires the busy reservation; frames mid-fill
                // or mid-pageout are skipped, and so are pinned frames (a
                // fault mid-copy).
                if fr.pins.load(Ordering::Acquire) != 0 || !fr.reserve() {
                    continue;
                }
                if let Some(data) = self.evict_locked(&mut t, (id, page), frame, write_back) {
                    writebacks.push((page, data));
                }
                gone.push(page);
                freed.push(frame);
            }
        }
        if !freed.is_empty() {
            self.release_frames(freed);
        }
        let marked = invalidate && !writebacks.is_empty();
        let sent: Vec<u64> = writebacks
            .into_iter()
            .map(|(page, data)| {
                self.pageout_data(object, page, data);
                page
            })
            .collect();
        if marked {
            let mut t = self.resident.write();
            for page in sent {
                t.pending.remove(&(id, page));
            }
        }
        if !gone.is_empty() {
            self.engine.on_range_event(id, gone);
        }
    }

    /// `pager_data_lock`: restricts access to cached data; existing
    /// hardware mappings are downgraded so prohibited accesses fault.
    /// One hold, one page event for every page whose lock changed.
    pub fn lock_range(&self, object: &Arc<VmObject>, offset: u64, length: u64, lock: VmProt) {
        let ps = self.page_size as u64;
        let id = object.id();
        let first = offset - offset % ps;
        let end = offset.saturating_add(length);
        let mut changed: Vec<u64> = Vec::new();
        {
            let mut t = self.resident.write();
            let ResidentTable { pages, info, .. } = &mut *t;
            for (&(_, page), &frame) in pages.range((id, first)..(id, end)) {
                info[frame].lock = lock;
                for (pmap, vpn) in &info[frame].mappings {
                    if let Some(p) = pmap.upgrade() {
                        p.protect(*vpn, !lock);
                    }
                }
                changed.push(page);
            }
        }
        if !changed.is_empty() {
            self.engine.on_range_event(id, changed);
        }
    }

    /// Offsets of all resident pages belonging to `object`, ascending.
    pub fn object_offsets(&self, object: ObjectId) -> Vec<u64> {
        let t = self.resident.read();
        t.pages
            .range((object, 0)..=(object, u64::MAX))
            .map(|(&(_, offset), _)| offset)
            .collect()
    }

    /// Moves the resident pages of `from` that lie in the window `to`
    /// shadows — `[shadow_off, shadow_off + size)`, page `y` becoming
    /// `to`'s page `y - shadow_off` — to `to` without copying, under one
    /// hold: the mechanics of shadow-chain collapse. A page outside the
    /// window, or whose destination `to` already has a page for (it is
    /// shadowed over), is left in place; returns whether any was.
    pub fn rekey_range(
        &self,
        from: ObjectId,
        shadow_off: u64,
        to: &Arc<VmObject>,
        size: u64,
    ) -> bool {
        let mut leftovers = false;
        let mut t = self.resident.write();
        for (y, frame) in t.span(from, 0, u64::MAX) {
            let dst = (to.id(), y.wrapping_sub(shadow_off));
            if y < shadow_off || dst.1 >= size || t.pages.contains_key(&dst) {
                leftovers = true;
                continue;
            }
            t.pages.remove(&(from, y));
            // Replicas are keyed by the old identity; drop them.
            self.drop_replicas_locked(&mut t, (from, y));
            t.pages.insert(dst, frame);
            t.info[frame].owner = Some((Arc::downgrade(to), dst.0, dst.1));
        }
        leftovers
    }

    /// Number of resident pages belonging to `object`.
    pub fn resident_pages_of(&self, object: ObjectId) -> usize {
        let t = self.resident.read();
        t.pages.range((object, 0)..=(object, u64::MAX)).count()
    }

    /// The lock value on a resident page, if resident.
    pub fn page_lock(&self, object: ObjectId, offset: u64) -> Option<VmProt> {
        let t = self.resident.read();
        t.pages.get(&(object, offset)).map(|&f| t.info[f].lock)
    }

    /// Whether the page is dirty, if resident.
    pub fn page_dirty(&self, object: ObjectId, offset: u64) -> Option<bool> {
        let t = self.resident.read();
        t.pages
            .get(&(object, offset))
            .map(|&f| self.frames[f].dirty.load(Ordering::Acquire))
    }

    /// Debugging aid: asserts the structural invariants of the table and
    /// the queues, under both locks (in the canonical order): the table
    /// and the page infos name each other, so no frame is owned by two
    /// keys; resident frames are never marked free and free-queue frames
    /// cache nothing; the pageout queues' links, lengths and membership
    /// agree; replicas never outlive their primary. Panics on violation.
    /// Intended for stress tests; far too heavy for production paths.
    pub fn check_invariants(&self) {
        let t = self.resident.read();
        let q = self.queues.lock();
        for (&key, &frame) in &t.pages {
            assert_eq!(
                t.key_of(frame),
                Some(key),
                "frame {frame} is in the table as {key:?} but records another owner"
            );
            assert!(
                q.membership[frame] != PageQueue::Free,
                "resident frame {frame} is marked free"
            );
        }
        let owned = t.info.iter().filter(|i| i.owner.is_some()).count();
        assert_eq!(
            owned,
            t.pages.len(),
            "a frame records a page the table lacks"
        );
        for (node, list) in q.free.iter().enumerate() {
            for &f in list {
                assert!(
                    t.info[f].owner.is_none(),
                    "free-queue frame {f} still has a resident owner"
                );
                assert_eq!(
                    self.frames[f].home, node,
                    "frame {f} on node {node}'s free list but homed elsewhere"
                );
            }
        }
        for (ring, which) in [PageQueue::Active, PageQueue::Inactive]
            .into_iter()
            .enumerate()
        {
            let head = self.frames.len() + ring;
            let (mut prev, mut len) = (head, 0);
            loop {
                let f = q.links[prev].1;
                assert_eq!(q.links[f].0, prev, "entry {f}'s back link is broken");
                if f == head {
                    break;
                }
                assert_eq!(q.membership[f], which, "frame {f} is on the wrong queue");
                (prev, len) = (f, len + 1);
            }
            assert_eq!(len, q.lens[ring], "{which:?} queue length");
        }
        let mut replica_of: BTreeMap<usize, PageKey> = BTreeMap::new();
        for (&key, reps) in &t.replicas {
            assert!(
                t.pages.contains_key(&key),
                "replicas of {key:?} outlive their primary"
            );
            for &(node, f) in reps {
                let prev = replica_of.insert(f, key);
                assert!(
                    prev.is_none(),
                    "frame {f} is a replica of {prev:?} and {key:?}"
                );
                assert!(
                    t.info[f].owner.is_none(),
                    "replica frame {f} is also a resident primary"
                );
                assert_eq!(
                    self.frames[f].home, node,
                    "replica frame {f} recorded on node {node} but homed elsewhere"
                );
                assert!(
                    self.frames[f].busy.load(Ordering::Acquire),
                    "replica frame {f} lost its lifetime busy reservation"
                );
                assert!(
                    q.membership[f] == PageQueue::None,
                    "replica frame {f} is on a pageout queue"
                );
            }
        }
    }
}

/// What a data manager (or the kernel, at termination) asks of the cache.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CacheControl {
    /// Write modified pages back, keep them cached.
    Clean,
    /// Write modified pages back, then drop the pages.
    Flush,
    /// Drop the pages and the pending fills, writing back first if asked.
    Release { write_back: bool },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::test_support::{filled, RecordingPager};
    use machsim::stats::keys;

    fn phys(frames: usize) -> (Machine, Arc<PhysicalMemory>) {
        let m = Machine::default_machine();
        let p = PhysicalMemory::new(&m, frames * 4096, 4096, 2);
        (m, p)
    }

    #[test]
    fn supply_then_lookup() {
        let (_m, phys) = phys(8);
        let obj = VmObject::new_temporary(8192);
        phys.supply_page(&obj, 0, filled(7u8, 4096), VmProt::NONE)
            .unwrap();
        match phys.lookup(obj.id(), 0) {
            PageLookup::Resident { frame, lock } => {
                assert_eq!(lock, VmProt::NONE);
                phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == 7)));
            }
            other => panic!("expected resident, got {other:?}"),
        }
    }

    #[test]
    fn resupplying_a_resident_page_costs_nothing() -> Result<(), VmError> {
        let (m, phys) = phys(8);
        let obj = VmObject::new_temporary(2 * 4096);
        phys.supply_page(&obj, 0, filled(7u8, 4096), VmProt::NONE)?;
        let events = phys.fault_engine().page_events();
        let (free, now) = (phys.free_frames(), m.clock.now_ns());
        // No frame taken (and nothing evicted to get one), no charge, no
        // page event; the resident copy keeps its contents.
        let n = phys.supply_page(&obj, 0, filled(9u8, 4096), VmProt::NONE)?;
        assert_eq!(n, 0);
        assert_eq!((phys.free_frames(), m.clock.now_ns()), (free, now));
        assert_eq!(phys.fault_engine().page_events(), events);
        match phys.lookup(obj.id(), 0) {
            PageLookup::Resident { frame, .. } => {
                phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == 7)))
            }
            other => panic!("expected resident, got {other:?}"),
        }
        // A cluster overlapping it pays for the missing page only (which
        // a fault asked for: that one is reported).
        assert!(phys.begin_fill(obj.id(), 4096));
        let n = phys.supply_page(&obj, 0, filled(9u8, 8192), VmProt::NONE)?;
        assert_eq!(n, 1);
        assert_eq!(m.clock.now_ns() - now, m.cost.map_page_ns);
        assert_eq!(phys.fault_engine().page_events(), events + 1);
        Ok(())
    }

    #[test]
    fn supply_steals_what_the_manager_gave_away_and_copies_what_it_kept() -> Result<(), VmError> {
        let (m, phys) = phys(8);
        let obj = VmObject::new_temporary(2 * 4096);
        let given = filled(1u8, 4096);
        let before = m.clock.now_ns();
        phys.supply_page(&obj, 0, given, VmProt::NONE)?;
        assert_eq!(m.clock.now_ns() - before, m.cost.map_page_ns);
        assert_eq!(m.stats.get(keys::VM_PAGES_STOLEN), 1);
        assert_eq!(m.stats.get(keys::BYTES_COPIED), 0);

        let kept = filled(2u8, 4096);
        let before = m.clock.now_ns();
        phys.supply_page(&obj, 4096, kept.clone(), VmProt::NONE)?;
        assert_eq!(m.clock.now_ns() - before, m.cost.copy_cost_ns(4096));
        assert_eq!(m.stats.get(keys::VM_PAGES_STOLEN), 1);
        assert_eq!(m.stats.get(keys::BYTES_COPIED), 4096);
        assert!(kept.as_slice().iter().all(|&b| b == 2));
        Ok(())
    }

    #[test]
    fn multi_page_supply() {
        let (_m, phys) = phys(8);
        let obj = VmObject::new_temporary(3 * 4096);
        let mut data = vec![0u8; 2 * 4096];
        data[4096] = 9;
        let n = phys
            .supply_page(&obj, 4096, OolBuffer::from_vec(data), VmProt::NONE)
            .unwrap();
        assert_eq!(n, 2);
        assert!(matches!(
            phys.lookup(obj.id(), 4096),
            PageLookup::Resident { .. }
        ));
        assert!(matches!(
            phys.lookup(obj.id(), 8192),
            PageLookup::Resident { .. }
        ));
        assert!(matches!(phys.lookup(obj.id(), 0), PageLookup::Absent));
    }

    #[test]
    fn partial_supply_discarded() {
        let (m, phys) = phys(8);
        let obj = VmObject::new_temporary(8192);
        // Misaligned offsets are allowed; the cache is keyed by the byte
        // offset, so consistency holds among same-alignment mappings only.
        phys.supply_page(&obj, 100, filled(0u8, 4096), VmProt::NONE)
            .unwrap();
        assert!(matches!(
            phys.lookup(obj.id(), 100),
            PageLookup::Resident { .. }
        ));
        // Trailing partial page: whole pages kept, remainder discarded.
        let n = phys
            .supply_page(&obj, 0, filled(0u8, 4096 + 100), VmProt::NONE)
            .unwrap();
        assert_eq!(n, 1);
        assert!(m.stats.get(keys::VM_PARTIAL_SUPPLIES_DISCARDED) >= 1);
    }

    #[test]
    fn begin_fill_claims_once() {
        let (_m, phys) = phys(8);
        let obj = VmObject::new_temporary(4096);
        assert!(phys.begin_fill(obj.id(), 0));
        assert!(!phys.begin_fill(obj.id(), 0));
        assert_eq!(phys.lookup(obj.id(), 0), PageLookup::Pending);
        phys.supply_page(&obj, 0, filled(0u8, 4096), VmProt::NONE)
            .unwrap();
        assert!(!phys.begin_fill(obj.id(), 0));
        assert!(matches!(
            phys.lookup(obj.id(), 0),
            PageLookup::Resident { .. }
        ));
    }

    #[test]
    fn eviction_writes_dirty_to_pager() {
        let (m, phys) = phys(6); // 6 frames, 2 reserved.
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(1 << 20, pager.clone());
        // Fill all four unprivileged frames with dirty pages.
        for i in 0..4u64 {
            let f = phys
                .supply_page(&obj, i * 4096, filled(i as u8, 4096), VmProt::NONE)
                .unwrap();
            let _ = f;
            if let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), i * 4096) {
                phys.set_modified(frame);
            }
        }
        // Next unprivileged allocation must evict something dirty.
        let _f = phys.allocate_frame(false).unwrap();
        assert!(m.stats.get(keys::VM_PAGEOUTS) >= 1);
        assert!(!pager.writes.lock().is_empty());
    }

    #[test]
    fn eviction_prefers_lru() {
        let (_m, phys) = phys(6);
        let obj = VmObject::new_temporary(1 << 20);
        for i in 0..4u64 {
            phys.supply_page(&obj, i * 4096, filled(0u8, 4096), VmProt::NONE)
                .unwrap();
        }
        // Touch pages 1..4 so page 0 is the coldest. The reference bits of
        // the touched pages protect them through the second-chance scan.
        for i in 1..4u64 {
            phys.lookup(obj.id(), i * 4096);
        }
        let _ = phys.allocate_frame(false).unwrap();
        assert!(matches!(phys.lookup(obj.id(), 0), PageLookup::Absent));
        assert!(matches!(
            phys.lookup(obj.id(), 4096),
            PageLookup::Resident { .. }
        ));
    }

    #[test]
    fn reserved_pool_protects_privileged_path() {
        let (_m, phys) = phys(4); // 4 frames, 2 reserved, 0 cached.
        let f1 = phys.allocate_frame(false).unwrap();
        let _f2 = phys.allocate_frame(false).unwrap();
        // Only two unreserved frames exist and nothing is reclaimable.
        assert_eq!(phys.allocate_frame(false).unwrap_err(), VmError::NoMemory);
        // The privileged path can still allocate from the reserve.
        let f3 = phys.allocate_frame(true).unwrap();
        assert_ne!(f1, f3);
    }

    #[test]
    fn allocation_under_the_low_watermark_wakes_the_pageout_daemon() -> Result<(), VmError> {
        let (_m, phys) = phys(8);
        // Nothing allocated: the wait runs out its patience.
        assert!(!phys.wait_for_pressure(6, Duration::from_millis(10)));
        let (tx, rx) = std::sync::mpsc::channel();
        let daemon = {
            let phys = phys.clone();
            std::thread::spawn(move || {
                // Far longer than the test: only the allocation ends it.
                let _ = tx.send(phys.wait_for_pressure(6, Duration::from_secs(60)));
            })
        };
        phys.allocate_frame(false)?;
        phys.allocate_frame(false)?;
        // 6 free: not yet under the mark.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        phys.allocate_frame(false)?;
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
        daemon.join().expect("waiter thread");
        Ok(())
    }

    #[test]
    fn temporary_object_adopts_default_pager_on_pageout() {
        let (_m, phys) = phys(6);
        let dp = Arc::new(RecordingPager::default());
        phys.set_default_pager(dp.clone());
        let obj = VmObject::new_temporary(1 << 20);
        for i in 0..4u64 {
            phys.zero_fill(&obj, i * 4096).unwrap();
            if let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), i * 4096) {
                phys.set_modified(frame);
            }
        }
        let _ = phys.allocate_frame(false).unwrap();
        assert!(obj.pager().is_some(), "object adopted the default pager");
        assert!(!dp.writes.lock().is_empty());
    }

    #[test]
    fn flush_range_invalidates_and_writes_back() {
        let (_m, phys) = phys(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(8192, pager.clone());
        phys.supply_page(&obj, 0, filled(3u8, 4096), VmProt::NONE)
            .unwrap();
        if let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 0) {
            phys.with_frame_mut_if(frame, || true, |d| d[0] = 99);
        }
        phys.flush_range(&obj, 0, 4096);
        assert!(matches!(phys.lookup(obj.id(), 0), PageLookup::Absent));
        let w = pager.writes.lock();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].2[0], 99);
    }

    #[test]
    fn clean_range_keeps_page() {
        let (_m, phys) = phys(8);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(4096, pager.clone());
        phys.supply_page(&obj, 0, filled(3u8, 4096), VmProt::NONE)
            .unwrap();
        if let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 0) {
            phys.with_frame_mut_if(frame, || true, |d| d[0] = 42);
        }
        phys.clean_range(&obj, 0, 4096);
        assert!(matches!(
            phys.lookup(obj.id(), 0),
            PageLookup::Resident { .. }
        ));
        assert_eq!(phys.page_dirty(obj.id(), 0), Some(false));
        assert_eq!(pager.writes.lock().len(), 1);
    }

    #[test]
    fn lock_range_sets_lock_and_downgrades_mappings() {
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 8 * 4096, 4096, 2);
        let obj = VmObject::new_temporary(4096);
        phys.supply_page(&obj, 0, filled(0u8, 4096), VmProt::NONE)
            .unwrap();
        let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 0) else {
            panic!("resident");
        };
        let pmap = Arc::new(Pmap::new(&m));
        let mapped = phys.enter_mappings(&pmap, false, [(obj.id(), 0, 10, VmProt::DEFAULT)]);
        assert_eq!(mapped, Some(frame));
        phys.lock_range(&obj, 0, 4096, VmProt::WRITE);
        assert_eq!(phys.page_lock(obj.id(), 0), Some(VmProt::WRITE));
        assert_eq!(pmap.translate(10, VmProt::WRITE), None);
        assert_eq!(pmap.translate(10, VmProt::READ), Some(frame));
        // Unlock wakes waiters and restores nothing automatically (the
        // fault handler re-enters mappings).
        phys.lock_range(&obj, 0, 4096, VmProt::NONE);
        assert_eq!(phys.page_lock(obj.id(), 0), Some(VmProt::NONE));
    }

    #[test]
    fn a_mapping_is_recorded_once_and_not_for_a_dead_address_space() -> Result<(), VmError> {
        let (m, phys) = phys(8);
        let obj = VmObject::new_temporary(4096);
        let frame = phys.zero_fill(&obj, 0)?;
        let records = |phys: &PhysicalMemory| phys.resident.read().info[frame].mappings.len();
        let first = Arc::new(Pmap::new(&m));
        // Faulted on again and again (a fork write-protects it each time),
        // a page that stays resident keeps one record of the mapping.
        for _ in 0..3 {
            phys.enter_mappings(&first, false, [(obj.id(), 0, 10, VmProt::DEFAULT)]);
        }
        phys.enter_mappings(&first, false, [(obj.id(), 0, 11, VmProt::DEFAULT)]);
        assert_eq!(records(&phys), 2);
        drop(first);
        let second = Arc::new(Pmap::new(&m));
        phys.enter_mappings(&second, false, [(obj.id(), 0, 10, VmProt::DEFAULT)]);
        assert_eq!(records(&phys), 1);
        Ok(())
    }

    #[test]
    fn copy_page_charges_cow() {
        let (m, phys) = phys(8);
        let src_obj = VmObject::new_temporary(4096);
        let dst_obj = VmObject::new_temporary(4096);
        phys.supply_page(&src_obj, 0, filled(5u8, 4096), VmProt::NONE)
            .unwrap();
        let PageLookup::Resident { frame: src, .. } = phys.lookup(src_obj.id(), 0) else {
            panic!("resident");
        };
        let dst = phys.copy_page(src, &dst_obj, 0).unwrap();
        phys.with_frame(dst, |d| assert!(d.iter().all(|&b| b == 5)));
        assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);
        assert_eq!(phys.page_dirty(dst_obj.id(), 0), Some(true));
    }

    #[test]
    fn release_object_frees_everything() {
        let (_m, phys) = phys(8);
        let obj = VmObject::new_temporary(16384);
        for i in 0..3u64 {
            phys.zero_fill(&obj, i * 4096).unwrap();
        }
        assert_eq!(phys.resident_pages_of(obj.id()), 3);
        let free_before = phys.free_frames();
        phys.release_object(&obj, false);
        assert_eq!(phys.resident_pages_of(obj.id()), 0);
        assert_eq!(phys.free_frames(), free_before + 3);
    }

    #[test]
    fn wired_pages_survive_reclaim() {
        let (_m, phys) = phys(6);
        let obj = VmObject::new_temporary(1 << 20);
        phys.zero_fill(&obj, 0).unwrap();
        let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 0) else {
            panic!("resident");
        };
        phys.wire(frame, true);
        for i in 1..4u64 {
            phys.zero_fill(&obj, i * 4096).unwrap();
        }
        // Exhaust memory; the wired page must remain.
        let _ = phys.allocate_frame(false);
        assert!(matches!(
            phys.lookup(obj.id(), 0),
            PageLookup::Resident { .. }
        ));
    }

    #[test]
    fn queue_lengths_reflect_state() {
        let (_m, phys) = phys(8);
        let obj = VmObject::new_temporary(16384);
        phys.zero_fill(&obj, 0).unwrap();
        phys.zero_fill(&obj, 4096).unwrap();
        let (active, inactive, free) = phys.queue_lengths();
        assert_eq!(active, 2);
        assert_eq!(inactive, 0);
        assert_eq!(free, 6);
    }

    // ----- run claim semantics -----

    #[test]
    fn run_claim_stops_at_the_first_resident_or_pending_page() {
        let (_m, phys) = phys(16);
        let obj = VmObject::new_temporary(16 * 4096);
        // Page 2 resident, page 5 pending: a run from page 3 stops at page
        // 5, and a run from page 0 stops at page 2.
        phys.supply_page(&obj, 2 * 4096, filled(9u8, 4096), VmProt::NONE)
            .unwrap();
        assert!(phys.begin_fill(obj.id(), 5 * 4096));
        assert_eq!(
            phys.begin_fill_run(obj.id(), 3 * 4096, 8, 16 * 4096),
            Some(2)
        );
        assert_eq!(phys.begin_fill_run(obj.id(), 0, 8, 16 * 4096), Some(2));
        // Supplying the run must not disturb the resident page.
        phys.supply_page(&obj, 3 * 4096, filled(1u8, 2 * 4096), VmProt::NONE)
            .unwrap();
        let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 2 * 4096) else {
            panic!("page 2 must stay resident");
        };
        phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == 9)));
    }

    #[test]
    fn run_claim_clamps_to_object_size() {
        let (_m, phys) = phys(16);
        let obj = VmObject::new_temporary(3 * 4096);
        assert_eq!(phys.begin_fill_run(obj.id(), 0, 8, 3 * 4096), Some(3));
    }

    #[test]
    fn run_claim_is_forward_only_and_window_sized() {
        let (_m, phys) = phys(40);
        let obj = VmObject::new_temporary(32 * 4096);
        // Mid-object, nothing behind the faulting page is claimed and the
        // run is not aligned to anything: [12, 16) for a 4-page window.
        assert_eq!(
            phys.begin_fill_run(obj.id(), 12 * 4096, 4, 32 * 4096),
            Some(4)
        );
        assert_eq!(phys.lookup(obj.id(), 11 * 4096), PageLookup::Absent);
        assert_eq!(phys.lookup(obj.id(), 15 * 4096), PageLookup::Pending);
        assert_eq!(phys.lookup(obj.id(), 16 * 4096), PageLookup::Absent);
        // A one-page window claims exactly the faulting page.
        assert_eq!(
            phys.begin_fill_run(obj.id(), 20 * 4096, 1, 32 * 4096),
            Some(1)
        );
        assert_eq!(phys.lookup(obj.id(), 21 * 4096), PageLookup::Absent);
    }

    #[test]
    fn run_claim_none_when_page_taken() {
        let (_m, phys) = phys(16);
        let obj = VmObject::new_temporary(16 * 4096);
        assert!(phys.begin_fill(obj.id(), 0));
        assert!(phys.begin_fill_run(obj.id(), 0, 8, 16 * 4096).is_none());
    }

    #[test]
    fn partial_cluster_unavailable_zero_fills_only_missing() {
        let (_m, phys) = phys(16);
        let obj = VmObject::new_temporary(4 * 4096);
        phys.supply_page(&obj, 4096, filled(7u8, 4096), VmProt::NONE)
            .unwrap();
        // pager_data_unavailable for a whole cluster: the page that is
        // already resident keeps its data and only the truly missing
        // pages zero-fill — under one page event.
        assert_eq!(phys.begin_fill_run(obj.id(), 0, 4, 4 * 4096), Some(1));
        let events = phys.fault_engine().page_events();
        assert_eq!(phys.data_unavailable(&obj, 0, 4 * 4096), Ok(3));
        assert_eq!(phys.fault_engine().page_events(), events + 1);
        let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), 4096) else {
            panic!("page 1 must stay resident");
        };
        phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == 7)));
        for page in [0u64, 2, 3] {
            let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), page * 4096) else {
                panic!("page {page} must be zero-filled");
            };
            phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == 0)));
        }
    }

    #[test]
    fn pageout_batches_contiguous_dirty_pages() {
        let (m, phys) = phys(6); // 4 unprivileged frames.
        let pager = Arc::new(RecordingPager {
            cluster: true,
            ..Default::default()
        });
        let obj = VmObject::new_with_pager(1 << 20, pager.clone());
        for i in 0..4u64 {
            phys.supply_page(&obj, i * 4096, filled(i as u8, 4096), VmProt::NONE)
                .unwrap();
            if let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), i * 4096) {
                phys.set_modified(frame);
            }
        }
        // The first pass only clears reference bits (second chance); the
        // next evicts the coldest page and folds its contiguous dirty
        // neighbors into one multi-page write.
        phys.reclaim_pages(1);
        phys.reclaim_pages(1);
        let w = pager.writes.lock();
        assert_eq!(w.len(), 1, "one batched write, not one per page");
        assert_eq!(w[0].1, 0);
        assert_eq!(w[0].2.len(), 4 * 4096);
        for i in 0..4usize {
            assert!(w[0].2[i * 4096..(i + 1) * 4096]
                .iter()
                .all(|&b| b == i as u8));
        }
        assert_eq!(m.stats.get(keys::VM_PAGEOUTS), 4);
    }

    // ----- concurrency stress -----

    fn page_tag(object: ObjectId, offset: u64) -> u8 {
        (object.0 as u8) ^ ((offset / 4096) as u8) | 1
    }

    #[test]
    fn concurrent_fault_evict_stress() {
        // 8 threads fault and evict over a physical memory far smaller
        // than the working set, so installs, reclaims and flushes race
        // constantly. The structural invariants (no frame owned by two
        // keys, busy frames never reclaimed) must hold throughout; frame
        // contents must always match the owning key at the end.
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 24 * 4096, 4096, 2);
        let objects: Vec<Arc<VmObject>> =
            (0..4).map(|_| VmObject::new_temporary(32 * 4096)).collect();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let phys = phys.clone();
                let objects = objects.clone();
                s.spawn(move || {
                    let mut rng = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for i in 0..300u32 {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let obj = &objects[(rng >> 33) as usize % objects.len()];
                        let page = (rng >> 17) % 32;
                        let off = page * 4096;
                        match phys.lookup(obj.id(), off) {
                            PageLookup::Resident { .. } | PageLookup::Pending => {}
                            PageLookup::Absent => {
                                if phys.begin_fill(obj.id(), off) {
                                    let tag = page_tag(obj.id(), off);
                                    let _ = phys.supply_page(
                                        &obj.clone(),
                                        off,
                                        filled(tag, 4096),
                                        VmProt::NONE,
                                    );
                                }
                            }
                        }
                        match i % 7 {
                            0 => {
                                phys.reclaim_pages(2);
                            }
                            3 => {
                                phys.flush_range(obj, off, 4096);
                            }
                            5 => {
                                phys.check_invariants();
                            }
                            _ => {}
                        }
                    }
                });
            }
        });
        phys.check_invariants();
        // Quiesced: every resident page's contents identify its key, so
        // no install ever landed in a frame another page still owned.
        for obj in &objects {
            for off in phys.object_offsets(obj.id()) {
                let PageLookup::Resident { frame, .. } = phys.lookup(obj.id(), off) else {
                    continue;
                };
                let tag = page_tag(obj.id(), off);
                phys.with_frame(frame, |d| {
                    assert!(
                        d.iter().all(|&b| b == tag),
                        "frame {frame} for {:?}/{off} holds foreign data",
                        obj.id()
                    );
                });
            }
        }
    }

    #[test]
    fn rekey_range_moves_the_window_and_leaves_the_rest() -> Result<(), VmError> {
        let (_m, phys) = phys(8);
        let a = VmObject::new_temporary(8 * 4096);
        let b = VmObject::new_temporary(2 * 4096);
        for (page, tag) in [(1u64, 1u8), (2, 2), (3, 3), (4, 4)] {
            phys.supply_page(&a, page * 4096, filled(tag, 4096), VmProt::NONE)?;
        }
        // `b` shadows `a`'s pages 2 and 3, and already has its own page 1
        // (over `a`'s page 3): only `a`'s page 2 moves, to `b`'s page 0.
        phys.supply_page(&b, 4096, filled(9u8, 4096), VmProt::NONE)?;
        assert!(phys.rekey_range(a.id(), 2 * 4096, &b, 2 * 4096));
        assert_eq!(phys.object_offsets(a.id()), [4096, 3 * 4096, 4 * 4096]);
        assert_eq!(phys.object_offsets(b.id()), [0, 4096]);
        for (page, tag) in [(0u64, 2u8), (1, 9)] {
            let PageLookup::Resident { frame, .. } = phys.lookup(b.id(), page * 4096) else {
                panic!("page {page} of the shadow must be resident");
            };
            phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == tag)));
        }
        phys.check_invariants();
        // The moved page is evicted as `b`'s: its frame knows its new key.
        phys.release_object(&b, false);
        assert_eq!(phys.resident_pages_of(b.id()), 0);
        // Nothing left in the window: a second collapse reports leftovers
        // only because pages outside it remain.
        phys.release_object(&a, false);
        assert!(!phys.rekey_range(a.id(), 0, &b, 8 * 4096));
        phys.check_invariants();
        Ok(())
    }

    #[test]
    fn releasing_an_object_scans_no_queue() -> Result<(), VmError> {
        // 2048 resident pages of the object among 2048 of another: taking
        // a frame off the active queue must not walk the queue, so the
        // release links or unlinks each of its frames once.
        let (_m, phys) = phys(4200);
        let obj = VmObject::new_temporary(2048 * 4096);
        let other = VmObject::new_temporary(2048 * 4096);
        for page in 0..2048u64 {
            phys.zero_fill(&other, page * 4096)?;
            phys.zero_fill(&obj, page * 4096)?;
        }
        let before = phys.queues.lock().unlinked;
        phys.release_object(&obj, false);
        assert_eq!(phys.queues.lock().unlinked - before, 2048);
        assert_eq!(phys.queue_lengths(), (2048, 0, 4200 - 2048));
        phys.check_invariants();
        Ok(())
    }

    #[test]
    fn a_clean_eviction_marks_nothing_in_transit_and_reports_its_page() -> Result<(), VmError> {
        let (_m, phys) = phys(6);
        let pager = Arc::new(RecordingPager::default());
        let obj = VmObject::new_with_pager(1 << 20, pager.clone());
        for i in 0..4u64 {
            phys.supply_page(&obj, i * 4096, filled(i as u8, 4096), VmProt::NONE)?;
        }
        let events = phys.fault_engine().page_events();
        // First pass clears reference bits, the second evicts one page.
        phys.reclaim_pages(1);
        assert_eq!(phys.reclaim_pages(1), 1);
        assert_eq!(phys.fault_engine().page_events(), events + 1);
        assert_eq!(phys.frame_census().pending, 0);
        assert!(pager.writes.lock().is_empty());
        phys.check_invariants();
        Ok(())
    }
}
