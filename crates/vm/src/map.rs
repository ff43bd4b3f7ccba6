//! Task address maps (Section 5.1) and the Table 3-3 operations.
//!
//! "A task address map is a directory mapping each of many valid address
//! ranges to a memory object and offset within that memory object. ... Mach
//! address maps are two-level. A task address space consists of one
//! top-level address map; instead of references to memory objects directly,
//! address map entries refer to second-level sharing maps. ... As an
//! optimization, top-level maps may contain direct references to memory
//! object structures if no sharing has taken place."
//!
//! [`VmMap`] implements exactly that: entries back onto either a
//! direct memory object reference, or a [`ShareSlot`]
//! (degenerate sharing map) created when a region is inherited shared. Map
//! entries also carry the per-task attributes — protection, maximum
//! protection, inheritance — while changes to the memory itself go through
//! the shared object, which is what makes `vm_write` into a shared region
//! visible to every sharing task.

use crate::fault::{resolve_page, FaultPolicy, FaultResult};
use crate::object::{ObjectId, VmObject};
use crate::pmap::Pmap;
use crate::resident::{PageLookup, PhysicalMemory};
use crate::types::{round_page, trunc_page, Inheritance, VmError, VmProt};
use machsim::stats::keys;
use machsim::{Machine, MemoryKind};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A second-level sharing map (degenerate single-region form).
///
/// Tasks sharing a region through inheritance all hold the same slot;
/// replacing or shadowing the object inside the slot is visible to all of
/// them, while per-task attributes stay in each task's own map entry.
pub struct ShareSlot {
    object: RwLock<(Arc<VmObject>, u64)>,
}

impl ShareSlot {
    fn new(object: Arc<VmObject>, offset: u64) -> Arc<Self> {
        Arc::new(ShareSlot {
            object: RwLock::new((object, offset)),
        })
    }

    /// Current (object, base offset) of the shared region.
    pub fn get(&self) -> (Arc<VmObject>, u64) {
        self.object.read().clone()
    }
}

/// What an address map entry references.
#[derive(Clone)]
enum Backing {
    /// Direct memory object reference (no sharing has taken place).
    Direct { object: Arc<VmObject>, offset: u64 },
    /// Reference through a sharing map.
    Shared { slot: Arc<ShareSlot>, offset: u64 },
}

impl Backing {
    fn resolve(&self) -> (Arc<VmObject>, u64) {
        match self {
            Backing::Direct { object, offset } => (object.clone(), *offset),
            Backing::Shared { slot, offset } => {
                let (object, base) = slot.get();
                (object, base + offset)
            }
        }
    }

    fn with_offset_shift(&self, delta: u64) -> Backing {
        match self {
            Backing::Direct { object, offset } => Backing::Direct {
                object: object.clone(),
                offset: offset + delta,
            },
            Backing::Shared { slot, offset } => Backing::Shared {
                slot: slot.clone(),
                offset: offset + delta,
            },
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, Backing::Shared { .. })
    }
}

/// One valid address range in a task's map.
struct MapEntry {
    end: u64,
    prot: VmProt,
    max_prot: VmProt,
    inheritance: Inheritance,
    backing: Backing,
    /// The region is a copy-on-write copy: the first write must shadow.
    needs_copy: bool,
}

struct MapInner {
    entries: BTreeMap<u64, MapEntry>,
}

/// Description of one region, as returned by `vm_regions` (Table 3-3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// Start address.
    pub start: u64,
    /// Region size in bytes.
    pub size: u64,
    /// Current protection.
    pub prot: VmProt,
    /// Maximum protection.
    pub max_prot: VmProt,
    /// Inheritance attribute.
    pub inheritance: Inheritance,
    /// Identity of the backing memory object ("pager name" analogue).
    pub object: ObjectId,
    /// Offset of the region within the object.
    pub offset: u64,
    /// Whether the region goes through a sharing map.
    pub shared: bool,
    /// Whether the first write still needs a copy-on-write shadow.
    pub needs_copy: bool,
}

/// Snapshot of VM counters, as returned by `vm_statistics` (Table 3-3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VmStatistics {
    /// System page size in bytes.
    pub pagesize: u64,
    /// Frames on the free queue.
    pub free_count: u64,
    /// Frames on the active queue.
    pub active_count: u64,
    /// Frames on the inactive queue.
    pub inactive_count: u64,
    /// Total page faults handled.
    pub faults: u64,
    /// Faults satisfied from the resident page cache.
    pub cache_hits: u64,
    /// Faults that required a `pager_data_request`.
    pub pageins: u64,
    /// Pages written to a pager by replacement or flush.
    pub pageouts: u64,
    /// Copy-on-write page copies.
    pub cow_faults: u64,
    /// Zero-filled pages created.
    pub zero_fills: u64,
}

/// A task's top-level address map, plus its pmap.
pub struct VmMap {
    machine: Machine,
    phys: Arc<PhysicalMemory>,
    pmap: Arc<Pmap>,
    policy: Mutex<FaultPolicy>,
    inner: Mutex<MapInner>,
    /// Lowest usable address (0 is kept invalid to catch null dereference).
    min_addr: u64,
    /// One past the highest usable address.
    max_addr: u64,
}

impl fmt::Debug for VmMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VmMap({} entries)", self.inner.lock().entries.len())
    }
}

impl VmMap {
    /// Creates an empty address map over the given physical memory.
    ///
    /// The usable address range is `[page_size, 1 << 47)`.
    pub fn new(phys: &Arc<PhysicalMemory>) -> Arc<VmMap> {
        let machine = phys.machine().clone();
        let max_addr = 1 << 47;
        // The pmap's page table covers every page the map can hand out.
        assert!(
            max_addr / phys.page_size() as u64 <= 1 << crate::pmap::VPN_BITS,
            "a {}-byte page needs a wider page table",
            phys.page_size()
        );
        Arc::new(VmMap {
            pmap: Arc::new(Pmap::new(&machine)),
            machine,
            phys: phys.clone(),
            policy: Mutex::new(FaultPolicy::trusting()),
            inner: Mutex::new(MapInner {
                entries: BTreeMap::new(),
            }),
            min_addr: phys.page_size() as u64,
            max_addr,
        })
    }

    /// System page size.
    pub fn page_size(&self) -> u64 {
        self.phys.page_size() as u64
    }

    /// The physical memory this map draws from.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// This task's pmap.
    pub fn pmap(&self) -> &Arc<Pmap> {
        &self.pmap
    }

    /// Sets the owning task's home memory node: the fallback accessing
    /// node for threads that have not pinned themselves with
    /// [`crate::numa::set_current_node`].
    pub fn set_home_node(&self, node: usize) {
        self.pmap.set_home_node(node);
    }

    /// The task's home memory node (see [`VmMap::set_home_node`]).
    pub fn home_node(&self) -> usize {
        self.pmap.home_node()
    }

    /// Sets the fault policy (memory-failure handling, Section 6.2.1).
    pub fn set_fault_policy(&self, policy: FaultPolicy) {
        *self.policy.lock() = policy;
    }

    /// Current fault policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        *self.policy.lock()
    }

    // ----- allocation -----

    fn find_space(inner: &MapInner, min_addr: u64, max_addr: u64, size: u64) -> Option<u64> {
        let mut candidate = min_addr;
        for (start, entry) in inner.entries.iter() {
            if candidate + size <= *start {
                return Some(candidate);
            }
            candidate = candidate.max(entry.end);
        }
        if candidate + size <= max_addr {
            Some(candidate)
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_entry(
        &self,
        address: Option<u64>,
        size: u64,
        backing: Backing,
        prot: VmProt,
        max_prot: VmProt,
        inheritance: Inheritance,
        needs_copy: bool,
    ) -> Result<u64, VmError> {
        let size = round_page(size, self.page_size());
        if size == 0 {
            return Err(VmError::BadAlignment);
        }
        let mut inner = self.inner.lock();
        let start = match address {
            Some(addr) => {
                if addr % self.page_size() != 0 {
                    return Err(VmError::BadAlignment);
                }
                // Reject overlap with existing entries.
                let overlaps = inner
                    .entries
                    .range(..addr + size)
                    .next_back()
                    .is_some_and(|(_, e)| e.end > addr);
                if overlaps || addr < self.min_addr || addr + size > self.max_addr {
                    return Err(VmError::NoSpace);
                }
                addr
            }
            None => Self::find_space(&inner, self.min_addr, self.max_addr, size)
                .ok_or(VmError::NoSpace)?,
        };
        let (object, _) = backing.resolve();
        object.add_map_ref();
        inner.entries.insert(
            start,
            MapEntry {
                end: start + size,
                prot,
                max_prot,
                inheritance,
                backing,
                needs_copy,
            },
        );
        Ok(start)
    }

    /// `vm_allocate`: new zero-filled memory at `address` or anywhere.
    pub fn allocate(&self, address: Option<u64>, size: u64) -> Result<u64, VmError> {
        let object = VmObject::new_temporary(round_page(size, self.page_size()));
        self.insert_entry(
            address,
            size,
            Backing::Direct { object, offset: 0 },
            VmProt::DEFAULT,
            VmProt::ALL,
            Inheritance::Copy,
            false,
        )
    }

    /// `vm_allocate_with_pager`: maps `object` at the given object offset.
    ///
    /// When `copy` is true the mapping is copy-on-write (the semantics a
    /// server uses to hand a client a consistent snapshot, Section 4.1);
    /// otherwise the task has read/write access to the memory object
    /// itself.
    pub fn allocate_with_object(
        &self,
        address: Option<u64>,
        size: u64,
        object: Arc<VmObject>,
        offset: u64,
        copy: bool,
    ) -> Result<u64, VmError> {
        self.insert_entry(
            address,
            size,
            Backing::Direct { object, offset },
            VmProt::DEFAULT,
            VmProt::ALL,
            Inheritance::Copy,
            copy,
        )
    }

    // ----- entry manipulation helpers -----

    /// Splits the entry containing `addr` so that `addr` is an entry start.
    fn clip(inner: &mut MapInner, addr: u64) {
        let Some((&start, entry)) = inner.entries.range_mut(..=addr).next_back() else {
            return;
        };
        if start == addr || entry.end <= addr {
            return;
        }
        let tail = MapEntry {
            end: entry.end,
            prot: entry.prot,
            max_prot: entry.max_prot,
            inheritance: entry.inheritance,
            backing: entry.backing.with_offset_shift(addr - start),
            needs_copy: entry.needs_copy,
        };
        let (object, _) = tail.backing.resolve();
        object.add_map_ref();
        entry.end = addr;
        inner.entries.insert(addr, tail);
    }

    /// Runs `f` over every entry overlapping `[start, end)`, after clipping
    /// so entries nest exactly within the range.
    fn for_range(
        &self,
        start: u64,
        size: u64,
        mut f: impl FnMut(u64, &mut MapEntry),
    ) -> Result<(), VmError> {
        let end = start + round_page(size, self.page_size());
        let start = trunc_page(start, self.page_size());
        let mut inner = self.inner.lock();
        Self::clip(&mut inner, start);
        Self::clip(&mut inner, end);
        let keys: Vec<u64> = inner.entries.range(start..end).map(|(k, _)| *k).collect();
        if keys.is_empty() {
            return Err(VmError::InvalidAddress);
        }
        for k in keys {
            let e = inner.entries.get_mut(&k).expect("key just listed");
            f(k, e);
        }
        Ok(())
    }

    /// Releases one map reference on `object`, terminating it when the last
    /// reference goes away and caching is not permitted (Section 3.4.1).
    fn release_ref(&self, object: &Arc<VmObject>) {
        if object.drop_map_ref() > 0 || object.can_persist() {
            return;
        }
        let pager = object.mark_terminated();
        // "the kernel releases the cached pages for that object for use by
        // other data, cleaning them as necessary". Temporary (anonymous)
        // objects die with their data: nothing to clean.
        self.phys.release_object(object, !object.is_temporary());
        if let Some(p) = pager {
            p.terminate(object.id());
        }
        if let Some((below, _)) = object.shadow() {
            self.release_ref(&below);
        }
    }

    /// `vm_deallocate`: removes `[address, address+size)` from the map.
    pub fn deallocate(&self, address: u64, size: u64) -> Result<(), VmError> {
        let end = address + round_page(size, self.page_size());
        let start = trunc_page(address, self.page_size());
        let removed: Vec<MapEntry> = {
            let mut inner = self.inner.lock();
            Self::clip(&mut inner, start);
            Self::clip(&mut inner, end);
            let keys: Vec<u64> = inner.entries.range(start..end).map(|(k, _)| *k).collect();
            if keys.is_empty() {
                return Err(VmError::InvalidAddress);
            }
            keys.into_iter()
                .map(|k| inner.entries.remove(&k).expect("key just listed"))
                .collect()
        };
        let ps = self.page_size();
        self.pmap.remove_range(start / ps, (end - 1) / ps);
        for entry in removed {
            let (object, _) = entry.backing.resolve();
            self.release_ref(&object);
        }
        Ok(())
    }

    /// `vm_protect`: sets current (and optionally maximum) protection.
    pub fn protect(
        &self,
        address: u64,
        size: u64,
        set_max: bool,
        prot: VmProt,
    ) -> Result<(), VmError> {
        let mut failed = false;
        self.for_range(address, size, |_, e| {
            if set_max {
                e.max_prot = prot;
                e.prot = e.prot & prot;
            } else if e.max_prot.allows(prot) {
                e.prot = prot;
            } else {
                failed = true;
            }
        })?;
        if failed {
            return Err(VmError::ProtectionFailure);
        }
        // Downgrade hardware mappings; upgrades take effect lazily via
        // faults.
        let ps = self.page_size();
        let start = trunc_page(address, ps);
        let end = address + round_page(size, ps);
        self.pmap.protect_range(start / ps, (end - 1) / ps, prot);
        Ok(())
    }

    /// `vm_inherit`: sets how the range is passed to child tasks.
    pub fn inherit(&self, address: u64, size: u64, inh: Inheritance) -> Result<(), VmError> {
        self.for_range(address, size, |_, e| e.inheritance = inh)
    }

    /// `vm_regions`: describes the valid regions of the address space.
    ///
    /// This is what lets a data manager avoid backing its own data
    /// (deadlock avoidance, Section 6.1).
    pub fn regions(&self) -> Vec<RegionInfo> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .map(|(start, e)| {
                let (object, offset) = e.backing.resolve();
                RegionInfo {
                    start: *start,
                    size: e.end - start,
                    prot: e.prot,
                    max_prot: e.max_prot,
                    inheritance: e.inheritance,
                    object: object.id(),
                    offset,
                    shared: e.backing.is_shared(),
                    needs_copy: e.needs_copy,
                }
            })
            .collect()
    }

    /// `vm_statistics`: current VM counters for this machine.
    pub fn statistics(&self) -> VmStatistics {
        let (active, inactive, free) = self.phys.queue_lengths();
        let s = &self.machine.stats;
        VmStatistics {
            pagesize: self.page_size(),
            free_count: free as u64,
            active_count: active as u64,
            inactive_count: inactive as u64,
            faults: s.get(keys::VM_FAULTS),
            cache_hits: s.get(keys::VM_CACHE_HITS),
            pageins: s.get(keys::VM_PAGER_FILLS),
            pageouts: s.get(keys::VM_PAGEOUTS),
            cow_faults: s.get(keys::VM_COW_COPIES),
            zero_fills: s.get(keys::VM_ZERO_FILLS),
        }
    }

    // ----- faulting and access -----

    /// Resolves the entry covering `addr` for `access`, promoting a
    /// copy-on-write shadow if this is the first write into a copied
    /// region. Returns (object, object offset of the page, entry prot,
    /// still-needs-copy).
    fn resolve_addr(
        &self,
        addr: u64,
        access: VmProt,
    ) -> Result<(Arc<VmObject>, u64, VmProt, bool), VmError> {
        let ps = self.page_size();
        let page_addr = trunc_page(addr, ps);
        let mut inner = self.inner.lock();
        let (&start, entry) = inner
            .entries
            .range_mut(..=addr)
            .next_back()
            .ok_or(VmError::InvalidAddress)?;
        if entry.end <= addr {
            return Err(VmError::InvalidAddress);
        }
        if !entry.prot.allows(access) {
            return Err(VmError::ProtectionFailure);
        }
        if access.allows(VmProt::WRITE) && entry.needs_copy {
            // First write into a copied region: interpose a shadow object
            // ("If necessary, the kernel also creates a new shadow object").
            let (object, offset) = entry.backing.resolve();
            let size = entry.end - start;
            let shadow = VmObject::new_shadow(object.clone(), offset, size);
            shadow.add_map_ref();
            self.release_ref(&object);
            entry.backing = Backing::Direct {
                object: shadow,
                offset: 0,
            };
            entry.needs_copy = false;
        }
        let (object, base_offset) = entry.backing.resolve();
        // Opportunistic shadow-chain collapse: long chains arise from
        // generations of copy-on-write (fork after fork); when this map is
        // the only referencer, dead intermediate shadows are folded into
        // the top object. Holding the map lock here is what makes the
        // walker-exclusion argument in `collapse_shadow_chain` sound.
        Self::collapse_shadow_chain(&self.phys, &object);
        let obj_offset = base_offset + (page_addr - start);
        Ok((object, obj_offset, entry.prot, entry.needs_copy))
    }

    /// Folds single-referenced, pagerless shadow ancestors of `object`
    /// into `object`, moving their resident pages up and splicing them out
    /// of the chain.
    ///
    /// Safety argument (why pages cannot be lost to racing faults):
    /// callers hold the map lock of the only map referencing `object`
    /// (`map_refs == 1`), so no *new* fault walk can begin; `Arc` strong
    /// counts detect walks already in flight — `object` is referenced only
    /// by the map entry and our caller (count 2), and the ancestor only by
    /// `object`'s shadow link and our probe (count 2). Any concurrent
    /// walker would hold additional clones and the collapse is skipped.
    fn collapse_shadow_chain(phys: &Arc<PhysicalMemory>, object: &Arc<VmObject>) {
        if object.map_refs() != 1 || Arc::strong_count(object) > 2 {
            return;
        }
        loop {
            let Some((below, shadow_off)) = object.shadow() else {
                return;
            };
            // `below` must be owned solely by `object`'s shadow link (plus
            // our probe), with no pager and no other map references.
            if below.map_refs() != 1
                || below.pager().is_some()
                || !below.is_temporary()
                || below.is_terminated()
                || Arc::strong_count(&below) > 2
            {
                return;
            }
            // Move `below`'s pages into `object` where `object` has none;
            // shadowed-over or out-of-window pages are dead, free them.
            if phys.rekey_range(below.id(), shadow_off, object, object.size()) {
                phys.release_object(&below, false);
            }
            // Splice: object now shadows whatever `below` shadowed,
            // inheriting `below`'s reference on it.
            let next = below.shadow().map(|(bb, s2)| (bb, shadow_off + s2));
            object.with_state(|st| st.shadow = next);
            below.drop_map_ref();
            phys.machine().stats.incr(keys::VM_SHADOW_COLLAPSES);
        }
    }

    /// Handles a page fault at `addr` for `access`, installing the
    /// hardware mapping. Returns the satisfying frame.
    pub fn fault(&self, addr: u64, access: VmProt) -> Result<usize, VmError> {
        // First-touch placement: unpinned threads fault on behalf of the
        // task's home node for the duration of this fault.
        let _node = crate::numa::NodeScope::enter(self.pmap.home_node());
        let policy = self.fault_policy();
        let ps = self.page_size();
        let vpn = trunc_page(addr, ps) / ps;
        loop {
            let (object, obj_offset, entry_prot, needs_copy) = self.resolve_addr(addr, access)?;
            let ticket = self
                .phys
                .fault_engine()
                .submit(&object, obj_offset, access, policy);
            let result = ticket.wait()?;
            // The pmap update joins the fault's chain; the thread's own
            // context is back when the guards drop.
            let _chain = ticket.enter_chain();
            let page = (&result, vpn, entry_prot, needs_copy);
            if let Some(frame) = self.enter_resolved(access, [page]) {
                return Ok(frame);
            }
        }
    }

    /// Enters the hardware mappings for resolved pages — `(result, vpn,
    /// entry protection, needs copy)` each — under one hold of the
    /// resident table: the tail every fault ends with. `result.frame` is
    /// a bare index the page may have left since the fault resolved, so
    /// the page is found again by key. Returns the frame the last page
    /// was mapped to, or `None` if it was reclaimed meanwhile (the caller
    /// re-faults, or leaves the page to its first touch).
    fn enter_resolved<'a>(
        &self,
        access: VmProt,
        pages: impl IntoIterator<Item = (&'a FaultResult, u64, VmProt, bool)>,
    ) -> Option<usize> {
        let machine = self.phys.machine();
        let pmap_span = machine.span_open("vm.pmap_enter");
        let pages = pages
            .into_iter()
            .map(|(result, vpn, entry_prot, needs_copy)| {
                let prot = entry_prot & result.prot_limit;
                // Reads of a not-yet-copied region must not map writable.
                let prot = if needs_copy {
                    prot & !VmProt::WRITE
                } else {
                    prot
                };
                (result.object.id(), result.offset, vpn, prot)
            });
        let frame = self
            .phys
            .enter_mappings(&self.pmap, access.allows(VmProt::WRITE), pages);
        machine.span_close("vm.pmap_enter", pmap_span);
        frame
    }

    /// Kernel-internal page resolution without a hardware mapping (used by
    /// `vm_read`/`vm_write`).
    fn fault_page_kernel(&self, addr: u64, access: VmProt) -> Result<FaultResult, VmError> {
        let _node = crate::numa::NodeScope::enter(self.pmap.home_node());
        let policy = self.fault_policy();
        let (object, obj_offset, _prot, _nc) = self.resolve_addr(addr, access)?;
        resolve_page(&self.phys, &object, obj_offset, access, policy)
    }

    /// Fault-ahead: submits one asynchronous fault for every *absent run*
    /// of `[address, address + size)` — consecutive non-resident pages at
    /// consecutive offsets of one object — through the continuation
    /// engine, then waits for them all, and maps each page they resolved,
    /// so the access that follows finds it in the pmap instead of
    /// faulting it a second time. A run is one fault: one overhead
    /// charge, one `pager_data_request` for the whole run from its first
    /// absent page, one park until `pager_data_provided` has installed
    /// it. The pmap is asked first, as the MMU would be: a page it
    /// translates for `access` costs that probe and its reference bit —
    /// no map walk, no hold of the resident table — so a warm mapped range
    /// is a translation per page, and takes no lock. A resident page not
    /// yet mapped costs a lookup; neither charges fault overhead. Returns
    /// the number of pages submitted.
    pub fn fault_ahead(&self, address: u64, size: u64, access: VmProt) -> Result<usize, VmError> {
        if size == 0 {
            return Ok(0);
        }
        let engine = self.phys.fault_engine();
        // First-touch on the task's home node, as for a single fault.
        let _node = crate::numa::NodeScope::enter(self.pmap.home_node());
        let ps = self.page_size();
        let end = address.saturating_add(size);
        // A run ends where its map entry does (another entry is another
        // object), as a lone fault's claim ends at its object's.
        // Absent pages in address order, and the runs they form: (index
        // of the first page, object, offset of the first page, pages).
        let mut absent = Vec::new();
        let mut runs: Vec<(usize, Arc<VmObject>, u64, usize)> = Vec::new();
        let mut page = trunc_page(address, ps);
        while page < end {
            // A translation that allows the access vouches for the map
            // entry, the protection and the page behind it. The page is
            // marked referenced, as the probe of the resident table would
            // have: the fills this call waits for must not evict the part
            // of the range that is already in.
            if let Some(frame) = self.pmap.translate(page / ps, access) {
                self.phys.set_referenced(frame);
                page = page.saturating_add(ps);
                continue;
            }
            let (object, obj_offset, entry_prot, needs_copy) = self.resolve_addr(page, access)?;
            // Probed before anything is submitted: no fill this call asks
            // for can land under the probe, so a cold range is submitted
            // (and mapped) whole however fast its pager answers.
            let probe = self.phys.lookup(object.id(), obj_offset);
            if !matches!(probe, PageLookup::Resident { .. }) {
                // The page extends the last run if it is that object's
                // next page (a resident hole leaves a gap in the offsets).
                match runs.last_mut() {
                    Some((_, run_object, start, pages))
                        if Arc::ptr_eq(run_object, &object)
                            && *start + *pages as u64 * ps == obj_offset =>
                    {
                        *pages += 1
                    }
                    _ => runs.push((absent.len(), object, obj_offset, 1)),
                }
                absent.push((page / ps, entry_prot, needs_copy));
            }
            page = page.saturating_add(ps);
        }
        if runs.is_empty() {
            return Ok(0);
        }
        // The policy lock is shared by the task's threads: a range with
        // nothing to submit never takes it.
        let policy = self.fault_policy();
        let tickets: Vec<_> = runs
            .into_iter()
            .map(|(first, object, offset, pages)| {
                (
                    first,
                    engine.submit_run(&object, offset, pages, access, policy),
                )
            })
            .collect();
        // Every ticket is waited for, whichever fails first: its waiter
        // keeps its fault's deadlines.
        let mut failed = None;
        for (first, ticket) in tickets {
            let results = match ticket.wait_run() {
                Ok(results) => results,
                Err(err) => {
                    failed.get_or_insert(err);
                    continue;
                }
            };
            // The pmap updates land in that fault's span tree, as in
            // `fault`.
            let _chain = ticket.enter_chain();
            // One hold maps the run; a page already reclaimed again (a
            // range larger than memory evicts its own head) is left to
            // fault at its first touch.
            let pages = results.iter().zip(&absent[first..]).map(
                |(result, &(vpn, entry_prot, needs_copy))| (result, vpn, entry_prot, needs_copy),
            );
            self.enter_resolved(access, pages);
        }
        failed.map_or(Ok(absent.len()), Err)
    }

    /// `vm_read`: copies `size` bytes at `address` out of the task.
    pub fn read(&self, address: u64, size: u64) -> Result<Vec<u8>, VmError> {
        let mut out = vec![0u8; size as usize];
        let ps = self.page_size();
        let mut pos = 0u64;
        while pos < size {
            let addr = address + pos;
            let in_page = ps - addr % ps;
            let n = in_page.min(size - pos);
            let r = self.fault_page_kernel(addr, VmProt::READ)?;
            let off = (addr % ps) as usize;
            // Pinned copy: if pageout reclaimed the page between the fault
            // and here (easy under pressure), fault it back in.
            if !self.phys.copy_from_resident(
                r.object.id(),
                r.offset,
                off,
                &mut out[pos as usize..(pos + n) as usize],
            ) {
                continue;
            }
            pos += n;
        }
        self.machine
            .clock
            .charge(self.machine.cost.copy_cost_ns(size));
        self.machine.stats.add(keys::BYTES_COPIED, size);
        self.machine
            .trace_event("vm.copy", machsim::EventKind::Mark("vm_read"));
        Ok(out)
    }

    /// `vm_write`: copies `data` into the task at `address`.
    pub fn write(&self, address: u64, data: &[u8]) -> Result<(), VmError> {
        let ps = self.page_size();
        let size = data.len() as u64;
        let mut pos = 0u64;
        while pos < size {
            let addr = address + pos;
            let in_page = ps - addr % ps;
            let n = in_page.min(size - pos);
            let r = self.fault_page_kernel(addr, VmProt::WRITE)?;
            let off = (addr % ps) as usize;
            if !self.phys.copy_to_resident(
                r.object.id(),
                r.offset,
                off,
                &data[pos as usize..(pos + n) as usize],
            ) {
                continue;
            }
            pos += n;
        }
        self.machine
            .clock
            .charge(self.machine.cost.copy_cost_ns(size));
        self.machine.stats.add(keys::BYTES_COPIED, size);
        self.machine
            .trace_event("vm.copy", machsim::EventKind::Mark("vm_write"));
        Ok(())
    }

    /// `vm_copy`: copies a range within the task (physical copy).
    pub fn copy(&self, src: u64, size: u64, dst: u64) -> Result<(), VmError> {
        let data = self.read(src, size)?;
        self.write(dst, &data)
    }

    /// `vm_copy` by copy-on-write, the way Mach's virtual copy machinery
    /// works: the destination region is replaced with a needs-copy view of
    /// the source's objects, and bytes move only when either side writes.
    ///
    /// Both addresses and the size must be page aligned, the destination
    /// must be an existing region, and the ranges must not overlap.
    pub fn copy_cow(&self, src: u64, size: u64, dst: u64) -> Result<(), VmError> {
        let ps = self.page_size();
        if !src.is_multiple_of(ps)
            || !dst.is_multiple_of(ps)
            || !size.is_multiple_of(ps)
            || size == 0
        {
            return Err(VmError::BadAlignment);
        }
        if src < dst + size && dst < src + size {
            return Err(VmError::InvalidAddress);
        }
        let segments = self.copy_region_descriptor(src, size)?;
        self.deallocate(dst, size)?;
        let mut cursor = 0u64;
        for (object, offset, seg_size) in segments {
            self.insert_entry(
                Some(dst + cursor),
                seg_size,
                Backing::Direct {
                    object: object.clone(),
                    offset,
                },
                VmProt::DEFAULT,
                VmProt::ALL,
                Inheritance::Copy,
                true,
            )?;
            // Transfer the descriptor's reference to the new entry.
            object.drop_map_ref();
            cursor += seg_size;
        }
        Ok(())
    }

    // ----- the simulated user access path -----

    /// Reads bytes the way user instructions would: through the pmap,
    /// faulting on misses, charging per-word access time for the memory
    /// actually touched (node-local or remote).
    pub fn access_read(&self, address: u64, out: &mut [u8]) -> Result<(), VmError> {
        let node = self.accessing_node();
        self.access(
            address,
            out.len() as u64,
            false,
            |frame, vpn, off, pos, n, phys| {
                phys.numa_read_if(
                    frame,
                    node,
                    || self.pmap.translate(vpn, VmProt::READ) == Some(frame),
                    |d| out[pos..pos + n].copy_from_slice(&d[off..off + n]),
                )
                .map(|(_, kind)| kind)
            },
        )
    }

    /// Writes bytes the way user instructions would.
    pub fn access_write(&self, address: u64, data: &[u8]) -> Result<(), VmError> {
        let node = self.accessing_node();
        self.access(
            address,
            data.len() as u64,
            true,
            |frame, vpn, off, pos, n, phys| {
                phys.numa_write_if(
                    frame,
                    node,
                    || self.pmap.translate(vpn, VmProt::WRITE) == Some(frame),
                    |d| d[off..off + n].copy_from_slice(&data[pos..pos + n]),
                )
                .map(|(_, kind)| kind)
            },
        )
    }

    /// The node the current access is issued from: the thread's pinned
    /// node if any, else the task's home node.
    fn accessing_node(&self) -> usize {
        crate::numa::current_node().unwrap_or_else(|| self.pmap.home_node())
    }

    /// `per_page` copies one page's worth under the frame data lock and
    /// returns the kind of memory touched when the translation still held
    /// there (reclaim invalidates the pmap entry before a frame can be
    /// recycled, so a mapping that is still present vouches for the
    /// contents); `None` retries the translation so the page is faulted
    /// back in.
    fn access(
        &self,
        address: u64,
        size: u64,
        write: bool,
        mut per_page: impl FnMut(usize, u64, usize, usize, usize, &PhysicalMemory) -> Option<MemoryKind>,
    ) -> Result<(), VmError> {
        let ps = self.page_size();
        let want = if write { VmProt::WRITE } else { VmProt::READ };
        let mut pos = 0u64;
        // Pages and words touched, by kind of memory: added to the
        // machine's shared counters and clock once per access, not per page.
        let (mut local_pages, mut remote_pages) = (0u64, 0u64);
        let (mut local_words, mut remote_words) = (0u64, 0u64);
        let mut outcome = Ok(());
        while pos < size {
            let addr = address + pos;
            let vpn = trunc_page(addr, ps) / ps;
            let n = (ps - addr % ps).min(size - pos);
            // Hardware translation; fault on miss or protection violation.
            let frame = match self.pmap.translate(vpn, want) {
                Some(f) => {
                    self.phys.set_referenced(f);
                    if write {
                        self.phys.set_modified(f);
                    }
                    f
                }
                None => match self.fault(addr, want) {
                    Ok(f) => f,
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                },
            };
            let kind = match per_page(
                frame,
                vpn,
                (addr % ps) as usize,
                pos as usize,
                n as usize,
                &self.phys,
            ) {
                Some(kind) => kind,
                None => continue,
            };
            match kind {
                MemoryKind::Local => {
                    local_words += n.div_ceil(8);
                    local_pages += 1;
                }
                MemoryKind::Remote => {
                    remote_words += n.div_ceil(8);
                    remote_pages += 1;
                }
            }
            pos += n;
        }
        if local_pages > 0 {
            self.machine.stats.add(keys::NUMA_LOCAL_HITS, local_pages);
        }
        if remote_pages > 0 {
            self.machine.stats.add(keys::NUMA_REMOTE_HITS, remote_pages);
        }
        outcome?;
        // Word-granular access cost for the memory actually touched: the
        // placement policies earn their keep exactly here.
        self.machine.clock.charge(
            local_words * self.machine.cost.word_access_ns(MemoryKind::Local)
                + remote_words * self.machine.cost.word_access_ns(MemoryKind::Remote),
        );
        Ok(())
    }

    /// Prepares `[address, address+size)` for copy-on-write transfer in a
    /// message: marks the covering entries needs-copy, write-protects the
    /// sender's hardware mappings, and returns `(object, offset, size)`
    /// segments describing the region. Each segment carries a map
    /// reference that the consumer must transfer or drop.
    ///
    /// This is the memory half of the duality: a large message body leaves
    /// the sender as a list of object references, not as bytes.
    pub fn copy_region_descriptor(
        &self,
        address: u64,
        size: u64,
    ) -> Result<Vec<(Arc<VmObject>, u64, u64)>, VmError> {
        let ps = self.page_size();
        let start = trunc_page(address, ps);
        let len = round_page(address + size, ps) - start;
        let mut segments = Vec::new();
        self.for_range(start, len, |k, e| {
            e.needs_copy = true;
            let (object, offset) = e.backing.resolve();
            object.add_map_ref();
            segments.push((object, offset, e.end - k));
        })?;
        self.pmap
            .protect_range(start / ps, (start + len - 1) / ps, !VmProt::WRITE);
        // Constant per-page remap cost instead of per-byte copy cost.
        self.machine
            .clock
            .charge(self.machine.cost.remap_cost_ns(len / ps));
        self.machine.stats.add(keys::PAGES_REMAPPED, len / ps);
        self.machine
            .trace_event("vm.copy", machsim::EventKind::Mark("cow_descriptor"));
        Ok(segments)
    }

    // ----- task creation -----

    /// Creates a child address map per the inheritance attributes
    /// (Section 3.3): `Share` regions go through a sharing map, `Copy`
    /// regions become symmetric copy-on-write copies, `None` regions are
    /// absent from the child.
    pub fn fork(self: &Arc<VmMap>) -> Arc<VmMap> {
        let child = VmMap::new(&self.phys);
        let mut inner = self.inner.lock();
        let ps = self.page_size();
        let mut child_inner = child.inner.lock();
        for (start, entry) in inner.entries.iter_mut() {
            match entry.inheritance {
                Inheritance::None => {}
                Inheritance::Share => {
                    // Promote a direct reference to a sharing map so both
                    // tasks reach the region through the same slot.
                    if let Backing::Direct { object, offset } = entry.backing.clone() {
                        let slot = ShareSlot::new(object, offset);
                        entry.backing = Backing::Shared { slot, offset: 0 };
                    }
                    let (object, _) = entry.backing.resolve();
                    object.add_map_ref();
                    child_inner.entries.insert(
                        *start,
                        MapEntry {
                            end: entry.end,
                            prot: entry.prot,
                            max_prot: entry.max_prot,
                            inheritance: entry.inheritance,
                            backing: entry.backing.clone(),
                            needs_copy: false,
                        },
                    );
                }
                Inheritance::Copy => {
                    // Symmetric copy-on-write: both sides must copy before
                    // writing, so existing writable hardware mappings are
                    // removed from the parent.
                    entry.needs_copy = true;
                    self.pmap
                        .protect_range(start / ps, (entry.end - 1) / ps, !VmProt::WRITE);
                    let (object, _) = entry.backing.resolve();
                    object.add_map_ref();
                    child_inner.entries.insert(
                        *start,
                        MapEntry {
                            end: entry.end,
                            prot: entry.prot,
                            max_prot: entry.max_prot,
                            inheritance: entry.inheritance,
                            backing: entry.backing.clone(),
                            needs_copy: true,
                        },
                    );
                }
            }
        }
        drop(child_inner);
        drop(inner);
        child
    }

    /// Total bytes of valid address space.
    pub fn virtual_size(&self) -> u64 {
        let inner = self.inner.lock();
        inner.entries.iter().map(|(s, e)| e.end - s).sum()
    }
}

impl Drop for VmMap {
    fn drop(&mut self) {
        // Release every object reference the map still holds.
        let entries: Vec<MapEntry> = {
            let mut inner = self.inner.lock();
            std::mem::take(&mut inner.entries).into_values().collect()
        };
        for entry in entries {
            let (object, _) = entry.backing.resolve();
            self.release_ref(&object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use crate::object::test_support::{filled, RecordingPager};

    const PS: u64 = 4096;

    fn setup(frames: usize) -> (Machine, Arc<PhysicalMemory>) {
        let m = Machine::default_machine();
        let p = PhysicalMemory::new(&m, frames * PS as usize, PS as usize, 2);
        (m, p)
    }

    #[test]
    fn allocate_anywhere_and_touch() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 8192)
            .expect("allocation inside an empty test map succeeds");
        assert!(addr >= PS);
        map.access_write(addr, b"hello")
            .expect("invariant: page is mapped writable after the fault");
        let mut buf = [0u8; 5];
        map.access_read(addr, &mut buf)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn allocate_fixed_and_overlap_rejected() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(Some(0x10000), 8192)
            .expect("fixed-address allocation in an empty map succeeds");
        assert_eq!(addr, 0x10000);
        assert_eq!(
            map.allocate(Some(0x10000), PS).unwrap_err(),
            VmError::NoSpace
        );
        assert_eq!(
            map.allocate(Some(0x11000), PS).unwrap_err(),
            VmError::NoSpace
        );
        map.allocate(Some(0x12000), PS)
            .expect("fixed-address allocation in an empty map succeeds");
    }

    #[test]
    fn unaligned_fixed_address_rejected() {
        let (_m, phys) = setup(8);
        let map = VmMap::new(&phys);
        assert_eq!(
            map.allocate(Some(0x10001), PS).unwrap_err(),
            VmError::BadAlignment
        );
    }

    #[test]
    fn deallocate_invalidates() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 8192)
            .expect("allocation inside an empty test map succeeds");
        map.access_write(addr, &[1])
            .expect("invariant: page is mapped writable after the fault");
        map.deallocate(addr, 8192)
            .expect("deallocating a just-allocated range succeeds");
        let mut b = [0u8; 1];
        assert_eq!(
            map.access_read(addr, &mut b).unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn deallocate_middle_splits_entry() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 3 * PS)
            .expect("allocation inside an empty test map succeeds");
        map.deallocate(addr + PS, PS)
            .expect("deallocating a just-allocated range succeeds");
        let regions = map.regions();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].start, addr);
        assert_eq!(regions[0].size, PS);
        assert_eq!(regions[1].start, addr + 2 * PS);
        // Outer pages still usable.
        map.access_write(addr, &[1])
            .expect("invariant: page is mapped writable after the fault");
        map.access_write(addr + 2 * PS, &[2])
            .expect("invariant: page is mapped writable after the fault");
    }

    #[test]
    fn protect_blocks_access() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        map.access_write(addr, &[7])
            .expect("invariant: page is mapped writable after the fault");
        map.protect(addr, PS, false, VmProt::READ)
            .expect("protecting a mapped range succeeds");
        let mut b = [0u8; 1];
        map.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 7);
        assert_eq!(
            map.access_write(addr, &[8]).unwrap_err(),
            VmError::ProtectionFailure
        );
        // Re-enable and write again.
        map.protect(addr, PS, false, VmProt::DEFAULT)
            .expect("protecting a mapped range succeeds");
        map.access_write(addr, &[8])
            .expect("invariant: page is mapped writable after the fault");
    }

    #[test]
    fn protect_cannot_exceed_max() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        map.protect(addr, PS, true, VmProt::READ)
            .expect("protecting a mapped range succeeds");
        assert_eq!(
            map.protect(addr, PS, false, VmProt::DEFAULT).unwrap_err(),
            VmError::ProtectionFailure
        );
    }

    #[test]
    fn regions_report_attributes() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 2 * PS)
            .expect("allocation inside an empty test map succeeds");
        map.inherit(addr, PS, Inheritance::Share)
            .expect("setting inheritance on a mapped range succeeds");
        let regions = map.regions();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].inheritance, Inheritance::Share);
        assert_eq!(regions[1].inheritance, Inheritance::Copy);
        assert_eq!(regions[0].prot, VmProt::DEFAULT);
    }

    #[test]
    fn vm_read_write_roundtrip() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 3 * PS)
            .expect("allocation inside an empty test map succeeds");
        let data: Vec<u8> = (0..2 * PS + 100).map(|i| (i % 251) as u8).collect();
        map.write(addr + 50, &data)
            .expect("vm_write to a mapped range succeeds");
        let back = map
            .read(addr + 50, data.len() as u64)
            .expect("vm_read of a mapped range succeeds");
        assert_eq!(back, data);
    }

    #[test]
    fn vm_copy_within_task() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 2 * PS)
            .expect("allocation inside an empty test map succeeds");
        map.write(addr, b"payload")
            .expect("vm_write to a mapped range succeeds");
        map.copy(addr, 7, addr + PS)
            .expect("vm_copy between mapped ranges succeeds");
        assert_eq!(
            map.read(addr + PS, 7)
                .expect("vm_read of a mapped range succeeds"),
            b"payload"
        );
    }

    #[test]
    fn vm_copy_cow_moves_no_bytes_until_written() {
        let (m, phys) = setup(64);
        let map = VmMap::new(&phys);
        let pages = 8u64;
        let src = map
            .allocate(None, pages * PS)
            .expect("allocation inside an empty test map succeeds");
        let dst = map
            .allocate(None, pages * PS)
            .expect("allocation inside an empty test map succeeds");
        for i in 0..pages {
            map.access_write(src + i * PS, &[i as u8 + 1])
                .expect("invariant: page is mapped writable after the fault");
        }
        let copied0 = m.stats.get(keys::BYTES_COPIED);
        map.copy_cow(src, pages * PS, dst)
            .expect("CoW copy between mapped ranges succeeds");
        assert_eq!(m.stats.get(keys::BYTES_COPIED), copied0, "no copy yet");
        // Contents visible through the COW view.
        let mut b = [0u8; 1];
        for i in 0..pages {
            map.access_read(dst + i * PS, &mut b)
                .expect("invariant: page is mapped readable after the fault");
            assert_eq!(b[0], i as u8 + 1);
        }
        // Writes are isolated in both directions.
        map.access_write(dst, &[0xAA])
            .expect("invariant: page is mapped writable after the fault");
        map.access_read(src, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 1);
        map.access_write(src + PS, &[0xBB])
            .expect("invariant: page is mapped writable after the fault");
        map.access_read(dst + PS, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 2);
        assert!(m.stats.get(keys::VM_COW_COPIES) >= 2);
    }

    #[test]
    fn vm_copy_cow_rejects_overlap_and_misalignment() {
        let (_m, phys) = setup(32);
        let map = VmMap::new(&phys);
        let a = map
            .allocate(None, 4 * PS)
            .expect("allocation inside an empty test map succeeds");
        assert_eq!(
            map.copy_cow(a, 2 * PS, a + PS).unwrap_err(),
            VmError::InvalidAddress
        );
        assert_eq!(
            map.copy_cow(a + 1, PS, a + 2 * PS).unwrap_err(),
            VmError::BadAlignment
        );
    }

    #[test]
    fn fork_copy_is_copy_on_write() {
        let (m, phys) = setup(32);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .access_write(addr, &[1, 2, 3])
            .expect("invariant: page is mapped writable after the fault");
        let child = parent.fork();
        // Both see the original data without copying.
        let mut b = [0u8; 3];
        child
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b, [1, 2, 3]);
        assert_eq!(m.stats.get(keys::VM_COW_COPIES), 0);
        // Child write triggers exactly one page copy.
        child
            .access_write(addr, &[9])
            .expect("invariant: page is mapped writable after the fault");
        assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);
        // Parent still sees the original.
        parent
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b, [1, 2, 3]);
        child
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b, [9, 2, 3]);
    }

    #[test]
    fn fork_copy_protects_parent_writes_too() {
        let (m, phys) = setup(32);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .access_write(addr, &[5])
            .expect("invariant: page is mapped writable after the fault");
        let child = parent.fork();
        // Parent writes after fork must not leak into the child.
        parent
            .access_write(addr, &[6])
            .expect("invariant: page is mapped writable after the fault");
        assert!(m.stats.get(keys::VM_COW_COPIES) >= 1);
        let mut b = [0u8; 1];
        child
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 5);
        parent
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 6);
    }

    #[test]
    fn fork_share_is_read_write_shared() {
        let (_m, phys) = setup(32);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .inherit(addr, PS, Inheritance::Share)
            .expect("setting inheritance on a mapped range succeeds");
        let child = parent.fork();
        parent
            .access_write(addr, &[42])
            .expect("invariant: page is mapped writable after the fault");
        let mut b = [0u8; 1];
        child
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 42);
        child
            .access_write(addr, &[43])
            .expect("invariant: page is mapped writable after the fault");
        parent
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 43);
        // The region reports as shared in both.
        assert!(parent.regions()[0].shared);
        assert!(child.regions()[0].shared);
    }

    #[test]
    fn fork_none_omits_region() {
        let (_m, phys) = setup(16);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .inherit(addr, PS, Inheritance::None)
            .expect("setting inheritance on a mapped range succeeds");
        let child = parent.fork();
        assert!(child.regions().is_empty());
        let mut b = [0u8; 1];
        assert_eq!(
            child.access_read(addr, &mut b).unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn grandchild_copy_chains() {
        let (_m, phys) = setup(32);
        let gen0 = VmMap::new(&phys);
        let addr = gen0
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        gen0.access_write(addr, &[1])
            .expect("invariant: page is mapped writable after the fault");
        let gen1 = gen0.fork();
        gen1.access_write(addr, &[2])
            .expect("invariant: page is mapped writable after the fault");
        let gen2 = gen1.fork();
        gen2.access_write(addr, &[3])
            .expect("invariant: page is mapped writable after the fault");
        let mut b = [0u8; 1];
        gen0.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 1);
        gen1.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 2);
        gen2.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 3);
    }

    #[test]
    fn pager_backed_mapping_requests_data() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let pager = Arc::new(RecordingPager::default());
        let object = VmObject::new_with_pager(4 * PS, pager.clone());
        // Pre-supply so the fault is satisfied without a live manager.
        phys.supply_page(&object, 0, filled(0xCD, PS as usize), VmProt::NONE)
            .expect("pre-supplying a page to an empty object succeeds");
        let addr = map
            .allocate_with_object(None, 4 * PS, object, 0, false)
            .expect("mapping a fresh object into an empty map succeeds");
        let mut b = [0u8; 2];
        map.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b, [0xCD, 0xCD]);
        // An unsupplied page triggers a data request and times out.
        map.set_fault_policy(FaultPolicy::abort_after(std::time::Duration::from_millis(
            20,
        )));
        assert_eq!(
            map.access_read(addr + PS, &mut b).unwrap_err(),
            VmError::Timeout
        );
        assert_eq!(pager.requests.lock().len(), 1);
        assert_eq!(pager.requests.lock()[0].1, PS);
    }

    #[test]
    fn fault_ahead_over_a_mapped_range_keeps_it_referenced() -> Result<(), VmError> {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let object = VmObject::new_with_pager(4 * PS, Arc::new(RecordingPager::default()));
        phys.supply_page(&object, 0, filled(1, 4 * PS as usize), VmProt::NONE)?;
        let addr = map.allocate_with_object(None, 4 * PS, object.clone(), 0, false)?;
        map.access_read(addr, &mut vec![0u8; 4 * PS as usize])?;
        // Two second-chance passes: reference bits cleared, then every
        // page on the inactive queue, next in line for reclaim.
        phys.balance_queues(usize::MAX);
        phys.balance_queues(usize::MAX);
        // The pmap answers for the whole range: nothing to submit, no
        // probe of the resident table — and the pages count as used, so
        // the fills a partly absent range waits for do not evict them.
        assert_eq!(map.fault_ahead(addr, 4 * PS, VmProt::READ)?, 0);
        assert_eq!(phys.reclaim_pages(4), 0);
        assert_eq!(phys.resident_pages_of(object.id()), 4);
        Ok(())
    }

    #[test]
    fn cow_mapping_of_object_gives_snapshot() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let object = VmObject::new_temporary(PS);
        phys.supply_page(&object, 0, filled(7u8, PS as usize), VmProt::NONE)
            .expect("pre-supplying a page to an empty object succeeds");
        // Map copy-on-write (the fs_read_file client view).
        let addr = map
            .allocate_with_object(None, PS, object.clone(), 0, true)
            .expect("mapping a fresh object into an empty map succeeds");
        map.access_write(addr, &[8])
            .expect("invariant: page is mapped writable after the fault");
        // The object's own page is unchanged.
        let crate::resident::PageLookup::Resident { frame, .. } = phys.lookup(object.id(), 0)
        else {
            panic!("object page resident");
        };
        phys.with_frame(frame, |d| assert_eq!(d[0], 7));
        let mut b = [0u8; 1];
        map.access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 8);
    }

    #[test]
    fn object_terminated_when_last_ref_dropped() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let pager = Arc::new(RecordingPager::default());
        let object = VmObject::new_with_pager(PS, pager.clone());
        let id = object.id();
        phys.supply_page(&object, 0, filled(1u8, PS as usize), VmProt::NONE)
            .expect("pre-supplying a page to an empty object succeeds");
        let addr = map
            .allocate_with_object(None, PS, object, 0, false)
            .expect("mapping a fresh object into an empty map succeeds");
        // Dirty the page so termination must clean it.
        map.access_write(addr, &[9])
            .expect("invariant: page is mapped writable after the fault");
        map.deallocate(addr, PS)
            .expect("deallocating a just-allocated range succeeds");
        assert_eq!(pager.terminated.lock().as_slice(), &[id]);
        // The dirty page was written back during release.
        assert_eq!(pager.writes.lock().len(), 1);
        assert_eq!(pager.writes.lock()[0].2[0], 9);
        assert_eq!(phys.resident_pages_of(id), 0);
    }

    #[test]
    fn persisting_object_keeps_cache() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let object = VmObject::new_temporary(PS);
        object.set_can_persist(true);
        let id = object.id();
        phys.supply_page(&object, 0, filled(1u8, PS as usize), VmProt::NONE)
            .expect("pre-supplying a page to an empty object succeeds");
        let addr = map
            .allocate_with_object(None, PS, object, 0, false)
            .expect("mapping a fresh object into an empty map succeeds");
        map.deallocate(addr, PS)
            .expect("deallocating a just-allocated range succeeds");
        // pager_cache advice: pages remain resident.
        assert_eq!(phys.resident_pages_of(id), 1);
    }

    #[test]
    fn statistics_reflect_activity() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 2 * PS)
            .expect("allocation inside an empty test map succeeds");
        map.access_write(addr, &[1])
            .expect("invariant: page is mapped writable after the fault");
        map.access_read(addr, &mut [0u8; 1])
            .expect("invariant: page is mapped readable after the fault");
        let st = map.statistics();
        assert_eq!(st.pagesize, PS);
        assert!(st.faults >= 1);
        assert!(st.zero_fills >= 1);
        // Every frame is on exactly one of the three queues here (nothing
        // is being filled, and there are no replicas).
        assert_eq!(st.free_count + st.active_count + st.inactive_count, 16);
        assert!(st.active_count >= 1);
    }

    #[test]
    fn virtual_size_sums_regions() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        map.allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        map.allocate(None, 3 * PS)
            .expect("allocation inside an empty test map succeeds");
        assert_eq!(map.virtual_size(), 4 * PS);
    }

    #[test]
    fn access_crossing_page_boundary() {
        let (_m, phys) = setup(16);
        let map = VmMap::new(&phys);
        let addr = map
            .allocate(None, 2 * PS)
            .expect("allocation inside an empty test map succeeds");
        let data: Vec<u8> = (0..100).collect();
        map.access_write(addr + PS - 50, &data)
            .expect("invariant: page is mapped writable after the fault");
        let mut back = vec![0u8; 100];
        map.access_read(addr + PS - 50, &mut back)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(back, data);
    }

    #[test]
    fn shadow_chains_collapse_across_generations() {
        // Ten generations of fork-write-die must not build a ten-deep
        // shadow chain: once a parent dies, its shadow is single-referenced
        // and collapses into the child's on the next fault.
        let (m, phys) = setup(128);
        let mut current = VmMap::new(&phys);
        let addr = current
            .allocate(None, 4 * PS)
            .expect("allocation inside an empty test map succeeds");
        current
            .access_write(addr, &[0])
            .expect("invariant: page is mapped writable after the fault");
        current
            .access_write(addr + PS, &[100])
            .expect("invariant: page is mapped writable after the fault");
        for gen in 1..=10u8 {
            let child = current.fork();
            drop(current);
            child
                .access_write(addr, &[gen])
                .expect("invariant: page is mapped writable after the fault");
            current = child;
        }
        // Verify data: page 0 has the last generation's value; page 1 kept
        // the original write through every collapse.
        let mut b = [0u8; 1];
        current
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 10);
        current
            .access_read(addr + PS, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 100);
        assert!(
            m.stats.get(machsim::stats::keys::VM_SHADOW_COLLAPSES) >= 5,
            "collapses happened: {}",
            m.stats.get(machsim::stats::keys::VM_SHADOW_COLLAPSES)
        );
        // The chain below the live object is shallow.
        let regions = current.regions();
        let inner = current.inner.lock();
        let entry = inner
            .entries
            .get(&regions[0].start)
            .expect("entry exists for the allocated range");
        let (object, _) = entry.backing.resolve();
        drop(inner);
        assert!(
            object.shadow_depth() <= 2,
            "chain depth {} after 10 generations",
            object.shadow_depth()
        );
    }

    #[test]
    fn collapse_skipped_while_sibling_alive() {
        // Parent and child both alive: the shared original object has two
        // referencing shadows and must not collapse.
        let (m, phys) = setup(64);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .access_write(addr, &[1])
            .expect("invariant: page is mapped writable after the fault");
        let child = parent.fork();
        parent
            .access_write(addr, &[2])
            .expect("invariant: page is mapped writable after the fault");
        child
            .access_write(addr, &[3])
            .expect("invariant: page is mapped writable after the fault");
        let collapses = m.stats.get(machsim::stats::keys::VM_SHADOW_COLLAPSES);
        let mut b = [0u8; 1];
        parent
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 2);
        child
            .access_read(addr, &mut b)
            .expect("invariant: page is mapped readable after the fault");
        assert_eq!(b[0], 3);
        assert_eq!(
            m.stats.get(machsim::stats::keys::VM_SHADOW_COLLAPSES),
            collapses
        );
    }

    #[test]
    fn shared_region_vm_write_visible_to_all() {
        // The §5.1 example: a vm_write into a region shared by more than
        // one task takes place in the sharing map all tasks reference.
        let (_m, phys) = setup(32);
        let parent = VmMap::new(&phys);
        let addr = parent
            .allocate(None, PS)
            .expect("allocation inside an empty test map succeeds");
        parent
            .inherit(addr, PS, Inheritance::Share)
            .expect("setting inheritance on a mapped range succeeds");
        let child = parent.fork();
        parent
            .write(addr, b"shared!")
            .expect("vm_write to a mapped range succeeds");
        assert_eq!(
            child
                .read(addr, 7)
                .expect("vm_read of a mapped range succeeds"),
            b"shared!"
        );
    }
}
