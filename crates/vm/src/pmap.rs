//! The physical map (pmap): the simulated hardware MMU interface.
//!
//! "With the exception of the hardware validation, all of these steps are
//! implemented in a machine-independent fashion." (Section 5.5.) The pmap
//! is exactly that machine-dependent boundary: the fault handler's final
//! act is `Pmap::enter`, and everything above it never touches "hardware".
//!
//! Real pmap modules manipulate page tables; this one keeps a map from
//! virtual page number to (frame, protection), ordered so that a range
//! operation walks the range and not the address space, and models the
//! MMU's reference and modify bits by reporting accesses back to the
//! resident page layer.

use crate::types::VmProt;
use machsim::Machine;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One translation entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmapEntry {
    /// Physical frame index.
    pub frame: usize,
    /// Hardware protection on the mapping.
    pub prot: VmProt,
}

/// A per-task hardware address translation map.
pub struct Pmap {
    machine: Machine,
    entries: Mutex<BTreeMap<u64, PmapEntry>>,
    /// The memory node this task's threads are scheduled on by default;
    /// first-touch allocation for unpinned threads falls back to this.
    home_node: AtomicUsize,
}

impl fmt::Debug for Pmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pmap({} mappings)", self.entries.lock().len())
    }
}

impl Pmap {
    /// Creates an empty pmap.
    pub fn new(machine: &Machine) -> Self {
        Self {
            machine: machine.clone(),
            entries: Mutex::new(BTreeMap::new()),
            home_node: AtomicUsize::new(0),
        }
    }

    /// Sets the owning task's home memory node.
    pub fn set_home_node(&self, node: usize) {
        self.home_node.store(node, Ordering::Relaxed);
    }

    /// The owning task's home memory node.
    pub fn home_node(&self) -> usize {
        self.home_node.load(Ordering::Relaxed)
    }

    /// Installs (or replaces) the translation for virtual page `vpn`.
    ///
    /// This is "hardware validation": the only machine-dependent step of
    /// fault handling.
    pub fn enter(&self, vpn: u64, frame: usize, prot: VmProt) {
        self.machine.clock.charge(self.machine.cost.map_page_ns);
        self.entries.lock().insert(vpn, PmapEntry { frame, prot });
    }

    /// Removes the translation for `vpn`, if any. Returns the old entry.
    pub fn remove(&self, vpn: u64) -> Option<PmapEntry> {
        self.entries.lock().remove(&vpn)
    }

    /// Translates `vpn` for an access needing `want`; `None` means the MMU
    /// would fault (missing translation or insufficient protection).
    pub fn translate(&self, vpn: u64, want: VmProt) -> Option<usize> {
        let entries = self.entries.lock();
        let e = entries.get(&vpn)?;
        if e.prot.allows(want) {
            Some(e.frame)
        } else {
            None
        }
    }

    /// Reduces the protection of `vpn` to `prot & existing` if mapped.
    pub fn protect(&self, vpn: u64, prot: VmProt) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&vpn) {
            e.prot = e.prot & prot;
        }
    }

    /// Reduces the protection of every mapping in `[first_vpn, last_vpn]`.
    pub fn protect_range(&self, first_vpn: u64, last_vpn: u64, prot: VmProt) {
        let mut entries = self.entries.lock();
        for (_, e) in entries.range_mut(first_vpn..=last_vpn) {
            e.prot = e.prot & prot;
        }
    }

    /// Removes every mapping in `[first_vpn, last_vpn]`.
    pub fn remove_range(&self, first_vpn: u64, last_vpn: u64) {
        let mut entries = self.entries.lock();
        while let Some((&vpn, _)) = entries.range(first_vpn..=last_vpn).next() {
            entries.remove(&vpn);
        }
    }

    /// Number of live translations.
    pub fn resident_count(&self) -> usize {
        self.entries.lock().len()
    }

    /// Returns the raw entry for `vpn` regardless of protection.
    pub fn lookup(&self, vpn: u64) -> Option<PmapEntry> {
        self.entries.lock().get(&vpn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmap() -> Pmap {
        Pmap::new(&Machine::default_machine())
    }

    #[test]
    fn enter_translate_remove() {
        let p = pmap();
        p.enter(5, 42, VmProt::DEFAULT);
        assert_eq!(p.translate(5, VmProt::READ), Some(42));
        assert_eq!(p.translate(5, VmProt::WRITE), Some(42));
        assert_eq!(p.remove(5).unwrap().frame, 42);
        assert_eq!(p.translate(5, VmProt::READ), None);
    }

    #[test]
    fn translate_respects_protection() {
        let p = pmap();
        p.enter(1, 7, VmProt::READ);
        assert_eq!(p.translate(1, VmProt::READ), Some(7));
        assert_eq!(p.translate(1, VmProt::WRITE), None);
    }

    #[test]
    fn protect_downgrades() {
        let p = pmap();
        p.enter(1, 7, VmProt::DEFAULT);
        p.protect(1, VmProt::READ);
        assert_eq!(p.translate(1, VmProt::WRITE), None);
        assert_eq!(p.translate(1, VmProt::READ), Some(7));
    }

    #[test]
    fn protect_range_covers_inclusive_span() {
        let p = pmap();
        for vpn in 0..4 {
            p.enter(vpn, vpn as usize, VmProt::DEFAULT);
        }
        p.protect_range(1, 2, VmProt::READ);
        assert!(p.translate(0, VmProt::WRITE).is_some());
        assert!(p.translate(1, VmProt::WRITE).is_none());
        assert!(p.translate(2, VmProt::WRITE).is_none());
        assert!(p.translate(3, VmProt::WRITE).is_some());
    }

    #[test]
    fn remove_range_clears_span() {
        let p = pmap();
        for vpn in 0..4 {
            p.enter(vpn, vpn as usize, VmProt::DEFAULT);
        }
        p.remove_range(1, 2);
        assert_eq!(p.resident_count(), 2);
        assert!(p.lookup(1).is_none());
        assert!(p.lookup(3).is_some());
    }

    #[test]
    fn range_operations_leave_the_rest_of_the_task_alone() {
        let p = pmap();
        // 10 000 other mappings on both sides of a 16-page range.
        let others = (0..5_000).chain(6_000..11_000);
        for vpn in others.clone().chain(5_500..5_516) {
            p.enter(vpn, vpn as usize, VmProt::DEFAULT);
        }
        p.protect_range(5_500, 5_515, VmProt::READ);
        for vpn in 5_500..5_516 {
            assert_eq!(p.translate(vpn, VmProt::WRITE), None);
            assert_eq!(p.translate(vpn, VmProt::READ), Some(vpn as usize));
        }
        p.remove_range(5_500, 5_515);
        assert_eq!(p.resident_count(), 10_000);
        assert!((5_500..5_516).all(|vpn| p.lookup(vpn).is_none()));
        for vpn in others {
            let (frame, prot) = (vpn as usize, VmProt::DEFAULT);
            assert_eq!(p.lookup(vpn), Some(PmapEntry { frame, prot }));
        }
        // An empty range and a range with nothing mapped in it are no-ops.
        p.protect_range(5_500, 5_515, VmProt::NONE);
        p.remove_range(20_000, u64::MAX);
        assert_eq!(p.resident_count(), 10_000);
        assert_eq!(p.translate(4_999, VmProt::WRITE), Some(4_999));
    }

    #[test]
    fn enter_charges_map_cost() {
        let m = Machine::default_machine();
        let p = Pmap::new(&m);
        p.enter(0, 0, VmProt::READ);
        assert_eq!(m.clock.now_ns(), m.cost.map_page_ns);
    }

    #[test]
    fn missing_vpn_translates_to_none() {
        assert_eq!(pmap().translate(99, VmProt::READ), None);
    }
}
