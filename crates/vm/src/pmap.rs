//! The physical map (pmap): the simulated hardware MMU interface.
//!
//! "With the exception of the hardware validation, all of these steps are
//! implemented in a machine-independent fashion." (Section 5.5.) The pmap
//! is exactly that machine-dependent boundary: the fault handler's final
//! act is `Pmap::enter`, and everything above it never touches "hardware".
//!
//! Like the page tables real pmap modules manipulate, this one is a radix
//! tree that the MMU walks without taking a lock. Four levels of 512
//! slots cover a 36-bit virtual page number. An interior slot is
//! published once and freed only with the pmap. A leaf holds one word
//! per translation, packing valid bit, frame and protection, and every
//! update replaces a word with one atomic store, so a translation reads
//! the old entry or the new one, never a mix. Updates serialize on
//! one writer lock, a leaf lock nothing is taken under, and a range
//! operation visits only the populated subtrees of its range, not the
//! address space. The MMU's reference and modify bits are modelled by
//! accesses reporting back to the resident page layer.

use crate::types::VmProt;
use machsim::Machine;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bits of a virtual page number that one level of the table resolves.
const LEVEL_BITS: u32 = 9;
/// Slots in one node of the table.
const FANOUT: usize = 1 << LEVEL_BITS;
/// Width of the virtual page numbers the table covers: the simulated
/// hardware's virtual address width. A page past it never translates,
/// and entering one is a bug.
pub const VPN_BITS: u32 = 4 * LEVEL_BITS;
const MAX_VPN: u64 = (1 << VPN_BITS) - 1;

/// A page-table entry is `VALID | frame << FRAME_SHIFT | prot`; 0 is no
/// translation.
const VALID: u64 = 1 << 8;
const FRAME_SHIFT: u32 = 9;
/// The bits of an entry that hold its protection.
const PROT_BITS: u64 = 0xff;

/// A leaf: one entry per page.
type Leaf = [AtomicU64; FANOUT];
/// An interior node: each slot is published once, by a writer.
type Node<T> = [OnceLock<Box<T>>; FANOUT];
type Root = Node<Node<Node<Leaf>>>;

/// One translation entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmapEntry {
    /// Physical frame index.
    pub frame: usize,
    /// Hardware protection on the mapping.
    pub prot: VmProt,
}

impl PmapEntry {
    fn encode(self) -> u64 {
        VALID | (self.frame as u64) << FRAME_SHIFT | u64::from(self.prot.0)
    }

    fn decode(pte: u64) -> Option<PmapEntry> {
        (pte & VALID != 0).then_some(PmapEntry {
            frame: (pte >> FRAME_SHIFT) as usize,
            prot: VmProt((pte & PROT_BITS) as u8),
        })
    }
}

/// The slot of `vpn` in its node at `level` (0 is a leaf, 3 the root).
fn index(vpn: u64, level: u32) -> usize {
    (vpn >> (level * LEVEL_BITS)) as usize % FANOUT
}

fn empty_node<T>() -> Box<Node<T>> {
    Box::new(std::array::from_fn(|_| OnceLock::new()))
}

fn empty_leaf() -> Box<Leaf> {
    Box::new(std::array::from_fn(|_| AtomicU64::new(0)))
}

/// A per-task hardware address translation map.
///
/// Readers ([`Pmap::translate`], [`Pmap::lookup`]) are the MMU's walk:
/// Acquire loads, no lock, no store. Writers take `writer` and change
/// each entry with one Release store.
pub struct Pmap {
    machine: Machine,
    root: Box<Root>,
    writer: Mutex<()>,
    /// Live translations; changed only under `writer`.
    count: AtomicUsize,
    /// The memory node this task's threads are scheduled on by default;
    /// first-touch allocation for unpinned threads falls back to this.
    home_node: AtomicUsize,
}

impl fmt::Debug for Pmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pmap({} mappings)", self.resident_count())
    }
}

impl Pmap {
    /// Creates an empty pmap.
    pub fn new(machine: &Machine) -> Self {
        Self {
            machine: machine.clone(),
            root: empty_node(),
            writer: Mutex::new(()),
            count: AtomicUsize::new(0),
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

    /// The leaf holding `vpn`'s entry, or the width in bits of the
    /// unpopulated subtree around `vpn`.
    fn leaf(&self, vpn: u64) -> Result<&Leaf, u32> {
        let upper = self.root[index(vpn, 3)].get().ok_or(3 * LEVEL_BITS)?;
        let lower = upper[index(vpn, 2)].get().ok_or(2 * LEVEL_BITS)?;
        let leaf = lower[index(vpn, 1)].get().ok_or(LEVEL_BITS)?;
        Ok(leaf)
    }

    /// `vpn`'s entry, if the table covers it and its leaf exists.
    fn pte(&self, vpn: u64) -> Option<&AtomicU64> {
        if vpn > MAX_VPN {
            return None;
        }
        let leaf = self.leaf(vpn).ok()?;
        Some(&leaf[index(vpn, 0)])
    }

    /// Calls `f` on the entry of every page of `[first_vpn, last_vpn]`
    /// (clamped to the table) whose leaf exists, skipping unpopulated
    /// subtrees whole. Under `writer`.
    fn for_each_pte(&self, first_vpn: u64, last_vpn: u64, mut f: impl FnMut(&AtomicU64)) {
        let last_vpn = last_vpn.min(MAX_VPN);
        let mut vpn = first_vpn;
        while vpn <= last_vpn {
            let skipped_bits = match self.leaf(vpn) {
                Ok(leaf) => {
                    let end = last_vpn.min(vpn | (FANOUT as u64 - 1));
                    leaf[index(vpn, 0)..=index(end, 0)].iter().for_each(&mut f);
                    LEVEL_BITS
                }
                Err(hole_bits) => hole_bits,
            };
            // `vpn <= MAX_VPN`, so the next subtree's first page cannot
            // overflow.
            vpn = (vpn | ((1 << skipped_bits) - 1)) + 1;
        }
    }

    /// Replaces `pte`'s entry with `f(entry)` and returns the old one,
    /// keeping the count. Under `writer`: no other thread stores to `pte`,
    /// so the writer's own load needs no ordering.
    fn update(&self, pte: &AtomicU64, f: impl FnOnce(u64) -> u64) -> u64 {
        let old = pte.load(Ordering::Relaxed);
        let new = f(old);
        if new != old {
            pte.store(new, Ordering::Release);
            if old == 0 {
                self.count.fetch_add(1, Ordering::Relaxed);
            } else if new == 0 {
                self.count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        old
    }

    /// Installs (or replaces) the translation for virtual page `vpn`.
    ///
    /// This is "hardware validation": the only machine-dependent step of
    /// fault handling.
    pub fn enter(&self, vpn: u64, frame: usize, prot: VmProt) {
        assert!(
            vpn <= MAX_VPN,
            "vpn {vpn:#x} is past the MMU's {VPN_BITS}-bit page numbers"
        );
        self.machine.clock.charge(self.machine.cost.map_page_ns);
        let _writer = self.writer.lock();
        let upper = self.root[index(vpn, 3)].get_or_init(empty_node);
        let lower = upper[index(vpn, 2)].get_or_init(empty_node);
        let leaf = lower[index(vpn, 1)].get_or_init(empty_leaf);
        let pte = PmapEntry { frame, prot }.encode();
        self.update(&leaf[index(vpn, 0)], |_| pte);
    }

    /// Removes the translation for `vpn`, if any. Returns the old entry.
    pub fn remove(&self, vpn: u64) -> Option<PmapEntry> {
        let _writer = self.writer.lock();
        PmapEntry::decode(self.update(self.pte(vpn)?, |_| 0))
    }

    /// Translates `vpn` for an access needing `want`; `None` means the MMU
    /// would fault (missing translation or insufficient protection).
    pub fn translate(&self, vpn: u64, want: VmProt) -> Option<usize> {
        let e = self.lookup(vpn)?;
        e.prot.allows(want).then_some(e.frame)
    }

    /// Reduces the protection of `vpn` to `prot & existing` if mapped.
    pub fn protect(&self, vpn: u64, prot: VmProt) {
        self.protect_range(vpn, vpn, prot);
    }

    /// Reduces the protection of every mapping in `[first_vpn, last_vpn]`,
    /// one entry at a time as on hardware: a concurrent translation may
    /// see part of the range reduced.
    pub fn protect_range(&self, first_vpn: u64, last_vpn: u64, prot: VmProt) {
        let keep = !PROT_BITS | u64::from(prot.0);
        let _writer = self.writer.lock();
        // An empty entry stays 0.
        self.for_each_pte(first_vpn, last_vpn, |pte| {
            self.update(pte, |old| old & keep);
        });
    }

    /// Removes every mapping in `[first_vpn, last_vpn]`.
    pub fn remove_range(&self, first_vpn: u64, last_vpn: u64) {
        let _writer = self.writer.lock();
        self.for_each_pte(first_vpn, last_vpn, |pte| {
            self.update(pte, |_| 0);
        });
    }

    /// Number of live translations.
    pub fn resident_count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Returns the raw entry for `vpn` regardless of protection.
    pub fn lookup(&self, vpn: u64) -> Option<PmapEntry> {
        PmapEntry::decode(self.pte(vpn)?.load(Ordering::Acquire))
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
