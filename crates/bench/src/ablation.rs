//! Ablations of the design decisions DESIGN.md calls out.
//!
//! * **A1 — `pager_cache` advice**: the §9 performance story rests on file
//!   pages persisting in the VM cache after the last unmap. Disable the
//!   advice and re-measure the warm re-open.
//! * **A2 — laundry limit**: sweep the §6.2.2 starvation-protection
//!   threshold against a hoarding manager and count diverted pageouts.
//! * **A3 — reserved pool**: shrink the §6.2.3 reserve and watch the
//!   pageout path lose its guarantee (allocation failures under pressure).
//! * **A4 — shadow-chain collapse**: generations of copy-on-write with and
//!   without intermediate pages dying; the collapse counter shows the
//!   chains being folded (correctness covered by `machvm` tests).

use crate::table::Table;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machsim::stats::keys;
use machvm::VmProt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A file-like pager with the `pager_cache` advice made optional.
struct AdvisoryPager {
    advise_cache: bool,
}

impl DataManager for AdvisoryPager {
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        if self.advise_cache {
            kernel.cache(object, true);
        }
    }

    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _a: VmProt,
    ) {
        kernel.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0x11; length as usize]),
            VmProt::NONE,
        );
    }
}

/// A1 result: pager fills paid by a re-open, with and without the advice.
#[derive(Clone, Debug)]
pub struct CacheAdviceOutcome {
    /// Fills on the second mapping when `pager_cache(true)` was advised.
    pub refills_with_advice: u64,
    /// Fills on the second mapping without the advice.
    pub refills_without_advice: u64,
}

/// Runs A1.
pub fn cache_advice() -> CacheAdviceOutcome {
    let mut refills = [0u64; 2];
    for (i, advise) in [true, false].into_iter().enumerate() {
        let k = Kernel::boot(KernelConfig::default());
        let mgr = spawn_manager(
            k.machine(),
            "advisory",
            AdvisoryPager {
                advise_cache: advise,
            },
        );
        let pages = 16u64;
        // First mapping: fill everything, then unmap.
        let t1 = Task::create(&k, "first");
        let a1 = t1
            .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
            .unwrap();
        let mut buf = vec![0u8; (pages * 4096) as usize];
        t1.read_memory(a1, &mut buf).unwrap();
        t1.vm_deallocate(a1, pages * 4096).unwrap();
        // Give the (possible) termination a moment to settle.
        machsim::wall::sleep(std::time::Duration::from_millis(50));
        // Second mapping: count the fills.
        let fills0 = k.machine().stats.get(keys::VM_PAGER_FILLS);
        let t2 = Task::create(&k, "second");
        let a2 = t2
            .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
            .unwrap();
        t2.read_memory(a2, &mut buf).unwrap();
        refills[i] = k.machine().stats.get(keys::VM_PAGER_FILLS) - fills0;
    }
    CacheAdviceOutcome {
        refills_with_advice: refills[0],
        refills_without_advice: refills[1],
    }
}

/// A2 result: takeovers at one laundry-limit setting.
#[derive(Clone, Debug)]
pub struct LaundryPoint {
    /// The limit, in pages.
    pub limit_pages: u64,
    /// Pageouts diverted to the default pager.
    pub takeovers: u64,
    /// Pages the hoarder received before it was taken over.
    pub hoarder_received: u64,
}

/// A2 writes its pages in this many steps, each followed by the laundry
/// deadline: the limit decides in which step the hoarder is put on
/// notice, the deadline turns notice into takeover one step later.
const LAUNDRY_STEPS: u64 = 6;

/// Runs A2 for one limit.
pub fn laundry_sweep_point(limit_pages: u64) -> LaundryPoint {
    let k = Kernel::boot(KernelConfig {
        memory_bytes: 24 * 4096,
        reserve_pages: 4,
        laundry_limit: limit_pages * 4096,
        ..KernelConfig::default()
    });
    let t = Task::create(&k, "writer");
    let hoarded = Arc::new(AtomicU64::new(0));
    let mgr = spawn_manager(
        k.machine(),
        "hoarder",
        machpagers::hostile::HoarderPager {
            hoarded: hoarded.clone(),
        },
    );
    let pages = 192u64;
    let addr = t
        .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
        .unwrap();
    for i in 0..pages {
        t.write_memory(addr + i * 4096, &[1]).unwrap();
        if (i + 1) % (pages / LAUNDRY_STEPS) == 0 {
            machsim::wall::sleep(
                machcore::backend::LAUNDRY_DEADLINE + std::time::Duration::from_millis(20),
            );
        }
    }
    LaundryPoint {
        limit_pages,
        takeovers: k
            .machine()
            .stats
            .get(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS),
        hoarder_received: hoarded.load(std::sync::atomic::Ordering::Relaxed) / 4096,
    }
}

/// Runs the A2 sweep.
pub fn laundry_sweep() -> Vec<LaundryPoint> {
    [4u64, 16, 64, 1024]
        .iter()
        .map(|&l| laundry_sweep_point(l))
        .collect()
}

/// Renders the ablation tables.
pub fn table() -> Table {
    let mut t = Table::new(
        "Ablations — design decisions under the knife",
        &["ablation", "setting", "result"],
    );
    let a1 = cache_advice();
    t.row(&[
        "A1 pager_cache advice".into(),
        "advised".into(),
        format!("{} refills on re-open", a1.refills_with_advice),
    ]);
    t.row(&[
        "A1 pager_cache advice".into(),
        "not advised".into(),
        format!("{} refills on re-open", a1.refills_without_advice),
    ]);
    for p in laundry_sweep() {
        t.row(&[
            "A2 laundry limit".into(),
            format!("{} pages", p.limit_pages),
            format!(
                "{} takeovers, hoarder kept {} pages",
                p.takeovers, p.hoarder_received
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_advice_is_what_keeps_pages_warm() {
        let o = cache_advice();
        assert_eq!(o.refills_with_advice, 0, "advice keeps the cache");
        assert_eq!(
            o.refills_without_advice,
            16 / machcore::DEFAULT_CLUSTER_PAGES as u64,
            "without it, termination drops every page (refetched in clusters)"
        );
    }

    #[test]
    fn smaller_laundry_limits_divert_more() {
        let pts = laundry_sweep();
        // 4 and 16 pages are both crossed inside the first step — the same
        // point up to pageout batching — so the dial is read off 4, 64 and
        // 1024: the later a hoarder is put on notice, the more it keeps.
        let (tight, mid, huge) = (&pts[0], &pts[2], &pts[3]);
        assert!(tight.takeovers > 0, "tight limit diverts: {pts:?}");
        assert!(
            tight.hoarder_received < mid.hoarder_received
                && mid.hoarder_received < huge.hoarder_received,
            "a looser limit must leave the hoarder more: {pts:?}"
        );
        assert_eq!(huge.takeovers, 0, "huge limit never diverts");
    }
}
