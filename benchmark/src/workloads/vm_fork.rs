//! `vm_fork` — memory alone.
//!
//! One client forks a task that holds a dirty 64-page region; the child
//! writes all 64 pages (64 copy-on-write faults), allocates and touches 16
//! fresh pages (16 zero fills), and is dropped. `VmMap`, the fault path,
//! `PhysicalMemory` and the object chains do everything; no pager is
//! attached and not one message is sent, so `machipc.msgs_per_op` must be
//! exactly 0. This is the control: an IPC change predicts no movement here.
//!
//! Every op has the same shape; the seed only picks which of the parent's
//! pages is checked.

use super::{client_rng, OpSamples, Workload, PAGE};
use machcore::{Kernel, KernelConfig, Task};
use machsim::{Machine, SplitMix64};
use std::sync::Arc;

const REGION_PAGES: u64 = 64;
const FRESH_PAGES: u64 = 16;

pub struct VmFork {
    kernel: Arc<Kernel>,
    parent: Arc<Task>,
    region: u64,
    rng: SplitMix64,
    seq: u64,
}

/// What the parent holds in the first word of page `p`.
fn parent_stamp(p: u64) -> u64 {
    0xF0F0_0000 + p
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let kernel = Kernel::boot(KernelConfig::with_memory(16 << 20));
    let parent = Task::create(&kernel, "fork-parent");
    let region = parent
        .vm_allocate(REGION_PAGES * PAGE)
        .expect("allocate the parent's region");
    for p in 0..REGION_PAGES {
        parent
            .write_memory(region + p * PAGE, &parent_stamp(p).to_le_bytes())
            .expect("dirty the parent's region");
    }
    Box::new(VmFork {
        kernel,
        parent,
        region,
        rng: client_rng(seed, 0),
        seq: 0,
    })
}

impl VmFork {
    fn op(&self, seq: u64, check_page: u64) -> Result<(), String> {
        let err = |what: &str, e: machvm::VmError| format!("op {seq}: {what}: {e}");
        let child = self.parent.fork("fork-child");
        for p in 0..REGION_PAGES {
            child
                .write_memory(self.region + p * PAGE, &(seq ^ p).to_le_bytes())
                .map_err(|e| err("child write", e))?;
        }
        let fresh = child
            .vm_allocate(FRESH_PAGES * PAGE)
            .map_err(|e| err("child allocate", e))?;
        for p in 0..FRESH_PAGES {
            child
                .write_memory(fresh + p * PAGE, &[1])
                .map_err(|e| err("child touch", e))?;
        }
        let mut b = [0u8; 8];
        child
            .read_memory(self.region + check_page * PAGE, &mut b)
            .map_err(|e| err("child read", e))?;
        if u64::from_le_bytes(b) != seq ^ check_page {
            return Err(format!("op {seq}: child lost its own write"));
        }
        // The parent's page must be untouched by the child's writes.
        self.parent
            .read_memory(self.region + check_page * PAGE, &mut b)
            .map_err(|e| err("parent read", e))?;
        if u64::from_le_bytes(b) != parent_stamp(check_page) {
            return Err(format!("op {seq}: child's write leaked into the parent"));
        }
        Ok(())
    }
}

impl Workload for VmFork {
    fn machine(&self) -> &Machine {
        self.kernel.machine()
    }

    fn kernel(&self) -> Option<&Arc<Kernel>> {
        Some(&self.kernel)
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        for _ in 0..ops {
            self.seq += 1;
            let check_page = self.rng.next_below(REGION_PAGES);
            out.time(&self.kernel.machine().clock, 0, || {
                self.op(self.seq, check_page)
            });
        }
    }
}
