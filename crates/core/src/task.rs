//! Tasks and threads (Section 3.1), with the Table 3-3/3-4 VM interface.
//!
//! "A task is the basic unit of resource allocation. It includes a paged
//! virtual address space and protected access to system resources ... The
//! thread is the basic unit of computation. It is a lightweight process
//! operating within a task ... All threads within a task share the address
//! space and capabilities of that task."
//!
//! Threads are real OS threads holding an `Arc<Task>`; the shared address
//! map and port space give them exactly the shared-capability semantics of
//! Mach threads. The VM operations carry the paper's names (`vm_allocate`,
//! `vm_allocate_with_pager`, ...) so application code reads like the
//! examples in Section 4.

use crate::kernel::Kernel;
use machipc::{PortSpace, SendRight};
use machsim::wall::Signal;
use machsim::{EventKind, Machine};
use machvm::{Inheritance, RegionInfo, VmError, VmMap, VmProt, VmStatistics};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A Mach task: an address space plus a port name space on one kernel.
pub struct Task {
    kernel: Arc<Kernel>,
    name: String,
    map: Arc<VmMap>,
    space: Arc<PortSpace>,
    suspend_count: Mutex<u32>,
    resumed: Signal,
    /// Join handles of this task's scheduled threads.
    threads: Mutex<Vec<machsched::JoinHandle>>,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Task({})", self.name)
    }
}

impl Task {
    /// Creates a task with an empty address space.
    pub fn create(kernel: &Arc<Kernel>, name: &str) -> Arc<Task> {
        let map = VmMap::new(kernel.phys());
        map.set_fault_policy(kernel.default_fault_policy());
        kernel.register_task(name, &map);
        Arc::new(Task {
            kernel: kernel.clone(),
            name: name.to_string(),
            map,
            space: Arc::new(PortSpace::new(kernel.machine())),
            suspend_count: Mutex::new(0),
            resumed: Signal::new(),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Creates a child task, inheriting the address space per each
    /// region's inheritance attribute (share / copy / none).
    pub fn fork(&self, name: &str) -> Arc<Task> {
        let map = self.map.fork();
        map.set_fault_policy(self.map.fault_policy());
        self.kernel.register_task(name, &map);
        Arc::new(Task {
            kernel: self.kernel.clone(),
            name: name.to_string(),
            map,
            space: Arc::new(PortSpace::new(self.kernel.machine())),
            suspend_count: Mutex::new(0),
            resumed: Signal::new(),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel this task runs on.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The machine (host) context.
    pub fn machine(&self) -> &Machine {
        self.kernel.machine()
    }

    /// The task's address map.
    pub fn map(&self) -> &Arc<VmMap> {
        &self.map
    }

    /// The task's port name space.
    pub fn space(&self) -> &Arc<PortSpace> {
        &self.space
    }

    // ----- Table 3-3: virtual memory operations -----

    /// Charges one kernel trap: every Table 3-3 call is a system call
    /// (an RPC on the task port in the paper's framing).
    fn charge_syscall(&self) {
        let m = self.machine();
        m.clock.charge(m.cost.syscall_ns);
    }

    /// `vm_allocate`: new zero-filled memory anywhere.
    pub fn vm_allocate(&self, size: u64) -> Result<u64, VmError> {
        self.charge_syscall();
        self.map.allocate(None, size)
    }

    /// `vm_deallocate`.
    pub fn vm_deallocate(&self, address: u64, size: u64) -> Result<(), VmError> {
        self.charge_syscall();
        self.map.deallocate(address, size)
    }

    /// `vm_inherit`.
    pub fn vm_inherit(&self, address: u64, size: u64, inh: Inheritance) -> Result<(), VmError> {
        self.charge_syscall();
        self.map.inherit(address, size, inh)
    }

    /// `vm_protect`.
    pub fn vm_protect(
        &self,
        address: u64,
        size: u64,
        set_max: bool,
        prot: VmProt,
    ) -> Result<(), VmError> {
        self.charge_syscall();
        self.map.protect(address, size, set_max, prot)
    }

    /// `vm_read`.
    pub fn vm_read(&self, address: u64, size: u64) -> Result<Vec<u8>, VmError> {
        self.charge_syscall();
        self.map.read(address, size)
    }

    /// `vm_write`.
    pub fn vm_write(&self, address: u64, data: &[u8]) -> Result<(), VmError> {
        self.charge_syscall();
        self.map.write(address, data)
    }

    /// `vm_copy`.
    pub fn vm_copy(&self, src: u64, size: u64, dst: u64) -> Result<(), VmError> {
        self.charge_syscall();
        self.map.copy(src, size, dst)
    }

    /// `vm_regions`.
    pub fn vm_regions(&self) -> Vec<RegionInfo> {
        self.charge_syscall();
        self.map.regions()
    }

    /// `vm_statistics`.
    pub fn vm_statistics(&self) -> VmStatistics {
        self.charge_syscall();
        self.map.statistics()
    }

    // ----- Table 3-4: the application → kernel EMM interface -----

    /// `vm_allocate_with_pager`: maps a memory object (a port) into the
    /// address space. "The specified memory object provides the initial
    /// data values and receives changes."
    pub fn vm_allocate_with_pager(
        &self,
        address: Option<u64>,
        size: u64,
        memory_object: &SendRight,
        offset: u64,
    ) -> Result<u64, VmError> {
        let object = self.kernel.object_for_port(memory_object, offset + size);
        self.map
            .allocate_with_object(address, size, object, offset, false)
    }

    /// Maps a memory object copy-on-write — the trick a server uses so a
    /// client sees a consistent snapshot (Section 4.1, footnote 7: mapping
    /// with `vm_allocate_with_pager` would instead give "read/write access
    /// to the memory object").
    pub fn map_object_copy(
        &self,
        address: Option<u64>,
        size: u64,
        memory_object: &SendRight,
        offset: u64,
    ) -> Result<u64, VmError> {
        let object = self.kernel.object_for_port(memory_object, offset + size);
        self.map
            .allocate_with_object(address, size, object, offset, true)
    }

    // ----- the user access path -----

    /// Reads memory as user instructions would (pmap + faults).
    pub fn read_memory(&self, address: u64, out: &mut [u8]) -> Result<(), VmError> {
        self.suspension_point();
        self.map.access_read(address, out)
    }

    /// Writes memory as user instructions would.
    pub fn write_memory(&self, address: u64, data: &[u8]) -> Result<(), VmError> {
        self.suspension_point();
        self.map.access_write(address, data)
    }

    // ----- threads -----

    /// Spawns a thread in this task.
    ///
    /// The closure receives the task, mirroring how all Mach threads in a
    /// task share its address space and capabilities. The thread is a
    /// scheduler unit homed on the task's memory node: it runs on one of
    /// the kernel's simulated CPUs, preferring the node where the task's
    /// pages first-touch.
    pub fn spawn(self: &Arc<Task>, f: impl FnOnce(Arc<Task>) + Send + 'static) {
        let task = self.clone();
        self.machine()
            .trace_event("task", EventKind::Mark("thread_spawn"));
        let handle = self
            .kernel
            .scheduler()
            .spawn(self.map.home_node(), move || f(task));
        self.threads.lock().push(handle);
    }

    /// Waits for every spawned thread to finish.
    pub fn join_threads(&self) {
        let handles: Vec<machsched::JoinHandle> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            h.join();
        }
    }

    /// `task_suspend`: stops threads at their next suspension point.
    pub fn suspend(&self) {
        *self.suspend_count.lock() += 1;
    }

    /// `task_resume`.
    pub fn resume(&self) {
        let mut c = self.suspend_count.lock();
        if *c > 0 {
            *c -= 1;
        }
        if *c == 0 {
            self.resumed.notify_all();
        }
    }

    /// Blocks while the task is suspended. Called by the memory access
    /// paths, which is where 1987 Mach would have trapped the threads.
    pub fn suspension_point(&self) {
        let mut c = self.suspend_count.lock();
        while *c > 0 {
            self.resumed.block(&mut c, None);
        }
    }

    /// Whether the task is currently suspended.
    pub fn is_suspended(&self) -> bool {
        *self.suspend_count.lock() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::manager::{spawn_manager, DataManager, KernelConn};
    use machipc::OolBuffer;
    use std::time::Duration;

    fn kernel() -> Arc<Kernel> {
        Kernel::boot(KernelConfig::default())
    }

    #[test]
    fn allocate_touch_deallocate() {
        let k = kernel();
        let t = Task::create(&k, "t");
        let addr = t.vm_allocate(8192).unwrap();
        t.write_memory(addr, b"hi").unwrap();
        let mut b = [0u8; 2];
        t.read_memory(addr, &mut b).unwrap();
        assert_eq!(&b, b"hi");
        t.vm_deallocate(addr, 8192).unwrap();
    }

    #[test]
    fn fork_inherits_per_attribute() {
        let k = kernel();
        let parent = Task::create(&k, "parent");
        let shared = parent.vm_allocate(4096).unwrap();
        let copied = parent.vm_allocate(4096).unwrap();
        let private = parent.vm_allocate(4096).unwrap();
        parent.vm_inherit(shared, 4096, Inheritance::Share).unwrap();
        parent.vm_inherit(private, 4096, Inheritance::None).unwrap();
        parent.write_memory(shared, &[1]).unwrap();
        parent.write_memory(copied, &[2]).unwrap();
        let child = parent.fork("child");
        // Shared region: child sees parent's later writes.
        parent.write_memory(shared, &[11]).unwrap();
        let mut b = [0u8; 1];
        child.read_memory(shared, &mut b).unwrap();
        assert_eq!(b[0], 11);
        // Copied region: snapshot at fork.
        parent.write_memory(copied, &[22]).unwrap();
        child.read_memory(copied, &mut b).unwrap();
        assert_eq!(b[0], 2);
        // Private region: absent in the child.
        assert_eq!(
            child.read_memory(private, &mut b).unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn threads_share_the_address_space() {
        let k = kernel();
        let t = Task::create(&k, "multi");
        let addr = t.vm_allocate(4096).unwrap();
        for i in 0..4u8 {
            t.spawn(move |task| {
                task.write_memory(addr + i as u64 * 8, &[i + 1]).unwrap();
            });
        }
        t.join_threads();
        let mut b = [0u8; 32];
        t.read_memory(addr, &mut b).unwrap();
        for i in 0..4usize {
            assert_eq!(b[i * 8], i as u8 + 1);
        }
    }

    #[test]
    fn suspend_blocks_memory_access() {
        let k = kernel();
        let t = Task::create(&k, "s");
        let addr = t.vm_allocate(4096).unwrap();
        t.suspend();
        assert!(t.is_suspended());
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.write_memory(addr, &[9]).unwrap();
        });
        machsim::wall::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "write blocked while suspended");
        t.resume();
        h.join().unwrap();
        let mut b = [0u8; 1];
        t.read_memory(addr, &mut b).unwrap();
        assert_eq!(b[0], 9);
    }

    #[test]
    fn vm_allocate_with_pager_full_stack() {
        struct Seq;
        impl DataManager for Seq {
            fn data_request(
                &mut self,
                kernel: &KernelConn,
                object: u64,
                offset: u64,
                length: u64,
                _a: VmProt,
            ) {
                // Page content encodes its own offset. The kernel may ask
                // for a multi-page cluster, so fill page by page.
                let mut data = vec![0u8; length as usize];
                for (i, page) in data.chunks_mut(4096).enumerate() {
                    page.fill((offset / 4096) as u8 + i as u8);
                }
                kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
            }
        }
        let k = kernel();
        let t = Task::create(&k, "client");
        let mgr = spawn_manager(k.machine(), "seq", Seq);
        let addr = t
            .vm_allocate_with_pager(None, 4 * 4096, mgr.port(), 0)
            .unwrap();
        for page in 0..4u64 {
            let mut b = [0u8; 1];
            t.read_memory(addr + page * 4096, &mut b).unwrap();
            assert_eq!(b[0], page as u8);
        }
        // Writes go back to the object: another task mapping the same
        // object sees them through the shared cache, with no message
        // traffic (the Section 9 shared-array scenario).
        t.write_memory(addr, &[0xEE]).unwrap();
        let t2 = Task::create(&k, "client2");
        let addr2 = t2
            .vm_allocate_with_pager(None, 4 * 4096, mgr.port(), 0)
            .unwrap();
        let mut b = [0u8; 1];
        let fills_before = k.machine().stats.get(machsim::stats::keys::VM_PAGER_FILLS);
        t2.read_memory(addr2, &mut b).unwrap();
        assert_eq!(b[0], 0xEE);
        assert_eq!(
            k.machine().stats.get(machsim::stats::keys::VM_PAGER_FILLS),
            fills_before,
            "second client hit the shared cache"
        );
    }

    #[test]
    fn map_object_copy_gives_snapshot() {
        struct Zeros;
        impl DataManager for Zeros {
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
                    OolBuffer::from_vec(vec![7; length as usize]),
                    VmProt::NONE,
                );
            }
        }
        let k = kernel();
        let server = Task::create(&k, "server");
        let client = Task::create(&k, "client");
        let mgr = spawn_manager(k.machine(), "zeros", Zeros);
        let saddr = server
            .vm_allocate_with_pager(None, 4096, mgr.port(), 0)
            .unwrap();
        let caddr = client.map_object_copy(None, 4096, mgr.port(), 0).unwrap();
        // Client writes privately; the server's view is unchanged.
        client.write_memory(caddr, &[1]).unwrap();
        let mut b = [0u8; 1];
        server.read_memory(saddr, &mut b).unwrap();
        assert_eq!(b[0], 7);
        client.read_memory(caddr, &mut b).unwrap();
        assert_eq!(b[0], 1);
    }

    #[test]
    fn vm_statistics_via_task() {
        let k = kernel();
        let t = Task::create(&k, "t");
        let addr = t.vm_allocate(4096).unwrap();
        t.write_memory(addr, &[1]).unwrap();
        let st = t.vm_statistics();
        assert!(st.faults >= 1);
        assert_eq!(st.pagesize, 4096);
    }
}
