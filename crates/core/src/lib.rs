#![warn(missing_docs)]

//! The Mach kernel: tasks, threads, and external memory management.
//!
//! This crate assembles the substrates into the system the paper describes:
//!
//! * [`kernel::Kernel`] — one host's kernel: physical memory, the request
//!   ports whose Table 3-6 calls it applies on each sender's thread, and
//!   the default pager (itself an ordinary external data manager, per
//!   Section 6.2.2).
//! * [`task::Task`] — tasks ("the basic unit of resource allocation": a
//!   paged address space plus a port name space) and threads ("the basic
//!   unit of computation").
//! * [`manager`] — the data-manager runtime: implement [`DataManager`] and
//!   the kernel's Table 3-5 calls arrive as trait callbacks, with the
//!   Table 3-6 replies available on a [`KernelConn`].
//! * [`backend`] — the kernel's outbound half of the protocol, including
//!   laundry accounting and default-pager takeover (starvation protection).
//! * [`msg`] — out-of-line message transfer by copy-on-write mapping: the
//!   communication half of the duality.
//! * [`proto`] — the message ids and layouts of Tables 3-4/3-5/3-6.
//! * [`introspect`] — kernel statistics served over IPC on the host port
//!   (the `host_info`/`vm_statistics` analogue), queryable across hosts.

pub mod backend;
pub mod default_pager;
pub mod introspect;
pub mod kernel;
pub mod manager;
pub mod msg;
pub mod objport;
pub mod proto;
pub mod task;

pub use backend::IpcPagerBackend;
pub use default_pager::DefaultPager;
pub use kernel::{Kernel, KernelConfig, DEFAULT_CLUSTER_PAGES};
pub use manager::{spawn_manager, DataManager, KernelConn, ManagerHandle, ManagerTask};
pub use msg::RegionDescriptor;
pub use objport::{RemoteTask, TaskPort};
pub use task::Task;
