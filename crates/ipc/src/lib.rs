#![warn(missing_docs)]

//! Mach inter-process communication: ports and messages (Section 3.2).
//!
//! IPC in Mach is defined in terms of *ports* and *messages*. A port is a
//! kernel-protected finite-length message queue; access to it is a
//! capability (a *right*) that can itself travel inside messages. A message
//! is a fixed header plus a variable collection of *typed* data items —
//! inline bytes, port rights, or out-of-line regions that the kernel moves
//! by copy-on-write mapping rather than byte copying (the memory half of
//! the duality).
//!
//! This crate implements the primitive operations of Table 3-1
//! (`msg_send`, `msg_receive`, `msg_rpc`) and the port management
//! operations of Table 3-2 (`port_allocate`, `port_deallocate`,
//! `port_enable`, `port_disable`, `port_messages`, `port_status`,
//! `port_set_backlog`), including:
//!
//! * any number of senders, exactly one receiver per port;
//! * bounded queues with a settable backlog and sender blocking;
//! * send/receive timeouts (the paper's communication-failure handling,
//!   which Section 6.2.1 then reuses for *memory* failures);
//! * death notification when a port's receive right is destroyed;
//! * the task's *default group* of enabled ports for `msg_receive`;
//! * [`serve_group`], the one loop every user-level server runs, on its
//!   task's default group, and kernel ports
//!   ([`ReceiveRight::allocate_kernel`]), which need none: their handler
//!   runs on the sending thread and answers as a server's does.

pub mod error;
pub mod message;
pub mod port;
pub mod serve;
pub mod slab;
pub mod space;

pub use error::IpcError;
pub use message::{Message, MsgItem, OolBuffer, OolWatch, TypeTag, MSG_ID_PORT_DEATH};
pub use port::{PortId, PortStatus, ReceiveRight, SendRight, DEFAULT_BACKLOG};
pub use serve::{serve_group, Server, REPLY_TIMEOUT, RPC_TIMEOUT, SERVER_STOP, SERVE_BATCH};
pub use space::{PortName, PortSpace};

/// Shared context charged by IPC operations: one host's clock, counters and
/// cost model. All ports created through the same context meter message
/// traffic against the same machine.
pub type IpcContext = machsim::Machine;
