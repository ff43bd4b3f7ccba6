//! An Agora-style blackboard (Section 8.4).
//!
//! "Both communication and memory sharing are used to implement a shared
//! blackboard structure in which hypotheses are placed and evaluated by
//! multiple cooperating agents. The blackboard physically resides on a
//! multiprocessor host. All accesses to the blackboard are through a
//! procedural interface that determines if shared memory or communication
//! must be used. Agents use shared memory to directly modify the
//! blackboard. Message passing is used between loosely coupled components."
//!
//! The blackboard is a memory object on its home host. *Local* agents
//! (tasks on that host's kernel) map it and post hypotheses with ordinary
//! stores. *Remote* agents hold only a service port — possibly proxied
//! over the fabric — and post by message. The [`Agent`] handle is the
//! procedural interface hiding the difference.

use crate::array::ArrayService;
use machcore::proto::Malformed;
use machcore::{Kernel, Task};
use machipc::{serve_group, IpcError, PortSpace, ReceiveRight, SendRight, Server, RPC_TIMEOUT};
use machnet::{Fabric, Host};
use machvm::VmError;
use std::fmt;
use std::sync::Arc;

/// Bytes per hypothesis slot.
pub const SLOT_SIZE: u64 = 64;
/// Payload bytes per hypothesis.
pub const PAYLOAD_SIZE: usize = 48;

/// Slot states.
pub const STATE_EMPTY: u8 = 0;
/// A hypothesis has been posted.
pub const STATE_POSTED: u8 = 1;
/// A hypothesis has been evaluated (score valid).
pub const STATE_EVALUATED: u8 = 2;

machcore::protocol! {
    /// Remote agents' RPCs to the blackboard's service port.
    #[derive(Debug)]
    pub enum BbRequest {
        /// Post a hypothesis: `(slot, payload)`.
        Post(slot: u64, payload: Vec<u8>) = BB_POST: 0x4901,
        /// Read a slot.
        Read(slot: u64) = BB_READ: 0x4902,
        /// Record an evaluation: `(slot, score)`.
        Evaluate(slot: u64, score: u64) = BB_EVALUATE: 0x4903,
    }
}

machcore::protocol! {
    /// The service port's answers.
    #[derive(Debug)]
    pub enum BbReply {
        /// A slot (read): `(state, score, payload)`.
        Slot(state: u64, score: u64, payload: Vec<u8>) = BB_OK: 0x4980,
        /// Done (post, evaluate).
        Done = BB_OK,
        /// The slot is out of range, or the request was malformed.
        Rejected = BB_ERR: 0x4981,
    }
}

/// One decoded hypothesis slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypothesis {
    /// Slot state.
    pub state: u8,
    /// Evaluation score (valid when state is `STATE_EVALUATED`).
    pub score: u64,
    /// Hypothesis payload.
    pub payload: Vec<u8>,
}

/// The blackboard service on its home host.
pub struct Blackboard {
    /// Serves message-based (remote) access.
    server: Server,
    /// Memory object port for direct mapping by local agents.
    array: Arc<ArrayService>,
    slots: u64,
}

impl fmt::Debug for Blackboard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blackboard({} slots)", self.slots)
    }
}

fn slot_offset(slot: u64) -> u64 {
    slot * SLOT_SIZE
}

impl Blackboard {
    /// Starts a blackboard with `slots` hypothesis slots on `kernel`.
    ///
    /// The server itself is a local agent: it maps the blackboard region
    /// and serves remote messages by reading and writing that mapping.
    pub fn start(kernel: &Arc<Kernel>, slots: u64) -> Arc<Blackboard> {
        let size = slots * SLOT_SIZE;
        let array = ArrayService::start(kernel.machine(), size, |_| 0);
        let server_task = Task::create(kernel, "blackboard-server");
        let (addr, _) =
            ArrayService::attach(&server_task, array.port()).expect("server maps blackboard");
        let (rx, _) = ReceiveRight::allocate(kernel.machine());
        rx.set_backlog(1024);
        let space = Arc::new(PortSpace::new(kernel.machine()));
        let port = space.insert_receive(rx);
        let local = Agent::Local {
            task: server_task,
            addr,
            slots,
        };
        let server = serve_group("blackboard", space, port, move |_, msg| {
            let reply = match BbRequest::decode(msg) {
                Ok(BbRequest::Post(slot, payload)) => {
                    local.post(slot, &payload).map(|()| BbReply::Done)
                }
                Ok(BbRequest::Evaluate(slot, score)) => {
                    local.evaluate(slot, score).map(|()| BbReply::Done)
                }
                Ok(BbRequest::Read(slot)) => local
                    .read(slot)
                    .map(|h| BbReply::Slot(u64::from(h.state), h.score, h.payload)),
                Err(Malformed) => Err(AgentError::Rejected),
            };
            Some(reply.unwrap_or(BbReply::Rejected).encode())
        })
        .expect("the space holds the port");
        Arc::new(Blackboard {
            server,
            array,
            slots,
        })
    }

    /// Number of slots.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The message-interface port (give remote agents this, or a proxy).
    pub fn service_port(&self) -> &SendRight {
        self.server.port()
    }

    /// Creates a *local* agent: a task on the blackboard's own kernel
    /// using direct shared memory.
    pub fn local_agent(&self, kernel: &Arc<Kernel>, name: &str) -> Result<Agent, VmError> {
        let task = Task::create(kernel, name);
        let (addr, _) = ArrayService::attach(&task, self.array.port())?;
        Ok(Agent::Local {
            task,
            addr,
            slots: self.slots,
        })
    }

    /// Creates a *remote* agent on another fabric host, reaching the
    /// blackboard purely by message passing.
    pub fn remote_agent(
        &self,
        fabric: &Arc<Fabric>,
        home: &Arc<Host>,
        agent_host: &Arc<Host>,
    ) -> Agent {
        Agent::Remote {
            port: fabric.proxy_right(agent_host, home, self.service_port().clone()),
        }
    }
}

/// Agent errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentError {
    /// A message-based access failed.
    Ipc(IpcError),
    /// The server rejected the operation.
    Rejected,
    /// A memory-based access failed.
    Vm(VmError),
    /// Slot out of range.
    BadSlot,
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::Ipc(e) => write!(f, "message access failed: {e}"),
            AgentError::Rejected => f.write_str("server rejected"),
            AgentError::Vm(e) => write!(f, "memory access failed: {e}"),
            AgentError::BadSlot => f.write_str("slot out of range"),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<IpcError> for AgentError {
    fn from(e: IpcError) -> Self {
        AgentError::Ipc(e)
    }
}

impl From<VmError> for AgentError {
    fn from(e: VmError) -> Self {
        AgentError::Vm(e)
    }
}

/// The procedural interface "that determines if shared memory or
/// communication must be used".
pub enum Agent {
    /// A tightly coupled agent: direct stores into the mapped blackboard.
    Local {
        /// The agent's task.
        task: Arc<Task>,
        /// Base address of the mapped blackboard.
        addr: u64,
        /// Slot count.
        slots: u64,
    },
    /// A loosely coupled agent: RPCs on the (possibly proxied) port.
    Remote {
        /// The service port.
        port: SendRight,
    },
}

impl fmt::Debug for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agent::Local { .. } => f.write_str("Agent::Local(shared memory)"),
            Agent::Remote { .. } => f.write_str("Agent::Remote(messages)"),
        }
    }
}

impl Agent {
    /// Performs `request` on the service port; a rejection, or a reply
    /// that is not the blackboard's, is `Rejected`.
    fn rpc(port: &SendRight, request: BbRequest) -> Result<BbReply, AgentError> {
        match BbReply::decode(port.rpc(request.encode(), RPC_TIMEOUT, RPC_TIMEOUT)?) {
            Ok(BbReply::Rejected) | Err(Malformed) => Err(AgentError::Rejected),
            Ok(reply) => Ok(reply),
        }
    }

    /// Posts a hypothesis into `slot`.
    pub fn post(&self, slot: u64, payload: &[u8]) -> Result<(), AgentError> {
        match self {
            Agent::Local { task, addr, slots } => {
                if slot >= *slots {
                    return Err(AgentError::BadSlot);
                }
                let off = slot_offset(slot);
                let mut data = vec![0u8; PAYLOAD_SIZE];
                data[..payload.len().min(PAYLOAD_SIZE)]
                    .copy_from_slice(&payload[..payload.len().min(PAYLOAD_SIZE)]);
                task.write_memory(addr + off + 16, &data)?;
                task.write_memory(addr + off, &[STATE_POSTED])?;
                Ok(())
            }
            Agent::Remote { port, .. } => {
                Self::rpc(port, BbRequest::Post(slot, payload.to_vec())).map(drop)
            }
        }
    }

    /// Records an evaluation score for `slot`.
    pub fn evaluate(&self, slot: u64, score: u64) -> Result<(), AgentError> {
        match self {
            Agent::Local { task, addr, slots } => {
                if slot >= *slots {
                    return Err(AgentError::BadSlot);
                }
                let off = slot_offset(slot);
                task.write_memory(addr + off + 8, &score.to_le_bytes())?;
                task.write_memory(addr + off, &[STATE_EVALUATED])?;
                Ok(())
            }
            Agent::Remote { port, .. } => {
                Self::rpc(port, BbRequest::Evaluate(slot, score)).map(drop)
            }
        }
    }

    /// Reads a slot.
    pub fn read(&self, slot: u64) -> Result<Hypothesis, AgentError> {
        match self {
            Agent::Local { task, addr, slots } => {
                if slot >= *slots {
                    return Err(AgentError::BadSlot);
                }
                let off = slot_offset(slot);
                let mut raw = vec![0u8; SLOT_SIZE as usize];
                task.read_memory(addr + off, &mut raw)?;
                Ok(Hypothesis {
                    state: raw[0],
                    score: u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")),
                    payload: raw[16..16 + PAYLOAD_SIZE].to_vec(),
                })
            }
            Agent::Remote { port, .. } => match Self::rpc(port, BbRequest::Read(slot))? {
                BbReply::Slot(state, score, payload) => Ok(Hypothesis {
                    state: state as u8,
                    score,
                    payload,
                }),
                _ => Err(AgentError::Rejected),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::KernelConfig;
    use machsim::stats::keys;

    fn pad(p: &[u8]) -> Vec<u8> {
        let mut v = vec![0u8; PAYLOAD_SIZE];
        v[..p.len()].copy_from_slice(p);
        v
    }

    #[test]
    fn local_agents_share_memory_directly() {
        let k = Kernel::boot(KernelConfig::default());
        let bb = Blackboard::start(&k, 16);
        let a = bb.local_agent(&k, "speech").unwrap();
        let b = bb.local_agent(&k, "parser").unwrap();
        // Warm the page (the first touch faults through the pager).
        let _ = a.read(3).unwrap();
        let _ = b.read(3).unwrap();
        let msgs0 = k.machine().stats.get(keys::MSG_SENT);
        a.post(3, b"phoneme: /k/").unwrap();
        let h = b.read(3).unwrap();
        assert_eq!(h.state, STATE_POSTED);
        assert_eq!(h.payload, pad(b"phoneme: /k/"));
        // Direct shared memory: no messages once the page is resident.
        assert_eq!(k.machine().stats.get(keys::MSG_SENT), msgs0);
    }

    #[test]
    fn remote_agent_uses_messages() {
        let fabric = Fabric::new();
        let home = fabric.add_host("multiprocessor");
        let away = fabric.add_host("workstation");
        let k = Kernel::boot_on(home.machine().clone(), KernelConfig::default());
        let bb = Blackboard::start(&k, 8);
        let local = bb.local_agent(&k, "evaluator").unwrap();
        let remote = bb.remote_agent(&fabric, &home, &away);
        let net0 = away.machine().stats.get(keys::NET_MESSAGES);
        remote.post(1, b"signal segment").unwrap();
        assert!(
            away.machine().stats.get(keys::NET_MESSAGES) > net0,
            "remote post crossed the network"
        );
        // The local agent sees the remote post through shared memory.
        let h = local.read(1).unwrap();
        assert_eq!(h.state, STATE_POSTED);
        assert_eq!(h.payload, pad(b"signal segment"));
        // Local evaluation is visible to the remote reader.
        local.evaluate(1, 875).unwrap();
        let h = remote.read(1).unwrap();
        assert_eq!(h.state, STATE_EVALUATED);
        assert_eq!(h.score, 875);
    }

    #[test]
    fn many_agents_fill_the_board() {
        let k = Kernel::boot(KernelConfig::default());
        let bb = Blackboard::start(&k, 32);
        let agents: Vec<Agent> = (0..4)
            .map(|i| bb.local_agent(&k, &format!("agent{i}")).unwrap())
            .collect();
        std::thread::scope(|s| {
            for (i, agent) in agents.iter().enumerate() {
                s.spawn(move || {
                    for slot in (i as u64..32).step_by(4) {
                        agent.post(slot, format!("hyp-{slot}").as_bytes()).unwrap();
                        agent.evaluate(slot, slot * 10).unwrap();
                    }
                });
            }
        });
        let reader = bb.local_agent(&k, "reader").unwrap();
        for slot in 0..32u64 {
            let h = reader.read(slot).unwrap();
            assert_eq!(h.state, STATE_EVALUATED, "slot {slot}");
            assert_eq!(h.score, slot * 10);
        }
    }

    #[test]
    fn bad_slots_are_rejected() {
        let k = Kernel::boot(KernelConfig::default());
        let bb = Blackboard::start(&k, 4);
        let local = bb.local_agent(&k, "a").unwrap();
        assert_eq!(local.post(4, b"x").unwrap_err(), AgentError::BadSlot);
        assert_eq!(local.read(99).unwrap_err(), AgentError::BadSlot);
    }
}
