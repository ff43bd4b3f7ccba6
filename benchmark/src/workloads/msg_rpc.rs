//! `msg_rpc` — communication alone.
//!
//! One client and one server thread on a bare `machipc` port pair; no
//! kernel is booted, so `machvm` does no work at all. The op is
//! `SendRight::rpc` with an inline request the server echoes back: the
//! handoff slot, reply-port allocation, the slab and the thread wakeup are
//! everything that runs. Every op has the same shape, so the seed changes
//! nothing here.
//!
//! A message is a handoff only if its receiver has parked, which the host
//! scheduler decides. The run is pinned to one core (`Spec::one_core`) and
//! each side yields before it sends, so the peer runs until it blocks:
//! every request finds the server parked and every reply the client, both
//! hops are handoffs, and the simulated cost is the same on every op of
//! every run. Without the yields the woken thread preempts its waker and
//! about half the messages are queued instead, a share that drifts.

use super::{OpSamples, Workload, OP_TIMEOUT};
use crate::spans;
use machipc::{slab, Message, MsgItem, ReceiveRight, SendRight};
use machsim::Machine;
use std::thread::JoinHandle;

const SHUTDOWN: u32 = u32::MAX;
const REQUEST_BYTES: usize = 64;

pub struct MsgRpc {
    machine: Machine,
    server_port: SendRight,
    server: Option<JoinHandle<()>>,
    seq: u32,
}

fn serve(rx: ReceiveRight) {
    while let Ok(req) = rx.receive(None) {
        if req.id == SHUTDOWN {
            break;
        }
        let span = spans::child("server.handler", 0);
        if let Some(reply) = &req.reply {
            std::thread::yield_now(); // the client parks on its reply port
            let echo = req.body.first().and_then(MsgItem::as_bytes).unwrap_or(&[]);
            let _ = reply.send(
                slab::message(req.id.wrapping_add(1)).with(slab::bytes(echo)),
                Some(OP_TIMEOUT),
            );
        }
        drop(span);
        slab::recycle(req);
    }
}

pub fn setup(_seed: u64) -> Box<dyn Workload> {
    let machine = Machine::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&machine);
    let server = std::thread::Builder::new()
        .name("rpc-server".into())
        .spawn(move || serve(rx))
        .expect("spawn rpc server");
    Box::new(MsgRpc {
        machine,
        server_port: tx,
        server: Some(server),
        seq: 0,
    })
}

impl Workload for MsgRpc {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        for _ in 0..ops {
            self.seq = self.seq.wrapping_add(2) % (SHUTDOWN - 1);
            let seq = self.seq;
            let mut request = [0x5A; REQUEST_BYTES];
            request[..4].copy_from_slice(&seq.to_le_bytes());
            let request = &request[..];
            let port = &self.server_port;
            std::thread::yield_now(); // the server parks in `receive`
            out.time(&self.machine.clock, 0, || {
                let reply = port
                    .rpc(
                        slab::message(seq).with(slab::bytes(request)),
                        Some(OP_TIMEOUT),
                        Some(OP_TIMEOUT),
                    )
                    .map_err(|e| format!("rpc {seq}: {e}"))?;
                let ok = reply.id == seq + 1
                    && reply.body.first().and_then(MsgItem::as_bytes) == Some(request);
                slab::recycle(reply);
                if ok {
                    Ok(())
                } else {
                    Err(format!("rpc {seq}: wrong reply id or echo"))
                }
            });
        }
    }
}

impl Drop for MsgRpc {
    fn drop(&mut self) {
        let _ = self
            .server_port
            .send(Message::new(SHUTDOWN), Some(OP_TIMEOUT));
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}
