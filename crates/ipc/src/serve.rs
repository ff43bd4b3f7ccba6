//! One way to serve a port.
//!
//! "The kernel task acts as a server", and so does every data manager and
//! service built on it. Serving one message is written once, `serve_one`:
//! adopt its causal chain, run the handler, send the answer to its reply
//! port. A server is a task: [`serve_group`] runs `serve_one` in a loop on
//! the task's one named thread, over its default port group (Table 3-2
//! `port_enable`), taking each port's queue in bursts of [`SERVE_BATCH`].
//! The loop stops only on the message carrying its [`Server`]'s key — so a
//! client that can send to a port cannot stop it, whatever id it picks. A
//! kernel object (the host port, a task port, a request port) has no loop:
//! it runs `serve_one` on each sender's thread (a kernel port, allocated
//! with `allocate_kernel`) and stops on nothing.

use crate::{IpcError, Message, MsgItem, PortName, PortSpace, SendRight};
use machsim::trace::{self, CorrelationId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages a server takes from one port per receive: a burst of small
/// requests costs one dequeue.
pub const SERVE_BATCH: usize = 32;

/// How long a server waits for room on a reply port: a client that has
/// stopped listening must not wedge its server.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a client waits to send a request, and then for its reply.
pub const RPC_TIMEOUT: Option<Duration> = Some(Duration::from_secs(10));

/// The id of every stop message. The id alone stops nothing: a server
/// stops only on the one that carries its key, and hands any other to its
/// handler like every message.
pub const SERVER_STOP: u32 = 0x2FFF;

/// The key to a server: an opaque handle, compared by pointer.
#[derive(Clone)]
struct StopKey(Arc<dyn Any + Send + Sync>);

impl StopKey {
    /// The message that stops the server holding this key.
    fn message(&self) -> Message {
        let handle = self.0.clone();
        Message::new(SERVER_STOP).with(MsgItem::Opaque {
            tag: SERVER_STOP,
            handle,
        })
    }

    /// Whether `msg` is this key's stop message.
    fn opens(&self, msg: &Message) -> bool {
        msg.id == SERVER_STOP
            && msg.body.iter().any(|item| match item {
                MsgItem::Opaque { handle, .. } => Arc::ptr_eq(handle, &self.0),
                _ => false,
            })
    }
}

/// A running server: its port and the one key that stops it. Dropping it
/// stops the loop and joins the thread.
pub struct Server {
    port: SendRight,
    key: StopKey,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Server({:?})", self.port)
    }
}

impl Server {
    /// The port the server receives on.
    pub fn port(&self) -> &SendRight {
        &self.port
    }

    /// Stops the loop and joins its thread.
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.port.send_notification(self.key.message());
            let _ = thread.join();
        }
    }
}

/// Serves one message: adopts its causal chain, runs `handler` on it and
/// sends the answer, if any, to its reply port with a timed `send`. The
/// handler gets the message whole, so a forwarder (the network proxy) can
/// pass the reply port on; the answer goes to a clone, taken only if any.
pub(crate) fn serve_one(msg: Message, handler: impl FnOnce(Message) -> Option<Message>) {
    trace::set_current_correlation(CorrelationId::from_raw(msg.correlation));
    trace::set_current_span(msg.span_context());
    let reply = msg.reply.clone();
    if let (Some(answer), Some(reply)) = (handler(msg), reply) {
        let _ = reply.send(answer, Some(REPLY_TIMEOUT));
    }
}

/// Serves every port enabled in `space` on one thread named `name`, each
/// message by `handler` with the name of the port it arrived on. The
/// handler may enable more ports as it goes, and may take a port's queued
/// messages itself (`PortSpace::receive` with a zero timeout). `port` is
/// the server's own, enabled here: clients are given its send right, and
/// the key's stop message is sent to it. A client parked on its reply port
/// is handed the answer, and a request sent while the thread is parked is
/// handed to it.
pub fn serve_group<H>(
    name: impl Into<String>,
    space: Arc<PortSpace>,
    port: PortName,
    mut handler: H,
) -> Result<Server, IpcError>
where
    H: FnMut(PortName, Message) -> Option<Message> + Send + 'static,
{
    space.port_enable(port)?;
    let port = space.send_right(port)?;
    let key = StopKey(Arc::new(()));
    let stop = key.clone();
    let thread = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while let Ok((from, burst)) = space.receive_burst(SERVE_BATCH, None) {
                for msg in burst {
                    if stop.opens(&msg) {
                        return;
                    }
                    // A burst adopted only its last message's chain; it
                    // mixes many, so each adopts its own.
                    serve_one(msg, |msg| handler(from, msg));
                }
            }
        })
        .expect("spawn server thread");
    Ok(Server {
        port,
        key,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use machsim::Machine;

    fn echo(machine: &Machine) -> Server {
        let space = Arc::new(PortSpace::new(machine));
        let port = space.port_allocate();
        serve_group("echo", space, port, |_, msg| Some(Message::new(msg.id + 1)))
            .expect("the port is in the space")
    }

    #[test]
    fn a_server_answers_on_the_reply_port() {
        let m = Machine::default_machine();
        let server = echo(&m);
        let reply = server.port().rpc(Message::new(41), None, None);
        assert_eq!(reply.expect("an answer").id, 42);
    }

    #[test]
    fn only_the_owners_key_stops_a_server() {
        let m = Machine::default_machine();
        let (server, other) = (echo(&m), echo(&m));
        // The id, and another server's key, are just messages.
        server.port().send_notification(Message::new(SERVER_STOP));
        server.port().send_notification(other.key.message());
        let reply = server.port().rpc(Message::new(1), None, None);
        assert_eq!(reply.expect("still serving").id, 2);
        drop(other);
        server.shutdown();
    }

    #[test]
    fn a_group_server_serves_every_enabled_port_on_one_thread() {
        let m = Machine::default_machine();
        let space = Arc::new(PortSpace::new(&m));
        let (front, side) = (space.port_allocate(), space.port_allocate());
        for name in [front, side] {
            space.port_enable(name).expect("enable");
        }
        let side_port = space.send_right(side).expect("side port");
        let threads = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen = threads.clone();
        let server = serve_group("group", space, front, move |from, msg| {
            seen.lock().push(std::thread::current().id());
            Some(Message::new(msg.id + u32::from(from == side)))
        })
        .expect("front is in the space");
        // The stop id on the side port is a message like any other.
        side_port.send_notification(Message::new(SERVER_STOP));
        let answer = |port: &SendRight| port.rpc(Message::new(10), None, None).expect("an answer");
        assert_eq!(answer(server.port()).id, 10);
        assert_eq!(answer(&side_port).id, 11);
        drop(server);
        let threads = threads.lock();
        assert_eq!(threads.len(), 3);
        assert!(threads.iter().all(|&t| t == threads[0]), "one thread");
        assert!(
            !side_port.is_alive(),
            "the group's ports die with its server"
        );
    }
}
