//! One way to serve a port.
//!
//! "The kernel task acts as a server", and so does every data manager and
//! service built on it: a port whose receiver loops receive, decode,
//! perform, reply. [`serve`] is that loop, written once. It runs on its
//! own named thread, drains its inbox in batches of [`SERVE_BATCH`], makes
//! each message's causal chain the thread's own before handing it over,
//! sends the handler's answer to the message's reply port, and stops only
//! on the message that carries its [`Server`]'s key — so a client that can
//! send to the port cannot stop it, whatever id it picks.

use crate::{IpcError, Message, MsgItem, PortName, PortSpace, ReceiveRight, SendRight};
use machsim::trace::{self, CorrelationId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages a server drains per batched receive: a burst of small
/// requests costs one dequeue.
pub const SERVE_BATCH: usize = 32;

/// How long a server waits for room on a reply port: a client that has
/// stopped listening must not wedge its server.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The id of every stop message. The id alone stops nothing: a server
/// stops only on the one that carries its key, and hands any other to its
/// handler like every message.
pub const SERVER_STOP: u32 = 0x2FFF;

/// What a server receives from.
pub enum Inbox {
    /// One port.
    Port(ReceiveRight),
    /// A port space's default group of enabled ports; the owner's stop
    /// travels on the named one.
    Space(Arc<PortSpace>, PortName),
}

impl From<ReceiveRight> for Inbox {
    fn from(port: ReceiveRight) -> Inbox {
        Inbox::Port(port)
    }
}

impl Inbox {
    fn receive(&self) -> Result<Vec<Message>, IpcError> {
        match self {
            Inbox::Port(port) => port.receive_many(SERVE_BATCH, None),
            Inbox::Space(space, _) => space
                .receive_default_many(SERVE_BATCH, None)
                .map(|(_, batch)| batch),
        }
    }

    fn port(&self) -> SendRight {
        match self {
            Inbox::Port(port) => port.make_send(),
            Inbox::Space(space, name) => space
                .send_right(*name)
                .expect("the stop port is in the space"),
        }
    }
}

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
    /// The port the server receives on; for a port-space inbox, the port
    /// its stop travels on.
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

/// Serves `inbox` on a thread named `name`: each message goes to
/// `handler`, and its answer, if any, to the message's reply port with a
/// timed `send` — an RPC reply to a client parked on its reply port is a
/// handoff.
///
/// The handler gets the message whole, reply port included, so a
/// forwarder (the network proxy) can pass the reply port on; the server
/// keeps its own copy of that right for the answer.
pub fn serve<H>(name: impl Into<String>, inbox: impl Into<Inbox>, mut handler: H) -> Server
where
    H: FnMut(Message) -> Option<Message> + Send + 'static,
{
    let inbox = inbox.into();
    let key = StopKey(Arc::new(()));
    let stop = key.clone();
    let port = inbox.port();
    let thread = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while let Ok(batch) = inbox.receive() {
                for msg in batch {
                    if stop.opens(&msg) {
                        return;
                    }
                    // A batched receive adopted only its last message's
                    // chain; a burst mixes many.
                    trace::set_current_correlation(CorrelationId::from_raw(msg.correlation));
                    trace::set_current_span(msg.span_context());
                    let reply = msg.reply.clone();
                    if let (Some(answer), Some(reply)) = (handler(msg), reply) {
                        let _ = reply.send(answer, Some(REPLY_TIMEOUT));
                    }
                }
            }
        })
        .expect("spawn server thread");
    Server {
        port,
        key,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machsim::Machine;

    fn echo(machine: &Machine) -> Server {
        let (rx, _) = ReceiveRight::allocate(machine);
        serve("echo", rx, |msg| Some(Message::new(msg.id + 1)))
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
    fn a_space_server_stops_on_its_named_port() {
        let m = Machine::default_machine();
        let space = Arc::new(PortSpace::new(&m));
        let (a, b) = (space.port_allocate(), space.port_allocate());
        space.port_enable(a).expect("enable a");
        space.port_enable(b).expect("enable b");
        let server = serve("space", Inbox::Space(space.clone(), a), |msg| {
            Some(Message::new(msg.id))
        });
        let to_b = space.send_right(b).expect("b's right");
        assert_eq!(to_b.rpc(Message::new(7), None, None).expect("b").id, 7);
        drop(server);
    }
}
