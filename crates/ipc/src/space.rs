//! Per-task port name spaces and the default port group (Table 3-2).
//!
//! Tasks do not hold kernel port objects directly; they hold task-local
//! *names* that the kernel translates to rights. A [`PortSpace`] is that
//! translation table plus the *default group of ports*: the set of enabled
//! ports that a bare `msg_receive` listens on, managed with `port_enable`
//! and `port_disable`, and interrogated with `port_messages`.

use crate::error::IpcError;
use crate::message::Message;
use crate::port::{PortStatus, ReceiveRight, SendRight, SetWaker};
use crate::IpcContext;
use machsim::wall;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

/// A task-local port name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortName(pub u32);

impl fmt::Display for PortName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name#{}", self.0)
    }
}

/// One name-table entry: the rights this task holds under the name.
struct Entry {
    receive: Option<ReceiveRight>,
    send: Option<SendRight>,
    enabled: bool,
}

struct SpaceInner {
    next_name: u32,
    entries: BTreeMap<PortName, Entry>,
    /// The port the default group last delivered from: the next scan
    /// starts after it, so no busy port starves the others.
    last_served: PortName,
}

/// A task's port right name space.
pub struct PortSpace {
    ctx: IpcContext,
    waker: Arc<SetWaker>,
    inner: Mutex<SpaceInner>,
}

impl fmt::Debug for PortSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortSpace({} names)", self.inner.lock().entries.len())
    }
}

impl PortSpace {
    /// Creates an empty space.
    pub fn new(ctx: &IpcContext) -> Self {
        Self {
            ctx: ctx.clone(),
            waker: Arc::new(SetWaker::default()),
            inner: Mutex::new(SpaceInner {
                next_name: 1,
                entries: BTreeMap::new(),
                last_served: PortName(0),
            }),
        }
    }

    fn fresh_name(inner: &mut SpaceInner) -> PortName {
        let name = PortName(inner.next_name);
        inner.next_name += 1;
        name
    }

    /// `port_allocate`: creates a new port; this task holds both rights.
    pub fn port_allocate(&self) -> PortName {
        let (rx, tx) = ReceiveRight::allocate(&self.ctx);
        let mut inner = self.inner.lock();
        let name = Self::fresh_name(&mut inner);
        inner.entries.insert(
            name,
            Entry {
                receive: Some(rx),
                send: Some(tx),
                enabled: false,
            },
        );
        name
    }

    /// `port_deallocate`: drops this task's rights under `name`.
    ///
    /// If the receive right lived here, the port is destroyed and senders
    /// are notified — "When the receive rights to a port are destroyed,
    /// that port is destroyed and tasks holding send rights are notified."
    pub fn port_deallocate(&self, name: PortName) -> Result<(), IpcError> {
        let entry = self.inner.lock().entries.remove(&name);
        match entry {
            // Dropping the entry (outside the lock) releases the rights.
            Some(_) => Ok(()),
            None => Err(IpcError::InvalidName),
        }
    }

    /// `port_enable`: adds the port to the default group for `msg_receive`.
    pub fn port_enable(&self, name: PortName) -> Result<(), IpcError> {
        self.set_enabled(name, true)
    }

    /// `port_disable`: removes the port from the default group.
    pub fn port_disable(&self, name: PortName) -> Result<(), IpcError> {
        self.set_enabled(name, false)
    }

    fn set_enabled(&self, name: PortName, enabled: bool) -> Result<(), IpcError> {
        let mut inner = self.inner.lock();
        let entry = inner.entries.get_mut(&name).ok_or(IpcError::InvalidName)?;
        let rx = entry.receive.as_ref().ok_or(IpcError::InvalidRight)?;
        rx.set_group(enabled.then(|| self.waker.clone()));
        entry.enabled = enabled;
        Ok(())
    }

    /// `port_messages`: names of enabled ports with queued messages.
    pub fn port_messages(&self) -> Vec<PortName> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .filter(|(_, e)| e.enabled)
            .filter(|(_, e)| e.receive.as_ref().is_some_and(|r| r.queued() > 0))
            .map(|(n, _)| *n)
            .collect()
    }

    /// `port_status`: queue depth, backlog, receiver and sender counts.
    pub fn port_status(&self, name: PortName) -> Result<PortStatus, IpcError> {
        let inner = self.inner.lock();
        let entry = inner.entries.get(&name).ok_or(IpcError::InvalidName)?;
        if let Some(rx) = &entry.receive {
            Ok(rx.status())
        } else if let Some(tx) = &entry.send {
            Ok(tx.status())
        } else {
            Err(IpcError::InvalidRight)
        }
    }

    /// `port_set_backlog`: limits messages waiting on this port.
    pub fn port_set_backlog(&self, name: PortName, backlog: usize) -> Result<(), IpcError> {
        let inner = self.inner.lock();
        let entry = inner.entries.get(&name).ok_or(IpcError::InvalidName)?;
        let rx = entry.receive.as_ref().ok_or(IpcError::InvalidRight)?;
        rx.set_backlog(backlog);
        Ok(())
    }

    /// `msg_send` by name.
    pub fn send(
        &self,
        name: PortName,
        msg: Message,
        timeout: Option<Duration>,
    ) -> Result<(), IpcError> {
        let tx = self.send_right(name)?;
        tx.send(msg, timeout)
    }

    /// `msg_receive` from a specific named port. The name is resolved
    /// once and the wait is on the port itself: deallocating the name
    /// destroys the port and ends the wait with `PortDied`, and extracting
    /// the right ends it with `InvalidRight`. A zero timeout takes a
    /// queued message or returns `WouldBlock` at once, as on a
    /// [`ReceiveRight`].
    pub fn receive(&self, name: PortName, timeout: Option<Duration>) -> Result<Message, IpcError> {
        let receive = {
            let inner = self.inner.lock();
            let entry = inner.entries.get(&name).ok_or(IpcError::InvalidName)?;
            let rx = entry.receive.as_ref().ok_or(IpcError::InvalidRight)?;
            rx.receive_named()
        };
        receive(timeout)
    }

    /// `msg_receive` from the default group of enabled ports, round-robin:
    /// the scan resumes after the port it delivered from last.
    ///
    /// Returns the name of the port the message arrived on.
    pub fn receive_default(
        &self,
        timeout: Option<Duration>,
    ) -> Result<(PortName, Message), IpcError> {
        let (name, mut burst) = self.receive_burst(1, timeout)?;
        // A burst holds at least one message.
        Ok((name, burst.remove(0)))
    }

    /// [`PortSpace::receive_default`] in a burst: up to `max` messages
    /// queued on the port the scan picks, taken under one hold of its
    /// lock. The next scan starts after that port, so a busy port still
    /// cannot starve the others. A receiver parked here is one a send to
    /// an empty enabled port hands off to.
    pub fn receive_burst(
        &self,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<(PortName, Vec<Message>), IpcError> {
        let deadline = timeout.map(wall::Deadline::after);
        loop {
            let seen = self.waker.generation();
            {
                let mut inner = self.inner.lock();
                let SpaceInner {
                    entries,
                    last_served,
                    ..
                } = &mut *inner;
                let after = (Bound::Excluded(*last_served), Bound::Unbounded);
                let scan = entries.range(after).chain(entries.range(..=*last_served));
                let mut any_enabled = false;
                for (name, entry) in scan.filter(|(_, e)| e.enabled) {
                    any_enabled = true;
                    let take = |rx: &ReceiveRight| rx.receive_many(max, Some(Duration::ZERO));
                    if let Some(Ok(burst)) = entry.receive.as_ref().map(take) {
                        *last_served = *name;
                        return Ok((*name, burst));
                    }
                }
                if !any_enabled {
                    return Err(IpcError::NothingEnabled);
                }
            }
            if !self.waker.wait(seen, deadline.as_ref()) {
                return Err(IpcError::Timeout);
            }
        }
    }

    /// Installs a send right received in a message under a fresh name.
    pub fn insert_send(&self, right: SendRight) -> PortName {
        let mut inner = self.inner.lock();
        let name = Self::fresh_name(&mut inner);
        inner.entries.insert(
            name,
            Entry {
                receive: None,
                send: Some(right),
                enabled: false,
            },
        );
        name
    }

    /// Installs a receive right received in a message under a fresh name.
    pub fn insert_receive(&self, right: ReceiveRight) -> PortName {
        let mut inner = self.inner.lock();
        let name = Self::fresh_name(&mut inner);
        let send = Some(right.make_send());
        inner.entries.insert(
            name,
            Entry {
                receive: Some(right),
                send,
                enabled: false,
            },
        );
        name
    }

    /// Clones out a send right for `name` (e.g. to put in a message).
    pub fn send_right(&self, name: PortName) -> Result<SendRight, IpcError> {
        let inner = self.inner.lock();
        let entry = inner.entries.get(&name).ok_or(IpcError::InvalidName)?;
        entry.send.clone().ok_or(IpcError::InvalidRight)
    }

    /// Extracts the receive right for `name`, leaving only send rights.
    /// The port leaves the default group, and a directed receive waiting
    /// on it here ends with `InvalidRight`.
    ///
    /// Used to move receivership to another task in a message.
    pub fn extract_receive(&self, name: PortName) -> Result<ReceiveRight, IpcError> {
        let mut inner = self.inner.lock();
        let entry = inner.entries.get_mut(&name).ok_or(IpcError::InvalidName)?;
        let rx = entry.receive.take().ok_or(IpcError::InvalidRight)?;
        entry.enabled = false;
        rx.moved();
        Ok(rx)
    }

    /// Number of names in the table.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgItem;
    use machsim::stats::keys;
    use std::thread;

    fn space() -> PortSpace {
        PortSpace::new(&IpcContext::default_machine())
    }

    #[test]
    fn allocate_send_receive() {
        let s = space();
        let p = s.port_allocate();
        s.send(p, Message::new(3), None).unwrap();
        assert_eq!(s.receive(p, None).unwrap().id, 3);
    }

    #[test]
    fn deallocate_kills_port() {
        let s = space();
        let p = s.port_allocate();
        let tx = s.send_right(p).unwrap();
        s.port_deallocate(p).unwrap();
        assert!(!tx.is_alive());
        assert_eq!(
            s.send(p, Message::new(0), None).unwrap_err(),
            IpcError::InvalidName
        );
    }

    #[test]
    fn unknown_name_errors() {
        let s = space();
        assert_eq!(
            s.port_status(PortName(999)).unwrap_err(),
            IpcError::InvalidName
        );
        assert_eq!(
            s.port_deallocate(PortName(999)).unwrap_err(),
            IpcError::InvalidName
        );
    }

    #[test]
    fn default_group_requires_enable() {
        let s = space();
        let _p = s.port_allocate();
        assert_eq!(
            s.receive_default(Some(Duration::from_millis(5)))
                .unwrap_err(),
            IpcError::NothingEnabled
        );
    }

    #[test]
    fn default_group_receives_from_any_enabled() {
        let s = space();
        let a = s.port_allocate();
        let b = s.port_allocate();
        s.port_enable(a).unwrap();
        s.port_enable(b).unwrap();
        s.send(b, Message::new(20), None).unwrap();
        let (from, msg) = s.receive_default(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(from, b);
        assert_eq!(msg.id, 20);
    }

    #[test]
    fn default_group_takes_turns_between_busy_ports() {
        let s = space();
        let (a, b) = (s.port_allocate(), s.port_allocate());
        for name in [a, b] {
            s.port_enable(name).expect("the space holds the port");
            for _ in 0..4 {
                s.send(name, Message::new(0), None).expect("room");
            }
        }
        let next = || s.receive_default(Some(Duration::ZERO)).expect("queued");
        let order: Vec<PortName> = (0..8).map(|_| next().0).collect();
        assert_eq!(order, [a, b, a, b, a, b, a, b]);
    }

    #[test]
    fn default_group_wakes_blocked_receiver() {
        let s = Arc::new(space());
        let a = s.port_allocate();
        s.port_enable(a).unwrap();
        let tx = s.send_right(a).unwrap();
        let s2 = s.clone();
        let h = thread::spawn(move || s2.receive_default(Some(Duration::from_secs(5))));
        machsim::wall::sleep(Duration::from_millis(30));
        tx.send(Message::new(8), None).unwrap();
        let (from, msg) = h.join().unwrap().unwrap();
        assert_eq!(from, a);
        assert_eq!(msg.id, 8);
    }

    /// Blocks a thread in `receive_default(timeout)` on `s` and returns it
    /// once the group reports it parked.
    fn parked_receiver(
        s: &Arc<PortSpace>,
        timeout: Option<Duration>,
    ) -> thread::JoinHandle<Result<(PortName, Message), IpcError>> {
        let s2 = s.clone();
        let h = thread::spawn(move || s2.receive_default(timeout));
        assert!(
            wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
                s.waker.parked() == 1
            }),
            "the receiver never parked on the group"
        );
        h
    }

    #[test]
    fn a_send_to_a_group_with_a_parked_receiver_is_a_handoff() {
        let m = IpcContext::default_machine();
        let s = Arc::new(PortSpace::new(&m));
        let a = s.port_allocate();
        s.port_enable(a).expect("the space holds a");
        let tx = s.send_right(a).expect("the space holds a");
        let h = parked_receiver(&s, None);
        let msg = Message::new(8).with(MsgItem::bytes(vec![0; 64]));
        let copies = m.cost.copy_cost_ns(msg.inline_len() as u64);
        let (before, handoffs) = (m.clock.now_ns(), m.stats.get(keys::IPC_HANDOFFS));
        tx.send(msg, None).expect("room on a");
        assert_eq!(m.clock.now_ns() - before, m.cost.handoff_ns + copies);
        assert_eq!(m.stats.get(keys::IPC_HANDOFFS), handoffs + 1);
        assert_eq!(
            h.join()
                .expect("the receiver returns")
                .map(|(n, m)| (n, m.id)),
            Ok((a, 8))
        );
    }

    #[test]
    fn a_timed_directed_receive_keeps_an_enabled_ports_group_wakeups() {
        let s = Arc::new(space());
        let a = s.port_allocate();
        s.port_enable(a).expect("the space holds a");
        assert_eq!(
            s.receive(a, Some(Duration::from_millis(10))).unwrap_err(),
            IpcError::Timeout
        );
        let tx = s.send_right(a).expect("the space holds a");
        let h = parked_receiver(&s, Some(Duration::from_secs(2)));
        tx.send(Message::new(8), None).expect("room on a");
        assert_eq!(
            h.join()
                .expect("the receiver returns")
                .map(|(n, m)| (n, m.id)),
            Ok((a, 8))
        );
    }

    #[test]
    fn a_burst_empties_one_port_and_the_next_scan_starts_after_it() {
        let s = space();
        let (a, b) = (s.port_allocate(), s.port_allocate());
        for name in [a, b] {
            s.port_enable(name).expect("the space holds the port");
            for id in 0..3 {
                s.send(name, Message::new(id), None)
                    .expect("room on the port");
            }
        }
        let burst = || {
            let (from, msgs) = s.receive_burst(32, Some(Duration::ZERO)).expect("queued");
            (from, msgs.iter().map(|m| m.id).collect::<Vec<_>>())
        };
        assert_eq!(burst(), (a, vec![0, 1, 2]));
        assert_eq!(burst(), (b, vec![0, 1, 2]));
    }

    #[test]
    fn a_directed_receive_ends_when_its_right_moves_or_dies() {
        let s = Arc::new(space());
        let (a, b) = (s.port_allocate(), s.port_allocate());
        let wait_on = |name| {
            let s2 = s.clone();
            thread::spawn(move || s2.receive(name, Some(Duration::from_secs(5))))
        };
        let (moving, dying) = (wait_on(a), wait_on(b));
        wall::sleep(Duration::from_millis(50));
        let rx = s.extract_receive(a).expect("the space holds a");
        s.port_deallocate(b).expect("the space holds b");
        assert_eq!(
            moving.join().expect("the receiver returns").unwrap_err(),
            IpcError::InvalidRight
        );
        assert_eq!(
            dying.join().expect("the receiver returns").unwrap_err(),
            IpcError::PortDied
        );
        // The right receives wherever it went.
        s.send(a, Message::new(5), None)
            .expect("a keeps its send right");
        assert_eq!(rx.try_receive().map(|m| m.id), Some(5));
    }

    #[test]
    fn disable_removes_from_group() {
        let s = space();
        let a = s.port_allocate();
        s.port_enable(a).unwrap();
        s.port_disable(a).unwrap();
        s.send(a, Message::new(1), None).unwrap();
        assert_eq!(
            s.receive_default(Some(Duration::from_millis(5)))
                .unwrap_err(),
            IpcError::NothingEnabled
        );
        // The message is still there for a directed receive.
        assert_eq!(s.receive(a, None).unwrap().id, 1);
    }

    #[test]
    fn port_messages_lists_ready_ports() {
        let s = space();
        let a = s.port_allocate();
        let b = s.port_allocate();
        s.port_enable(a).unwrap();
        s.port_enable(b).unwrap();
        s.send(b, Message::new(0), None).unwrap();
        assert_eq!(s.port_messages(), vec![b]);
        s.send(a, Message::new(0), None).unwrap();
        assert_eq!(s.port_messages(), vec![a, b]);
    }

    #[test]
    fn status_and_backlog_by_name() {
        let s = space();
        let a = s.port_allocate();
        s.port_set_backlog(a, 2).unwrap();
        s.send(a, Message::new(0), None).unwrap();
        let st = s.port_status(a).unwrap();
        assert_eq!(st.num_msgs, 1);
        assert_eq!(st.backlog, 2);
    }

    #[test]
    fn rights_move_between_spaces() {
        let ctx = IpcContext::default_machine();
        let alice = PortSpace::new(&ctx);
        let bob = PortSpace::new(&ctx);
        let ap = alice.port_allocate();
        // Alice sends Bob a send right to her port via a carrier port.
        let carrier = bob.port_allocate();
        let carrier_tx = bob.send_right(carrier).unwrap();
        let right_for_bob = alice.send_right(ap).unwrap();
        carrier_tx
            .send(
                Message::new(1).with(MsgItem::SendRights(vec![right_for_bob])),
                None,
            )
            .unwrap();
        let m = bob.receive(carrier, None).unwrap();
        let MsgItem::SendRights(mut rights) = m.body.into_iter().next().unwrap() else {
            panic!("expected rights");
        };
        let name_in_bob = bob.insert_send(rights.pop().unwrap());
        bob.send(name_in_bob, Message::new(99), None).unwrap();
        assert_eq!(alice.receive(ap, None).unwrap().id, 99);
    }

    #[test]
    fn receivership_migrates() {
        let ctx = IpcContext::default_machine();
        let alice = PortSpace::new(&ctx);
        let bob = PortSpace::new(&ctx);
        let ap = alice.port_allocate();
        alice.send(ap, Message::new(7), None).unwrap();
        let rx = alice.extract_receive(ap).unwrap();
        let name_in_bob = bob.insert_receive(rx);
        assert_eq!(bob.receive(name_in_bob, None).unwrap().id, 7);
        // Alice can still send (she kept a send right under the old name).
        alice.send(ap, Message::new(8), None).unwrap();
        assert_eq!(bob.receive(name_in_bob, None).unwrap().id, 8);
    }

    #[test]
    fn a_zero_timeout_directed_receive_does_not_wait() {
        let s = space();
        let a = s.port_allocate();
        let poll = || s.receive(a, Some(Duration::ZERO)).map(|m| m.id);
        assert_eq!(poll(), Err(IpcError::WouldBlock));
        s.send(a, Message::new(4), None).expect("room on the port");
        assert_eq!(poll(), Ok(4));
    }

    #[test]
    fn directed_receive_timeout() {
        let s = space();
        let a = s.port_allocate();
        assert_eq!(
            s.receive(a, Some(Duration::from_millis(10))).unwrap_err(),
            IpcError::Timeout
        );
    }

    #[test]
    fn len_tracks_names() {
        let s = space();
        assert!(s.is_empty());
        let a = s.port_allocate();
        let _b = s.port_allocate();
        assert_eq!(s.len(), 2);
        s.port_deallocate(a).unwrap();
        assert_eq!(s.len(), 1);
    }
}
