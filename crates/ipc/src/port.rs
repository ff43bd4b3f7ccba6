//! Ports: protected bounded message queues with capability-style rights.
//!
//! "A port is a communication channel. Logically, a port is a finite length
//! queue for messages protected by the kernel. A port may have any number
//! of senders but only one receiver."
//!
//! Rights are modeled directly in the type system:
//!
//! * [`SendRight`] is cloneable — any number of senders.
//! * [`ReceiveRight`] is not cloneable — exactly one receiver. Dropping it
//!   destroys the port; queued messages are discarded, blocked senders and
//!   receivers are woken with [`IpcError::PortDied`], and death
//!   notifications are posted to subscribed ports ("tasks holding send
//!   rights are notified").
//!
//! # Concurrency
//!
//! A port is a monitor. One lock — `PortCore::control`, class `port`, the
//! innermost rank of the declared hierarchy (see `machsim::lockdep`) —
//! guards the one FIFO and everything else the port protects: backlog,
//! death, death subscriptions, the link to its port group and the count
//! of parked receivers. Two `machsim::wall::Signal`s hang off it, one for receivers
//! waiting for a message and one for senders waiting for room, and every
//! `block` re-checks its predicate in a loop (machlint L8). Whether there
//! is room, whether anyone needs waking and whether the port died are
//! expressions read under that lock, so no ordering between separate
//! counters has to be argued. Notifies and group pings happen after the
//! lock is released, and messages the port discards are dropped outside
//! it: dropping a message can destroy rights it carries, which takes
//! other ports' locks and may post a death notification back to this one.
//!
//! A port is enabled in at most one group (`PortSpace::port_enable`), whose
//! `SetWaker` locks its own generation and parked receivers. A send reads
//! that count under the port lock: the lock order is port, then set, and
//! nothing takes them the other way round (a group receiver lets go of the
//! set before it scans its ports, and parks holding only the set's lock).
//!
//! The RPC *handoff* is a cost class of an ordinary send, not a second
//! container: a message sent to an empty queue while a receiver is parked
//! on the port, or on the group it is enabled in, is charged `handoff_ns`
//! instead of `message_ns` and travels through the same FIFO, so it
//! cannot overtake anything.
//!
//! Splitting the queue by sending thread was built and measured: it lost
//! on every workload that sends a message (DESIGN.md §5, EXPERIMENTS.md
//! ablation A5). Measure a port contending before partitioning it again.
//!
//! # Kernel ports
//!
//! A port the kernel receives on has no queue and no receiving thread: it
//! is allocated bound to a handler ([`ReceiveRight::allocate_kernel`]), and
//! every send runs that handler on the sending thread, outside the lock —
//! Mach's `ipc_kobject_server` — and sends its answer as a server would.
//! Each hop is charged by the one rule, whichever thread performs it: the
//! request as a queued send plus its receive, and the answer as a queued
//! send too, since it leaves before the caller parks on its reply port. A
//! port-death notice, the kernel telling itself, crosses nothing and is
//! not charged. A bound port is born bound, so no message is ever queued
//! on it for a later one to overtake.

use crate::error::IpcError;
use crate::message::{Message, MsgItem, MSG_ID_PORT_DEATH};
use crate::IpcContext;
use machsim::lockdep::{ClassMutex, ClassMutexGuard, LockClass};
use machsim::stats::keys;
use machsim::trace::{self, CorrelationId};
use machsim::wall::{Deadline, Signal};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Default queue backlog, matching historical Mach's `PORT_BACKLOG_DEFAULT`.
pub const DEFAULT_BACKLOG: usize = 5;

/// Globally unique port identity (kernel-internal; tasks use local names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u64);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port#{}", self.0)
    }
}

static NEXT_PORT_ID: AtomicU64 = AtomicU64::new(1);

/// Status information returned by `port_status` (Table 3-2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortStatus {
    /// Messages currently queued.
    pub num_msgs: usize,
    /// Maximum number of queued messages before senders block.
    pub backlog: usize,
    /// Whether a receive right still exists.
    pub has_receiver: bool,
    /// Number of live send rights.
    pub senders: usize,
}

/// A port group's wake-up channel (the default port group): a generation
/// every arrival on an enabled port advances, and the receivers parked
/// on it, whom a send may hand off to.
#[derive(Debug, Default)]
pub(crate) struct SetWaker {
    state: Mutex<Group>,
    signal: Signal,
}

#[derive(Debug, Default)]
struct Group {
    generation: u64,
    /// Receivers parked on the current generation; a ping wakes them all.
    parked: usize,
}

impl SetWaker {
    /// Current generation; pass to [`SetWaker::wait`] to detect pings.
    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Receivers parked on the group, whom no ping has woken yet.
    pub(crate) fn parked(&self) -> usize {
        self.state.lock().parked
    }

    /// Signals that some enabled port may have become readable. With
    /// nobody parked it notifies no one: a notify is a syscall regardless.
    pub(crate) fn ping(&self) {
        let mut st = self.state.lock();
        st.generation += 1;
        if std::mem::take(&mut st.parked) > 0 {
            self.signal.notify_all();
        }
    }

    /// Waits, counted as parked, until the generation moves past `seen` or
    /// `deadline` passes. Returns `false` on timeout. The caller's deadline
    /// spans all its waits, so a ping for a port that turns out to be empty
    /// resumes waiting for the *remainder*, never a fresh full timeout.
    pub(crate) fn wait(&self, seen: u64, deadline: Option<&Deadline>) -> bool {
        let mut st = self.state.lock();
        let mut expired = false;
        while st.generation == seen && !expired {
            st.parked += 1;
            expired = self.signal.block(&mut st, deadline);
            // A ping that moved the generation took this receiver off the count.
            if st.generation == seen {
                st.parked -= 1;
            }
        }
        st.generation != seen
    }
}

/// What a kernel port does with each message sent to it, on the sender's
/// thread: its answer, if any, goes to the message's reply port.
type KernelHandler = Arc<dyn Fn(Message) -> Option<Message> + Send + Sync>;

/// Everything a port protects, under its one lock.
struct State {
    queue: VecDeque<Message>,
    /// A kernel port's handler, until the port dies. A port that has one
    /// never queues anything.
    kernel: Option<KernelHandler>,
    /// Queued messages at which senders start to block.
    backlog: usize,
    /// The receive right is gone. Nothing is queued after this is set.
    dead: bool,
    /// Whether a send to a parked receiver is charged as a handoff.
    handoff_enabled: bool,
    /// Receivers parked on `recv`.
    recv_waiting: usize,
    /// Ports to which a death notification should be posted on destruction.
    death_subs: Vec<Weak<PortCore>>,
    /// The one port group the port is enabled in: pinged on every
    /// arrival, and a send to an empty queue hands off to a receiver
    /// parked on it.
    group: Option<Arc<SetWaker>>,
    /// Times the receive right has left a space: a directed receive by
    /// name ends when the right it resolved moves.
    moves: u64,
}

type StateGuard<'a> = ClassMutexGuard<'a, State>;

/// How a message crosses the port, which decides what the hop costs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    /// Queue insertion behind this many messages, plus a wakeup: `message_ns`.
    Queued(u32),
    /// Donation to a receiver already parked on an empty queue: the
    /// payload still moves, but the sender's thread hands the processor
    /// to the receiver instead of queueing and rescheduling: `handoff_ns`.
    Handoff,
}

/// What a send does when the queue is at its backlog.
#[derive(Clone, Copy)]
enum Full {
    /// `msg_send`: block up to the timeout (`None` forever, zero never).
    Wait(Option<Duration>),
    /// Kernel notification: queue it regardless, so the kernel never
    /// blocks on a user queue (Section 6.2.3).
    Exceed,
}

/// The kernel object behind both kinds of rights.
pub(crate) struct PortCore {
    id: PortId,
    ctx: IpcContext,
    control: ClassMutex<State>,
    /// Receivers wait here for a message (or the port's death).
    recv: Signal,
    /// Senders wait here for room (or the port's death).
    send: Signal,
    senders: AtomicUsize,
}

impl fmt::Debug for PortCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortCore({})", self.id)
    }
}

impl PortCore {
    fn new(ctx: IpcContext, kernel: Option<KernelHandler>) -> Arc<Self> {
        Arc::new(PortCore {
            id: PortId(NEXT_PORT_ID.fetch_add(1, Ordering::Relaxed)),
            ctx,
            control: ClassMutex::new(
                LockClass::Port,
                State {
                    queue: VecDeque::new(),
                    kernel,
                    backlog: DEFAULT_BACKLOG,
                    dead: false,
                    handoff_enabled: true,
                    recv_waiting: 0,
                    death_subs: Vec::new(),
                    group: None,
                    moves: 0,
                },
            ),
            recv: Signal::new(),
            send: Signal::new(),
            senders: AtomicUsize::new(0),
        })
    }

    // ----- cost accounting -----

    /// Charges the simulated cost of moving `msg` by `hop`, bumps
    /// counters, and stamps the message's trace context.
    fn charge_send(&self, msg: &mut Message, hop: Hop) {
        let cost = &self.ctx.cost;
        let inline = msg.inline_len() as u64;
        let ool_pages = msg.ool_len().div_ceil(4096) as u64;
        let hop_ns = match hop {
            Hop::Queued(_) => cost.message_ns,
            Hop::Handoff => cost.handoff_ns,
        };
        self.ctx
            .clock
            .charge(hop_ns + cost.copy_cost_ns(inline) + cost.remap_cost_ns(ool_pages));
        self.ctx.stats.incr(keys::MSG_SENT);
        if hop == Hop::Handoff {
            self.ctx.stats.incr(keys::IPC_HANDOFFS);
        }
        self.ctx.stats.add(keys::BYTES_COPIED, inline);
        self.ctx.stats.add(keys::PAGES_REMAPPED, ool_pages);
        self.stamp(msg, hop);
    }

    /// Batch variant of [`PortCore::charge_send`] for a run of messages
    /// queued behind `ahead`: one clock charge and one counter add over
    /// the run, and each message stamped as a single send is.
    fn charge_send_batch(&self, msgs: &mut [Message], ahead: usize) {
        let cost = &self.ctx.cost;
        let mut total_ns = 0u64;
        let mut bytes = 0u64;
        let mut pages = 0u64;
        for m in msgs.iter() {
            let inline = m.inline_len() as u64;
            let ool_pages = m.ool_len().div_ceil(4096) as u64;
            total_ns += cost.message_ns + cost.copy_cost_ns(inline) + cost.remap_cost_ns(ool_pages);
            bytes += inline;
            pages += ool_pages;
        }
        self.ctx.clock.charge(total_ns);
        self.ctx.stats.add(keys::MSG_SENT, msgs.len() as u64);
        self.ctx.stats.add(keys::BYTES_COPIED, bytes);
        self.ctx.stats.add(keys::PAGES_REMAPPED, pages);
        if msgs.len() > 1 {
            self.ctx.stats.incr(keys::IPC_BATCHES);
        }
        for (i, m) in msgs.iter_mut().enumerate() {
            self.stamp(m, Hop::Queued((ahead + i) as u32));
        }
    }

    /// Stamps one sent message's trace context: the sending thread's
    /// correlation id if it has none, and the send time. A correlated
    /// message also gets its parent span and the span of its `hop`; an
    /// uncorrelated one records nothing in the trace ring.
    fn stamp(&self, msg: &mut Message, hop: Hop) {
        if msg.correlation == 0 {
            msg.correlation = trace::current_correlation().map_or(0, CorrelationId::raw);
        }
        let cid = CorrelationId::from_raw(msg.correlation);
        if cid.is_some() {
            if msg.parent_span == 0 {
                msg.parent_span = trace::ambient_span_for(msg.correlation);
            }
            match hop {
                // The queue span covers the message's time between
                // enqueue and dequeue — the profiler's per-hop queueing
                // delay — and records the messages queued ahead.
                Hop::Queued(depth) => {
                    msg.queue_span =
                        self.ctx
                            .span_open_with("ipc.queued", msg.parent_span, cid, Some(depth));
                }
                // A handoff's queueing delay is zero: emit a
                // zero-duration span and re-parent the message under it
                // so the receiver's work shows up below the handoff in
                // the tree.
                Hop::Handoff => {
                    let hs = self
                        .ctx
                        .span_open_with("ipc.handoff", msg.parent_span, cid, None);
                    self.ctx.span_close_with("ipc.handoff", hs, cid);
                    msg.parent_span = hs;
                }
            }
        }
        msg.sent_at_ns = self.ctx.clock.now_ns();
    }

    /// Receive-side bookkeeping for a run of dequeued messages: one
    /// counter add for the run, a send-to-receive latency sample and the
    /// close of its `ipc.queued` span per message (they are the data the
    /// histograms and the span tree exist for), and adoption of the last
    /// message's correlation id and span by the receiving thread.
    fn finish_recv(&self, msgs: &[Message]) {
        let Some(last) = msgs.last() else { return };
        self.ctx.stats.add(keys::MSG_RECEIVED, msgs.len() as u64);
        if msgs.len() > 1 {
            self.ctx.stats.incr(keys::IPC_BATCHES);
        }
        let now = self.ctx.clock.now_ns();
        for m in msgs {
            if m.sent_at_ns != 0 {
                self.ctx.latency.record(
                    trace::keys::SEND_TO_RECEIVE,
                    now.saturating_sub(m.sent_at_ns),
                );
            }
            if m.queue_span != 0 {
                self.ctx.span_close_with(
                    "ipc.queued",
                    m.queue_span,
                    CorrelationId::from_raw(m.correlation),
                );
            }
        }
        trace::set_current_correlation(CorrelationId::from_raw(last.correlation));
        trace::set_current_span(last.span_context());
    }

    /// The receive half of a kernel port's hop, on the sending thread: the
    /// message is served as a server serves one, and the sender's own
    /// causal context is restored after it.
    fn deliver(&self, kernel: &KernelHandler, msg: Message) {
        let (cid, span) = (trace::current_correlation(), trace::current_span());
        self.finish_recv(std::slice::from_ref(&msg));
        crate::serve::serve_one(msg, &**kernel);
        trace::set_current_correlation(cid);
        trace::set_current_span(span);
    }

    // ----- send path -----

    /// Waits, under the lock, until `full` lets at least one message be
    /// queued, and returns how many may be. `deadline` is filled in on
    /// the first wait and reused by every later one, so a sender that is
    /// woken and finds the room gone waits only for the remainder. On
    /// expiry death beats room found late beats `Timeout`: a dead port
    /// is gone for good, so a retry could never succeed.
    fn room(
        &self,
        st: &mut StateGuard<'_>,
        full: Full,
        deadline: &mut Option<Deadline>,
    ) -> Result<usize, IpcError> {
        let mut expired = false;
        loop {
            if st.dead {
                return Err(IpcError::PortDied);
            }
            let Full::Wait(timeout) = full else {
                return Ok(usize::MAX);
            };
            if st.queue.len() < st.backlog {
                return Ok(st.backlog - st.queue.len());
            }
            if expired {
                return Err(IpcError::Timeout);
            }
            if timeout.is_some_and(|t| t.is_zero()) {
                return Err(IpcError::WouldBlock);
            }
            if deadline.is_none() {
                *deadline = timeout.map(Deadline::after);
            }
            expired = self.send.block(st.inner_mut(), deadline.as_ref());
        }
    }

    /// Ends a send: releases the lock, then wakes a parked receiver and
    /// pings the group this port is enabled in. Who needs waking is read
    /// under the same hold that queued the message, so a receiver either
    /// saw the message before parking or is counted here.
    fn publish(&self, st: StateGuard<'_>) {
        let wake = st.recv_waiting > 0;
        let group = st.group.clone();
        drop(st);
        if wake {
            self.recv.notify_one();
        }
        if let Some(group) = group {
            group.ping();
        }
    }

    /// `msg_send` and `send_notification`. An error drops `msg` after the
    /// lock is released (guards drop before parameters).
    fn enqueue(&self, mut msg: Message, full: Full) -> Result<(), IpcError> {
        let mut st = self.control.lock();
        if let Some(kernel) = st.kernel.clone() {
            drop(st);
            // A kernel port has no queue: nothing is ever ahead.
            self.charge_send(&mut msg, Hop::Queued(0));
            self.deliver(&kernel, msg);
            return Ok(());
        }
        self.room(&mut st, full, &mut None)?;
        // Only `msg_send` donates its thread, to a receiver parked on an
        // empty queue or on the group the port is enabled in; a kernel
        // thread posting a notification carries on with its own work.
        let parked = st.recv_waiting > 0 || st.group.as_ref().is_some_and(|g| g.parked() > 0);
        let donate = matches!(full, Full::Wait(_)) && st.handoff_enabled && parked;
        let hop = match st.queue.len() {
            0 if donate => Hop::Handoff,
            ahead => Hop::Queued(ahead as u32),
        };
        self.charge_send(&mut msg, hop);
        st.queue.push_back(msg);
        self.publish(st);
        Ok(())
    }

    /// Batched send: queues as many messages as `full` admits under one
    /// lock hold with one amortized charge, and repeats until everything
    /// is sent, the port dies or the deadline passes. Returns the number
    /// delivered; a timeout after partial progress reports the partial
    /// count rather than an error. Whatever was not delivered is dropped
    /// after the lock is released (`rest` is declared before any guard).
    fn enqueue_many(&self, msgs: Vec<Message>, full: Full) -> Result<usize, IpcError> {
        let total = msgs.len();
        let mut rest = msgs.into_iter();
        let mut deadline = None;
        while rest.len() > 0 {
            let mut st = self.control.lock();
            if let Some(kernel) = st.kernel.clone() {
                drop(st);
                self.charge_send_batch(rest.as_mut_slice(), 0);
                for msg in rest.by_ref() {
                    self.deliver(&kernel, msg);
                }
                break;
            }
            let n = match self.room(&mut st, full, &mut deadline) {
                Ok(room) => room.min(rest.len()),
                Err(IpcError::Timeout | IpcError::WouldBlock) if rest.len() < total => break,
                Err(e) => return Err(e),
            };
            self.charge_send_batch(&mut rest.as_mut_slice()[..n], st.queue.len());
            st.queue.extend(rest.by_ref().take(n));
            self.publish(st);
        }
        Ok(total - rest.len())
    }

    // ----- receive path -----

    /// Waits, under the lock, for a message and pops it. An oversized
    /// front (under `max_size`) stays queued and reports `MsgTooLarge`,
    /// as `msg_receive` specifies; a right that has moved since `moves`
    /// was read reports `InvalidRight`. The deadline is computed once, on
    /// the first wait; on expiry a message that raced in beats `PortDied`
    /// beats `Timeout`.
    fn pop(
        &self,
        st: &mut StateGuard<'_>,
        max_size: Option<usize>,
        timeout: Option<Duration>,
        moves: Option<u64>,
    ) -> Result<Message, IpcError> {
        let mut deadline = None;
        let mut expired = false;
        loop {
            if moves.is_some_and(|m| m != st.moves) {
                return Err(IpcError::InvalidRight);
            }
            if let Some(front) = st.queue.front() {
                if max_size.is_some_and(|limit| front.inline_len() + front.ool_len() > limit) {
                    return Err(IpcError::MsgTooLarge);
                }
            }
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.dead {
                return Err(IpcError::PortDied);
            }
            if expired {
                return Err(IpcError::Timeout);
            }
            if timeout.is_some_and(|t| t.is_zero()) {
                return Err(IpcError::WouldBlock);
            }
            if deadline.is_none() {
                deadline = timeout.map(Deadline::after);
            }
            st.recv_waiting += 1;
            expired = self.recv.block(st.inner_mut(), deadline.as_ref());
            st.recv_waiting -= 1;
        }
    }

    /// `msg_receive`, with or without a size limit.
    fn dequeue(
        &self,
        max_size: Option<usize>,
        timeout: Option<Duration>,
        moves: Option<u64>,
    ) -> Result<Message, IpcError> {
        let mut st = self.control.lock();
        let msg = self.pop(&mut st, max_size, timeout, moves)?;
        drop(st);
        self.send.notify_one();
        self.finish_recv(std::slice::from_ref(&msg));
        Ok(msg)
    }

    /// Batched receive: blocks for the first message like `dequeue`, then
    /// takes up to `max - 1` more that are already queued under the same
    /// lock hold, with one amortized receive charge for the whole batch.
    fn dequeue_many(
        &self,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<Vec<Message>, IpcError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let mut st = self.control.lock();
        let first = self.pop(&mut st, None, timeout, None)?;
        let more = st.queue.len().min(max - 1);
        let mut out = Vec::with_capacity(1 + more);
        out.push(first);
        out.extend(st.queue.drain(..more));
        drop(st);
        self.send.notify_all();
        self.finish_recv(&out);
        Ok(out)
    }

    // ----- lifecycle -----

    fn destroy(&self) {
        let (subs, dropped, kernel) = {
            let mut st = self.control.lock();
            if st.dead {
                return;
            }
            st.dead = true;
            (
                std::mem::take(&mut st.death_subs),
                std::mem::take(&mut st.queue),
                st.kernel.take(),
            )
        };
        self.recv.notify_all();
        self.send.notify_all();
        // Dropping undelivered messages (or the handler) may destroy
        // rights they carried, which can recursively destroy other ports;
        // do it outside the lock.
        drop((dropped, kernel));
        for sub in subs {
            if let Some(target) = sub.upgrade() {
                target.post_death_of(self.id);
            }
        }
    }

    /// Posts the notification that port `died` was destroyed to this port
    /// (dropped, like any notification, if this port is dead too). To a
    /// kernel port it is the kernel telling itself: its handler is called
    /// on this thread, and no message crosses, so nothing is charged.
    fn post_death_of(&self, died: PortId) {
        let note = Message::new(MSG_ID_PORT_DEATH).with(MsgItem::u64s(&[died.0]));
        let kernel = self.control.lock().kernel.clone();
        match kernel {
            Some(kernel) => drop(kernel(note)),
            None => {
                let _ = self.enqueue(note, Full::Exceed);
            }
        }
    }

    fn status(&self) -> PortStatus {
        let st = self.control.lock();
        PortStatus {
            num_msgs: st.queue.len(),
            backlog: st.backlog,
            has_receiver: !st.dead,
            senders: self.senders.load(Ordering::Relaxed),
        }
    }
}

/// A send capability for a port. Cloneable: any number of senders.
pub struct SendRight {
    core: Arc<PortCore>,
}

impl Clone for SendRight {
    fn clone(&self) -> Self {
        self.core.senders.fetch_add(1, Ordering::Relaxed);
        SendRight {
            core: self.core.clone(),
        }
    }
}

impl Drop for SendRight {
    fn drop(&mut self) {
        self.core.senders.fetch_sub(1, Ordering::Relaxed);
    }
}

impl fmt::Debug for SendRight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendRight({})", self.core.id)
    }
}

impl SendRight {
    /// The identity of the port this right names.
    pub fn id(&self) -> PortId {
        self.core.id
    }

    /// `msg_send`: queues a message, blocking while the queue is full.
    ///
    /// `timeout = None` waits indefinitely; `Some(0)` never blocks
    /// (returning [`IpcError::WouldBlock`] when full). When a receiver is
    /// already parked on an empty queue, or on the group the port is
    /// enabled in, the send is a handoff: same queue, reduced simulated
    /// cost.
    pub fn send(&self, msg: Message, timeout: Option<Duration>) -> Result<(), IpcError> {
        self.core.enqueue(msg, Full::Wait(timeout))
    }

    /// Batched `msg_send`: delivers `msgs` in order, amortizing one lock
    /// acquisition and one cost charge over each backlog-sized run.
    /// Returns how many were delivered: all of them, barring port death
    /// (`Err(PortDied)` with none-or-some delivered) or a timeout
    /// (`Err(Timeout)` if nothing was sent, `Ok(n < msgs.len())` after
    /// partial progress).
    pub fn send_many(
        &self,
        msgs: Vec<Message>,
        timeout: Option<Duration>,
    ) -> Result<usize, IpcError> {
        self.core.enqueue_many(msgs, Full::Wait(timeout))
    }

    /// Sends a kernel-generated notification, exempt from the backlog.
    /// A notification to a dead port is dropped; returns whether it was
    /// delivered.
    ///
    /// Used by kernel components (pager interface, port death, the
    /// network's proxies) that must not block on user queues; see
    /// Section 6.2.3 on why the kernel can never afford to wait on a data
    /// manager.
    pub fn send_notification(&self, msg: Message) -> bool {
        self.core.enqueue(msg, Full::Exceed).is_ok()
    }

    /// Batched [`SendRight::send_notification`]: every message in `msgs`
    /// is delivered in order under one lock acquisition and one
    /// amortized charge, exempt from the backlog. Used by kernel
    /// components that ship coalesced runs (the fault engine's batched
    /// `pager_data_request`s above all).
    pub fn send_many_notification(&self, msgs: Vec<Message>) {
        let _ = self.core.enqueue_many(msgs, Full::Exceed);
    }

    /// `msg_rpc`: sends `msg` with a freshly allocated reply port, then
    /// awaits the reply on it.
    ///
    /// Each hop is a handoff when its peer is already parked — the
    /// thread-donation RPC shape, at `handoff_ns` instead of `message_ns`.
    /// A kernel port answers on this thread before it parks, so both of
    /// its hops are queued sends.
    pub fn rpc(
        &self,
        msg: Message,
        send_timeout: Option<Duration>,
        rcv_timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        self.rpc_limited(msg, usize::MAX, send_timeout, rcv_timeout)
    }

    /// `msg_rpc` with the Table 3-1 `rcv_size` argument: a reply larger
    /// than `rcv_size` payload bytes fails with [`IpcError::MsgTooLarge`].
    pub fn rpc_limited(
        &self,
        mut msg: Message,
        rcv_size: usize,
        send_timeout: Option<Duration>,
        rcv_timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        let (reply_rx, reply_tx) = ReceiveRight::allocate(&self.core.ctx);
        msg.reply = Some(reply_tx);
        self.send(msg, send_timeout)?;
        reply_rx.receive_limited(rcv_size, rcv_timeout)
    }

    /// Whether the port still has a receiver.
    pub fn is_alive(&self) -> bool {
        !self.core.control.lock().dead
    }

    /// Registers `notify` to receive a [`MSG_ID_PORT_DEATH`] message when
    /// this port's receive right is destroyed. Subscribers that are gone
    /// are pruned on every subscription, so the list stays bounded by the
    /// live ones however many come and go.
    pub fn subscribe_death(&self, notify: &SendRight) {
        let mut st = self.core.control.lock();
        if st.dead {
            drop(st);
            notify.core.post_death_of(self.core.id);
            return;
        }
        st.death_subs.retain(|sub| sub.strong_count() > 0);
        st.death_subs.push(Arc::downgrade(&notify.core));
    }

    /// `port_status` fields for this port.
    pub fn status(&self) -> PortStatus {
        self.core.status()
    }

    /// Whether two rights name the same port.
    pub fn same_port(&self, other: &SendRight) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }
}

/// The unique receive capability for a port.
///
/// Not cloneable; dropping it destroys the port.
pub struct ReceiveRight {
    core: Arc<PortCore>,
}

impl fmt::Debug for ReceiveRight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReceiveRight({})", self.core.id)
    }
}

impl Drop for ReceiveRight {
    fn drop(&mut self) {
        self.core.destroy();
    }
}

impl ReceiveRight {
    /// Allocates a new port, returning its receive right and a send right.
    pub fn allocate(ctx: &IpcContext) -> (ReceiveRight, SendRight) {
        Self::allocate_with(ctx, None)
    }

    /// Allocates a kernel port: every message sent to it — by `send`,
    /// `send_many`, a notification or a death notice — is served by
    /// `handler` on the sending thread, in send order, as a server serves
    /// it, and charged as a queued send plus its receive. Nothing is ever
    /// queued on it. Once the receive right is dropped, sends fail with
    /// [`IpcError::PortDied`] and the handler is released.
    pub fn allocate_kernel(
        ctx: &IpcContext,
        handler: impl Fn(Message) -> Option<Message> + Send + Sync + 'static,
    ) -> (ReceiveRight, SendRight) {
        Self::allocate_with(ctx, Some(Arc::new(handler)))
    }

    fn allocate_with(ctx: &IpcContext, kernel: Option<KernelHandler>) -> (ReceiveRight, SendRight) {
        let core = PortCore::new(ctx.clone(), kernel);
        core.senders.fetch_add(1, Ordering::Relaxed);
        (ReceiveRight { core: core.clone() }, SendRight { core })
    }

    /// The identity of the port.
    pub fn id(&self) -> PortId {
        self.core.id
    }

    /// Mints an additional send right for this port.
    pub fn make_send(&self) -> SendRight {
        self.core.senders.fetch_add(1, Ordering::Relaxed);
        SendRight {
            core: self.core.clone(),
        }
    }

    /// `msg_receive`: dequeues the next message, blocking while empty.
    pub fn receive(&self, timeout: Option<Duration>) -> Result<Message, IpcError> {
        self.core.dequeue(None, timeout, None)
    }

    /// `msg_receive` with a maximum acceptable payload size: an oversized
    /// message stays queued and [`IpcError::MsgTooLarge`] is returned.
    pub fn receive_limited(
        &self,
        max_size: usize,
        timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        self.core.dequeue(Some(max_size), timeout, None)
    }

    /// Batched `msg_receive`: blocks (up to `timeout`) for the first
    /// message, then drains up to `max - 1` more that are already
    /// queued, amortizing the receive bookkeeping over the batch.
    /// Returns at least one message on success.
    pub fn receive_many(
        &self,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<Vec<Message>, IpcError> {
        self.core.dequeue_many(max, timeout)
    }

    /// Non-blocking receive.
    pub fn try_receive(&self) -> Option<Message> {
        self.core.dequeue(None, Some(Duration::ZERO), None).ok()
    }

    /// `port_set_backlog`: limits queued messages before senders block.
    pub fn set_backlog(&self, backlog: usize) {
        self.core.control.lock().backlog = backlog.max(1);
        // A larger backlog may be room for senders that are blocked.
        self.core.send.notify_all();
    }

    /// Enables or disables charging a send to a parked receiver as a
    /// handoff (enabled by default; benchmarks toggle it to measure the
    /// difference).
    pub fn set_handoff(&self, enabled: bool) {
        self.core.control.lock().handoff_enabled = enabled;
    }

    /// `port_status` fields for this port.
    pub fn status(&self) -> PortStatus {
        self.core.status()
    }

    /// Number of queued messages.
    pub fn queued(&self) -> usize {
        self.core.control.lock().queue.len()
    }

    /// `port_enable` (`Some`) and `port_disable` (`None`): the one group
    /// the port is enabled in, replacing any other.
    pub(crate) fn set_group(&self, group: Option<Arc<SetWaker>>) {
        self.core.control.lock().group = group;
    }

    /// The right leaves the space that named it: it drops out of that
    /// space's group, and a directed receive waiting on it there ends.
    pub(crate) fn moved(&self) {
        let mut st = self.core.control.lock();
        (st.group, st.moves) = (None, st.moves + 1);
        drop(st);
        self.core.recv.notify_all();
    }

    /// A directed receive by name, resolved now and waited out after the
    /// caller lets go of its space: it ends with `InvalidRight` if the
    /// right moves meanwhile, and with `PortDied` if it is destroyed.
    pub(crate) fn receive_named(
        &self,
    ) -> impl FnOnce(Option<Duration>) -> Result<Message, IpcError> {
        let (core, moves) = (self.core.clone(), self.core.control.lock().moves);
        move |timeout| core.dequeue(None, timeout, Some(moves))
    }

    /// Current length of the death-subscription list (test
    /// instrumentation for the bounded-subscription guarantee).
    #[cfg(test)]
    fn death_subs_len(&self) -> usize {
        self.core.control.lock().death_subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgItem;
    use machsim::wall;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn ctx() -> IpcContext {
        IpcContext::default_machine()
    }

    #[test]
    fn send_then_receive() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        tx.send(Message::new(9).with(MsgItem::bytes(b"hi".to_vec())), None)
            .expect("send of a composed message succeeds");
        let m = rx
            .receive(None)
            .expect("invariant: a queued message is receivable");
        assert_eq!(m.id, 9);
        assert_eq!(
            m.body[0].as_bytes().expect("body element is inline bytes"),
            b"hi"
        );
    }

    #[test]
    fn fifo_order() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        for i in 0..3 {
            tx.send(Message::new(i), None)
                .expect("send to a live port succeeds");
        }
        for i in 0..3 {
            assert_eq!(
                rx.receive(None)
                    .expect("invariant: a queued message is receivable")
                    .id,
                i
            );
        }
    }

    #[test]
    fn receive_timeout() {
        let c = ctx();
        let (rx, _tx) = ReceiveRight::allocate(&c);
        let r = rx.receive(Some(Duration::from_millis(10)));
        assert_eq!(r.unwrap_err(), IpcError::Timeout);
    }

    #[test]
    fn backlog_blocks_and_unblocks_sender() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        assert_eq!(
            tx.send(Message::new(1), Some(Duration::ZERO)).unwrap_err(),
            IpcError::WouldBlock
        );
        let tx2 = tx.clone();
        let h = thread::spawn(move || tx2.send(Message::new(1), None));
        wall::sleep(Duration::from_millis(20));
        assert_eq!(
            rx.receive(None)
                .expect("invariant: a queued message is receivable")
                .id,
            0
        );
        h.join()
            .expect("sender thread exits cleanly")
            .expect("blocked send completes once space frees");
        assert_eq!(
            rx.receive(None)
                .expect("invariant: a queued message is receivable")
                .id,
            1
        );
    }

    #[test]
    fn send_timeout_when_full() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let err = tx
            .send(Message::new(1), Some(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, IpcError::Timeout);
    }

    #[test]
    fn death_wakes_blocked_receiver() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let core = Arc::clone(&rx.core);
        let h = thread::spawn(move || {
            let r = rx.receive(None);
            drop(rx); // second destroy is a no-op
            r
        });
        wall::sleep(Duration::from_millis(20));
        drop(tx); // Dropping send rights alone must not kill the port.
        wall::sleep(Duration::from_millis(20));
        // Destroying the port must wake the blocked receiver with a death
        // error, and the thread must actually exit (no leaked waiter).
        core.destroy();
        assert_eq!(
            h.join()
                .expect("receiver thread exits cleanly")
                .unwrap_err(),
            IpcError::PortDied
        );
    }

    #[test]
    fn death_wakes_blocked_sender() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let tx2 = tx.clone();
        let h = thread::spawn(move || tx2.send(Message::new(1), None));
        wall::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(
            h.join().expect("sender thread exits cleanly").unwrap_err(),
            IpcError::PortDied
        );
    }

    #[test]
    fn death_notification_posted() {
        let c = ctx();
        let (watched_rx, watched_tx) = ReceiveRight::allocate(&c);
        let (notify_rx, notify_tx) = ReceiveRight::allocate(&c);
        watched_tx.subscribe_death(&notify_tx);
        let watched_id = watched_rx.id();
        drop(watched_rx);
        let m = notify_rx
            .receive(Some(Duration::from_secs(1)))
            .expect("notification arrives within the timeout");
        assert_eq!(m.id, MSG_ID_PORT_DEATH);
        assert_eq!(
            m.body[0].as_u64s().expect("body element is a u64 vector"),
            vec![watched_id.0]
        );
    }

    #[test]
    fn subscribing_to_dead_port_notifies_immediately() {
        let c = ctx();
        let (watched_rx, watched_tx) = ReceiveRight::allocate(&c);
        drop(watched_rx);
        let (notify_rx, notify_tx) = ReceiveRight::allocate(&c);
        watched_tx.subscribe_death(&notify_tx);
        let m = notify_rx
            .receive(Some(Duration::from_secs(1)))
            .expect("notification arrives within the timeout");
        assert_eq!(m.id, MSG_ID_PORT_DEATH);
    }

    #[test]
    fn rpc_round_trip() {
        let c = ctx();
        let (server_rx, server_tx) = ReceiveRight::allocate(&c);
        let h = thread::spawn(move || {
            let req = server_rx
                .receive(None)
                .expect("invariant: a queued message is receivable");
            let reply = req.reply.expect("rpc carries reply port");
            reply
                .send(Message::new(req.id + 1), None)
                .expect("reply send");
        });
        let resp = server_tx
            .rpc(Message::new(41), None, None)
            .expect("rpc to a live server succeeds");
        assert_eq!(resp.id, 42);
        h.join().expect("sender thread exits cleanly");
    }

    #[test]
    fn rpc_times_out_when_server_silent() {
        let c = ctx();
        let (_server_rx, server_tx) = ReceiveRight::allocate(&c);
        let err = server_tx
            .rpc(Message::new(1), None, Some(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, IpcError::Timeout);
    }

    #[test]
    fn rights_travel_in_messages() {
        let c = ctx();
        let (carrier_rx, carrier_tx) = ReceiveRight::allocate(&c);
        let (inner_rx, inner_tx) = ReceiveRight::allocate(&c);
        carrier_tx
            .send(
                Message::new(1).with(MsgItem::SendRights(vec![inner_tx])),
                None,
            )
            .expect("send of a composed message succeeds");
        let m = carrier_rx
            .receive(None)
            .expect("invariant: a queued message is receivable");
        let MsgItem::SendRights(rights) = &m.body[0] else {
            panic!("expected send rights");
        };
        rights[0]
            .send(Message::new(7), None)
            .expect("send to a live port succeeds");
        assert_eq!(
            inner_rx
                .receive(None)
                .expect("invariant: a queued message is receivable")
                .id,
            7
        );
    }

    #[test]
    fn receive_right_travels_and_port_survives() {
        let c = ctx();
        let (carrier_rx, carrier_tx) = ReceiveRight::allocate(&c);
        let (inner_rx, inner_tx) = ReceiveRight::allocate(&c);
        inner_tx
            .send(Message::new(5), None)
            .expect("send to a live port succeeds");
        carrier_tx
            .send(Message::new(1).with(MsgItem::ReceiveRight(inner_rx)), None)
            .expect("send of a composed message succeeds");
        let m = carrier_rx
            .receive(None)
            .expect("invariant: a queued message is receivable");
        let MsgItem::ReceiveRight(moved_rx) = m
            .body
            .into_iter()
            .next()
            .expect("iterator has the expected element")
        else {
            panic!("expected receive right");
        };
        // The queued message survived the migration of receivership.
        assert_eq!(
            moved_rx
                .receive(None)
                .expect("invariant: a queued message is receivable")
                .id,
            5
        );
    }

    #[test]
    fn dropping_undelivered_message_destroys_carried_receive_right() {
        let c = ctx();
        let (carrier_rx, carrier_tx) = ReceiveRight::allocate(&c);
        let (inner_rx, inner_tx) = ReceiveRight::allocate(&c);
        carrier_tx
            .send(Message::new(1).with(MsgItem::ReceiveRight(inner_rx)), None)
            .expect("send of a composed message succeeds");
        drop(carrier_rx); // Destroys the carrier and its queued message.
        assert!(!inner_tx.is_alive());
    }

    #[test]
    fn status_reports_queue_and_senders() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let tx2 = tx.clone();
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let st = rx.status();
        assert_eq!(st.num_msgs, 1);
        assert_eq!(st.backlog, DEFAULT_BACKLOG);
        assert!(st.has_receiver);
        assert_eq!(st.senders, 2);
        drop(tx2);
        assert_eq!(rx.status().senders, 1);
    }

    #[test]
    fn send_charges_clock_and_stats() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let before = c.clock.now_ns();
        tx.send(Message::new(0).with(MsgItem::bytes(vec![0u8; 100])), None)
            .expect("send of a composed message succeeds");
        assert!(c.clock.now_ns() > before);
        assert_eq!(c.stats.get(machsim::stats::keys::MSG_SENT), 1);
        rx.receive(None)
            .expect("invariant: a queued message is receivable");
        assert_eq!(c.stats.get(machsim::stats::keys::MSG_RECEIVED), 1);
        assert_eq!(c.stats.get(machsim::stats::keys::BYTES_COPIED), 100);
    }

    #[test]
    fn ool_transfer_counts_pages_not_bytes() {
        let c = ctx();
        let (_rx, tx) = ReceiveRight::allocate(&c);
        let big = crate::message::OolBuffer::from_vec(vec![0u8; 8192]);
        tx.send(Message::new(0).with(MsgItem::OutOfLine(big)), None)
            .expect("send of a composed message succeeds");
        assert_eq!(c.stats.get(machsim::stats::keys::PAGES_REMAPPED), 2);
        assert_eq!(c.stats.get(machsim::stats::keys::BYTES_COPIED), 0);
    }

    #[test]
    fn receive_limited_rejects_oversized_but_keeps_it_queued() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        tx.send(Message::new(1).with(MsgItem::bytes(vec![0u8; 100])), None)
            .expect("send of a composed message succeeds");
        assert_eq!(
            rx.receive_limited(10, Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::MsgTooLarge
        );
        // The message is still there for a big-enough receive.
        let m = rx
            .receive_limited(100, None)
            .expect("invariant: a queued message is receivable");
        assert_eq!(m.id, 1);
    }

    #[test]
    fn rpc_limited_enforces_rcv_size() {
        let c = ctx();
        let (server_rx, server_tx) = ReceiveRight::allocate(&c);
        let h = thread::spawn(move || {
            let req = server_rx
                .receive(None)
                .expect("invariant: a queued message is receivable");
            let reply = req.reply.expect("reply port");
            reply
                .send(Message::new(2).with(MsgItem::bytes(vec![0u8; 4096])), None)
                .expect("send of a composed message succeeds");
        });
        let err = server_tx
            .rpc_limited(Message::new(1), 64, None, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, IpcError::MsgTooLarge);
        h.join().expect("sender thread exits cleanly");
    }

    #[test]
    fn many_senders_one_receiver() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(64);
        thread::scope(|s| {
            for t in 0..4 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        tx.send(Message::new(t * 100 + i), None)
                            .expect("send to a live port succeeds");
                    }
                });
            }
            let mut got = Vec::new();
            for _ in 0..40 {
                got.push(
                    rx.receive(Some(Duration::from_secs(5)))
                        .expect("a stormed message arrives within the timeout")
                        .id,
                );
            }
            got.sort_unstable();
            let mut want: Vec<u32> = (0..4)
                .flat_map(|t| (0..10).map(move |i| t * 100 + i))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        });
    }

    // ----- unwrap-audit regression tests -----
    //
    // Every user-reachable failure (port death, backlog overflow,
    // timeout, oversized receive) must surface as an `IpcError`, never a
    // panic. The tests below pin each of those paths.

    #[test]
    fn send_to_dead_port_is_an_error_not_a_panic() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        drop(rx);
        assert_eq!(
            tx.send(Message::new(1), None).unwrap_err(),
            IpcError::PortDied
        );
        assert_eq!(
            tx.send(Message::new(2), Some(Duration::ZERO)).unwrap_err(),
            IpcError::PortDied
        );
        // Kernel notifications to a dead port are silently dropped.
        tx.send_notification(Message::new(3));
        assert!(!tx.is_alive());
    }

    #[test]
    fn rpc_to_dead_port_is_an_error_not_a_panic() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        drop(rx);
        assert_eq!(
            tx.rpc(Message::new(1), None, Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::PortDied
        );
    }

    #[test]
    fn backlog_overflow_reports_would_block_then_timeout() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        // Non-blocking probe: WouldBlock, message not lost or duplicated.
        assert_eq!(
            tx.send(Message::new(1), Some(Duration::ZERO)).unwrap_err(),
            IpcError::WouldBlock
        );
        // Bounded wait on a still-full queue: Timeout.
        assert_eq!(
            tx.send(Message::new(1), Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::Timeout
        );
        assert_eq!(rx.queued(), 1);
        assert_eq!(
            rx.receive(None)
                .expect("invariant: a queued message is receivable")
                .id,
            0
        );
    }

    #[test]
    fn port_death_during_blocked_send_is_an_error() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let t = thread::spawn(move || tx.send(Message::new(1), None));
        wall::sleep(Duration::from_millis(20));
        drop(rx); // kill the port under the blocked sender
        assert_eq!(
            t.join().expect("sender thread exits cleanly").unwrap_err(),
            IpcError::PortDied
        );
    }

    #[test]
    fn oversized_receive_stays_queued_across_retries() {
        // Regression for the `dequeue_limited` rewrite: repeated
        // undersized receives must keep returning MsgTooLarge with the
        // message intact, and a correctly sized receive still gets it.
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        tx.send(Message::new(7).with(MsgItem::bytes(vec![0u8; 128])), None)
            .expect("send of a composed message succeeds");
        for _ in 0..3 {
            assert_eq!(
                rx.receive_limited(16, Some(Duration::ZERO)).unwrap_err(),
                IpcError::MsgTooLarge
            );
            assert_eq!(rx.queued(), 1);
        }
        assert_eq!(
            rx.receive_limited(128, None)
                .expect("invariant: a queued message is receivable")
                .id,
            7
        );
    }

    // ----- timeout/deadline regression tests -----

    #[test]
    fn timed_waits_survive_waker_storm() {
        // Regression: the old wait loops re-armed the *full* timeout on
        // every condvar wakeup, so a steady stream of spurious wakeups
        // (here: deliberate notify_all storms faster than the timeout)
        // postponed expiry indefinitely. With a deadline computed once,
        // the waits below must expire on schedule despite the storm.
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let core = Arc::clone(&rx.core);
        let stop = Arc::new(AtomicBool::new(false));
        let storm = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    drop(core.control.lock());
                    core.recv.notify_all();
                    core.send.notify_all();
                    wall::sleep(Duration::from_millis(5));
                }
            })
        };
        // The storm pings every 5 ms; both timed waits use 60 ms. With
        // the re-arm bug neither would expire until the storm ends, so a
        // 1 s watchdog distinguishes the behaviors cleanly.
        let watchdog = Deadline::after(Duration::from_secs(1));
        assert_eq!(
            tx.send(Message::new(1), Some(Duration::from_millis(60)))
                .unwrap_err(),
            IpcError::Timeout
        );
        rx.receive(None)
            .expect("invariant: a queued message is receivable");
        assert_eq!(
            rx.receive(Some(Duration::from_millis(60))).unwrap_err(),
            IpcError::Timeout
        );
        assert!(
            !watchdog.expired(),
            "timed waits kept re-arming under the waker storm"
        );
        stop.store(true, Ordering::Relaxed);
        storm.join().expect("storm thread exits cleanly");
    }

    #[test]
    fn death_beats_timeout_on_blocked_receive() {
        // A receiver whose timed wait expires after the port died must
        // report PortDied, not Timeout — even when death arrived without
        // a wakeup (simulated here by flipping the flag directly).
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let core = Arc::clone(&rx.core);
        let h = thread::spawn(move || {
            let r = rx.receive(Some(Duration::from_millis(100)));
            drop(rx); // destroy is a no-op on the already-dead port
            r
        });
        wall::sleep(Duration::from_millis(20));
        core.control.lock().dead = true; // silent death: no notify
        assert_eq!(
            h.join()
                .expect("receiver thread exits cleanly")
                .unwrap_err(),
            IpcError::PortDied
        );
        drop(tx);
    }

    #[test]
    fn death_beats_timeout_on_blocked_send() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(1);
        tx.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        let core = Arc::clone(&rx.core);
        let tx2 = tx.clone();
        let h = thread::spawn(move || tx2.send(Message::new(1), Some(Duration::from_millis(100))));
        wall::sleep(Duration::from_millis(20));
        core.control.lock().dead = true; // silent death: no notify
        assert_eq!(
            h.join().expect("sender thread exits cleanly").unwrap_err(),
            IpcError::PortDied
        );
        // Ordering (b): a timeout on a port that is still alive at expiry
        // stays a Timeout...
        let (rx2, tx2) = ReceiveRight::allocate(&c);
        rx2.set_backlog(1);
        tx2.send(Message::new(0), None)
            .expect("send to a live port succeeds");
        assert_eq!(
            tx2.send(Message::new(1), Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::Timeout
        );
        // ...and death after that reports PortDied on the next attempt.
        drop(rx2);
        assert_eq!(
            tx2.send(Message::new(1), Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::PortDied
        );
    }

    // ----- the port's one group link -----

    #[test]
    fn a_port_links_only_the_group_it_was_last_enabled_in() {
        // Enabled in a group whose space was then dropped, and then in a
        // live one: the port pings the live one alone, and holds nothing
        // of the one it left.
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let (gone, live) = (Arc::new(SetWaker::default()), Arc::new(SetWaker::default()));
        rx.set_group(Some(gone.clone()));
        rx.set_group(Some(live.clone()));
        tx.send(Message::new(1), None)
            .expect("send to a live port succeeds");
        assert_eq!((gone.generation(), live.generation()), (0, 1));
        assert_eq!(Arc::strong_count(&gone), 1, "the port let the old group go");
    }

    #[test]
    fn dropped_subscribers_keep_the_death_list_bounded() {
        let c = ctx();
        let (watched_rx, watched_tx) = ReceiveRight::allocate(&c);
        let (keeper_rx, keeper_tx) = ReceiveRight::allocate(&c);
        watched_tx.subscribe_death(&keeper_tx);
        for _ in 0..10_000 {
            let (rx, tx) = ReceiveRight::allocate(&c);
            watched_tx.subscribe_death(&tx);
            drop((rx, tx)); // the subscriber goes before the port it watches
        }
        // Each subscription prunes the dead ones: the live keeper plus
        // the most recent corpse at most.
        assert!(
            watched_rx.death_subs_len() <= 2,
            "death list grew to {}",
            watched_rx.death_subs_len()
        );
        let watched = watched_rx.id();
        drop(watched_rx);
        let note = keeper_rx
            .receive(Some(Duration::from_secs(1)))
            .expect("the live subscriber still hears of the death");
        assert_eq!(note.id, MSG_ID_PORT_DEATH);
        assert_eq!(
            note.body[0]
                .as_u64s()
                .expect("body element is a u64 vector"),
            vec![watched.0]
        );
    }

    // ----- many senders, one queue -----

    #[test]
    fn concurrent_senders_keep_per_sender_fifo_without_loss() {
        const SENDERS: u32 = 8;
        const PER_SENDER: u32 = 500;
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(64);
        thread::scope(|s| {
            for t in 0..SENDERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(Message::new(t * 10_000 + i), None)
                            .expect("send to a live port succeeds");
                    }
                });
            }
            let mut last = [None::<u32>; SENDERS as usize];
            let mut counts = [0u32; SENDERS as usize];
            for _ in 0..SENDERS * PER_SENDER {
                let id = rx
                    .receive(Some(Duration::from_secs(30)))
                    .expect("a stormed message arrives within the timeout")
                    .id;
                let sender = (id / 10_000) as usize;
                let seq = id % 10_000;
                if let Some(prev) = last[sender] {
                    assert!(
                        seq > prev,
                        "sender {sender} delivered {seq} after {prev}: FIFO broken"
                    );
                }
                last[sender] = Some(seq);
                counts[sender] += 1;
            }
            assert_eq!(counts, [PER_SENDER; SENDERS as usize], "messages lost");
        });
    }

    // ----- batched send/receive -----

    #[test]
    fn send_many_receive_many_roundtrip() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(128);
        let batch: Vec<Message> = (0..100).map(Message::new).collect();
        assert_eq!(
            tx.send_many(batch, None)
                .expect("batched send to a roomy queue succeeds"),
            100
        );
        assert_eq!(c.stats.get(machsim::stats::keys::MSG_SENT), 100);
        let first = rx
            .receive_many(64, None)
            .expect("invariant: queued messages are receivable");
        assert_eq!(first.len(), 64);
        for (i, m) in first.iter().enumerate() {
            assert_eq!(m.id, i as u32, "single-sender batch arrives in order");
        }
        let rest = rx
            .receive_many(64, None)
            .expect("invariant: queued messages are receivable");
        assert_eq!(rest.len(), 36);
        assert_eq!(rest[0].id, 64);
        assert_eq!(c.stats.get(machsim::stats::keys::MSG_RECEIVED), 100);
        // One batch charge for the send, one per receive_many drain.
        assert_eq!(c.stats.get(machsim::stats::keys::IPC_BATCHES), 3);
    }

    #[test]
    fn uncorrelated_messages_leave_the_ring_empty() {
        use machsim::stats::keys::{MSG_RECEIVED, MSG_SENT};
        let c = ctx();
        trace::set_current_correlation(None);
        let (rx, tx) = ReceiveRight::allocate(&c);
        tx.send(Message::new(1), None).expect("send");
        rx.receive(None).expect("receive");
        tx.send_many((0..3).map(Message::new).collect(), None)
            .expect("batched send");
        assert_eq!(rx.receive_many(8, None).expect("receive_many").len(), 3);
        assert_eq!(c.stats.get(MSG_SENT), 4);
        assert_eq!(c.stats.get(MSG_RECEIVED), 4);
        assert!(c.trace.is_empty(), "{:#?}", c.trace.snapshot());
    }

    #[test]
    fn every_correlated_message_of_a_batch_is_its_own_queue_span() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let cids: Vec<CorrelationId> = (0..3).map(|_| CorrelationId::allocate()).collect();
        let batch = cids
            .iter()
            .map(|cid| {
                let mut m = Message::new(7);
                m.correlation = cid.raw();
                m
            })
            .collect();
        assert_eq!(tx.send_many(batch, None).expect("batched send"), 3);
        for &cid in &cids {
            let m = rx.receive(None).expect("receive");
            assert_eq!(CorrelationId::from_raw(m.correlation), Some(cid));
            let last = c.trace.snapshot().pop().expect("the receive closed a span");
            assert_eq!(last.kind, machsim::EventKind::SpanClose("ipc.queued"));
            assert_eq!(last.correlation_id, Some(cid), "closed under its own cid");
            assert_eq!(last.span.map(|s| s.id), Some(m.queue_span));
        }
        let spans = machsim::span::collect(&c.trace.snapshot());
        assert_eq!(spans.len(), 3);
        for (s, cid) in spans.iter().zip(&cids) {
            assert_eq!(s.name, "ipc.queued");
            assert_eq!(s.correlation, Some(*cid));
            assert!(s.close_ns.is_some(), "{} left open", s.id);
        }
    }

    #[test]
    fn a_queued_span_records_the_messages_ahead_and_a_handoff_none() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let cid = CorrelationId::allocate();
        let correlated = |id| {
            let mut m = Message::new(id);
            m.correlation = cid.raw();
            m
        };
        let depths = |name| {
            machsim::span::collect(&c.trace.snapshot())
                .into_iter()
                .filter(|s| s.name == name)
                .map(|s| s.depth)
                .collect::<Vec<_>>()
        };
        for id in 0..3 {
            tx.send(correlated(id), None).expect("send");
        }
        let batch = vec![correlated(3), correlated(4)];
        assert_eq!(tx.send_many(batch, None).expect("batched send"), 2);
        assert_eq!(depths("ipc.queued"), [0, 1, 2, 3, 4].map(Some));
        assert_eq!(rx.receive_many(8, None).expect("drain").len(), 5);

        let core = Arc::clone(&rx.core);
        let h = thread::spawn(move || rx.receive(Some(Duration::from_secs(10))));
        assert!(
            wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
                core.control.lock().recv_waiting > 0
            }),
            "receiver never registered as a waiter"
        );
        tx.send(correlated(5), None).expect("handoff send");
        let m = h.join().expect("receiver thread exits cleanly");
        assert_eq!(m.expect("handed-off message arrives").id, 5);
        assert_eq!(c.stats.get(machsim::stats::keys::IPC_HANDOFFS), 1);
        assert_eq!(depths("ipc.handoff"), [None]);
        assert_eq!(depths("ipc.queued").len(), 5, "a handoff queues nothing");
    }

    #[test]
    fn send_many_reports_partial_progress_on_full_queue() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        rx.set_backlog(4);
        let batch: Vec<Message> = (0..10).map(Message::new).collect();
        // Non-blocking batched send delivers what fits and reports it.
        assert_eq!(
            tx.send_many(batch, Some(Duration::ZERO))
                .expect("partial batched send reports progress, not error"),
            4
        );
        assert_eq!(rx.queued(), 4);
        // An empty batch is trivially complete.
        assert_eq!(
            tx.send_many(Vec::new(), None)
                .expect("empty batch is a no-op"),
            0
        );
    }

    #[test]
    fn receive_many_empty_port_times_out() {
        let c = ctx();
        let (rx, _tx) = ReceiveRight::allocate(&c);
        assert_eq!(
            rx.receive_many(8, Some(Duration::from_millis(10)))
                .unwrap_err(),
            IpcError::Timeout
        );
        assert!(rx
            .receive_many(0, None)
            .expect("zero-max receive is a no-op")
            .is_empty());
    }

    // ----- handoff fast path -----

    #[test]
    fn handoff_delivers_to_waiting_receiver() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let core = Arc::clone(&rx.core);
        let h = thread::spawn(move || {
            let m = rx.receive(Some(Duration::from_secs(10)));
            (rx, m)
        });
        assert!(
            wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
                core.control.lock().recv_waiting > 0
            }),
            "receiver never registered as a waiter"
        );
        let before = c.clock.now_ns();
        tx.send(Message::new(7), None)
            .expect("send to a live port succeeds");
        let handoff_cost = c.clock.now_ns() - before;
        let (rx, m) = h.join().expect("receiver thread exits cleanly");
        assert_eq!(m.expect("handed-off message arrives").id, 7);
        assert_eq!(c.stats.get(machsim::stats::keys::IPC_HANDOFFS), 1);
        // The donation must charge less than a full queue transit.
        assert!(
            handoff_cost < c.cost.message_ns,
            "handoff charged {handoff_cost} ns, full message is {} ns",
            c.cost.message_ns
        );
        // Ablation: with handoff disabled the same shape takes the queue
        // path — message still arrives, but no handoff is counted.
        rx.set_handoff(false);
        let core = Arc::clone(&rx.core);
        let h = thread::spawn(move || {
            let m = rx.receive(Some(Duration::from_secs(10)));
            (rx, m)
        });
        assert!(
            wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
                core.control.lock().recv_waiting > 0
            }),
            "receiver never registered as a waiter"
        );
        let before = c.clock.now_ns();
        tx.send(Message::new(8), None)
            .expect("send to a live port succeeds");
        let queued_cost = c.clock.now_ns() - before;
        let (_rx, m) = h.join().expect("receiver thread exits cleanly");
        assert_eq!(m.expect("queued message arrives").id, 8);
        assert_eq!(c.stats.get(machsim::stats::keys::IPC_HANDOFFS), 1);
        assert!(handoff_cost < queued_cost);
    }

    #[test]
    fn handoff_never_overtakes_queued_messages() {
        // Sends to a non-empty queue are never handoffs, and whatever the
        // cost class, every message goes through the one FIFO.
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        tx.send(Message::new(1), None)
            .expect("send to a live port succeeds");
        tx.send(Message::new(2), None)
            .expect("send to a live port succeeds");
        assert_eq!(rx.receive(None).expect("queued message").id, 1);
        assert_eq!(rx.receive(None).expect("queued message").id, 2);
        assert_eq!(c.stats.get(machsim::stats::keys::IPC_HANDOFFS), 0);
    }

    // ----- kernel ports -----

    type Seen = Arc<Mutex<Vec<(u32, Option<CorrelationId>, u64)>>>;

    /// A kernel port whose handler records each message's id and the
    /// correlation and span it ran under.
    fn recording_kernel_port(c: &IpcContext) -> (ReceiveRight, SendRight, Seen) {
        let seen = Seen::default();
        let log = seen.clone();
        let (rx, tx) = ReceiveRight::allocate_kernel(c, move |m| {
            log.lock()
                .push((m.id, trace::current_correlation(), trace::current_span()));
            None
        });
        (rx, tx, seen)
    }

    #[test]
    fn a_kernel_port_charges_a_queued_send_and_its_receive() {
        let (queued, kernel) = (ctx(), ctx());
        let msg = || {
            let mut m = Message::new(1).with(MsgItem::bytes(vec![0u8; 100]));
            m.correlation = 77;
            m
        };
        let (rx, tx) = ReceiveRight::allocate(&queued);
        tx.send(msg(), None).expect("send to a live port succeeds");
        rx.receive(None).expect("the queued message is receivable");

        let (_rx, ktx, seen) = recording_kernel_port(&kernel);
        let sender = CorrelationId::allocate();
        let _chain = trace::CorrelationScope::enter(sender);
        let _span = trace::SpanScope::enter(5);
        ktx.send(msg(), None)
            .expect("send to a live kernel port succeeds");
        let (id, cid, span) = seen.lock()[0];
        assert_eq!((id, cid), (1, CorrelationId::from_raw(77)));
        assert_ne!(span, 5, "the handler ran in the message's span");
        assert_eq!(
            (trace::current_correlation(), trace::current_span()),
            (Some(sender), 5),
            "the sender's context is restored"
        );

        assert_eq!(kernel.clock.now_ns(), queued.clock.now_ns());
        for key in [
            keys::MSG_SENT,
            keys::MSG_RECEIVED,
            keys::BYTES_COPIED,
            keys::IPC_HANDOFFS,
        ] {
            assert_eq!(kernel.stats.get(key), queued.stats.get(key), "{key}");
        }
        let samples = |m: &IpcContext| {
            m.latency
                .get(trace::keys::SEND_TO_RECEIVE)
                .map_or(0, |h| h.count())
        };
        assert_eq!((samples(&kernel), samples(&queued)), (1, 1));
    }

    #[test]
    fn a_kernel_port_answers_an_rpc_on_the_calling_thread() {
        fn request() -> Message {
            Message::new(41).with(MsgItem::bytes(vec![0u8; 100]))
        }
        fn answer(m: &Message) -> Message {
            Message::new(m.id + 1).with(MsgItem::bytes(vec![0u8; 40]))
        }
        // A plain port whose request is queued, received and answered
        // before the client parks on its reply port.
        let (queued, kernel) = (ctx(), ctx());
        let (rx, tx) = ReceiveRight::allocate(&queued);
        let (reply_rx, reply_tx) = ReceiveRight::allocate(&queued);
        let mut msg = request();
        msg.reply = Some(reply_tx);
        tx.send(msg, None).expect("send to a live port succeeds");
        let msg = rx.receive(None).expect("the queued request");
        let reply = msg.reply.as_ref().expect("the request's reply right");
        reply
            .send(answer(&msg), None)
            .expect("the reply port lives");
        assert_eq!(reply_rx.receive(None).expect("the queued answer").id, 42);

        let ran_on = Arc::new(Mutex::new(None));
        let log = ran_on.clone();
        let (_krx, ktx) = ReceiveRight::allocate_kernel(&kernel, move |m| {
            *log.lock() = Some(thread::current().id());
            Some(answer(&m))
        });
        let reply = ktx.rpc(request(), None, Some(Duration::ZERO));
        assert_eq!(reply.expect("the handler's answer, already queued").id, 42);
        assert_eq!(*ran_on.lock(), Some(thread::current().id()));

        assert_eq!(kernel.clock.now_ns(), queued.clock.now_ns());
        for key in [keys::MSG_SENT, keys::MSG_RECEIVED, keys::IPC_HANDOFFS] {
            assert_eq!(kernel.stats.get(key), queued.stats.get(key), "{key}");
        }
        assert_eq!(kernel.stats.get(keys::IPC_HANDOFFS), 0);
        let samples = |m: &IpcContext| {
            m.latency
                .get(trace::keys::SEND_TO_RECEIVE)
                .map_or(0, |h| h.count())
        };
        assert_eq!((samples(&kernel), samples(&queued)), (2, 2));

        // No reply port, or no answer: nothing is sent back.
        let sent = || kernel.stats.get(keys::MSG_SENT);
        let before = sent();
        ktx.send(request(), None)
            .expect("send to a live kernel port");
        assert_eq!(sent(), before + 1, "an answer with nowhere to go");
        let (_silent_rx, silent) = ReceiveRight::allocate_kernel(&kernel, |_| None);
        let before = sent();
        let reply = silent.rpc(request(), None, Some(Duration::ZERO));
        assert_eq!(reply.unwrap_err(), IpcError::WouldBlock);
        assert_eq!(sent(), before + 1, "a handler with no answer");
    }

    #[test]
    fn a_kernel_port_runs_every_send_in_order_until_its_right_drops() {
        let c = ctx();
        let (krx, ktx, seen) = recording_kernel_port(&c);
        let ids = |seen: &Seen| seen.lock().iter().map(|&(id, ..)| id).collect::<Vec<_>>();
        let batch = |ids: std::ops::Range<u32>| ids.map(Message::new).collect::<Vec<_>>();
        assert_eq!(ktx.send_many(batch(0..4), Some(Duration::ZERO)), Ok(4));
        ktx.send_notification(Message::new(4));
        ktx.send_many_notification(batch(5..8));
        // A death notice is one more message to the handler.
        let (watched_rx, watched_tx) = ReceiveRight::allocate(&c);
        watched_tx.subscribe_death(&ktx);
        drop(watched_rx);
        assert_eq!(ids(&seen), [0, 1, 2, 3, 4, 5, 6, 7, MSG_ID_PORT_DEATH]);
        assert_eq!(krx.queued(), 0, "nothing is ever queued");

        drop(krx);
        assert_eq!(
            Arc::strong_count(&seen),
            1,
            "the handler went with the port"
        );
        assert_eq!(ktx.send(Message::new(9), None), Err(IpcError::PortDied));
        assert_eq!(ktx.send_many(batch(10..12), None), Err(IpcError::PortDied));
        ktx.send_notification(Message::new(12));
        assert!(!ktx.is_alive());
    }
}
