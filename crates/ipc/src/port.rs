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
//! death, death subscriptions, port-set wakers and the count of parked
//! receivers. Two condvars hang off it, one for receivers waiting for a
//! message and one for senders waiting for room, and every wait re-checks
//! its predicate in a loop (machlint L8). Whether there is room, whether
//! anyone needs waking and whether the port died are expressions read
//! under that lock, so no ordering between separate counters has to be
//! argued. Condvar notifies and port-set pings happen after the lock is
//! released, and messages the port discards are dropped outside it:
//! dropping a message can destroy rights it carries, which takes other
//! ports' locks and may post a death notification back to this one.
//!
//! The RPC *handoff* is a cost class of an ordinary send, not a second
//! container: a message sent to a receiver already parked on an empty
//! queue is charged `handoff_ns` instead of `message_ns` and travels
//! through the same FIFO, so it cannot overtake anything.
//!
//! Splitting the queue by sending thread was built and measured: it lost
//! on every workload that sends a message (DESIGN.md §5, EXPERIMENTS.md
//! ablation A5). Measure a port contending before partitioning it again.

use crate::error::IpcError;
use crate::message::{Message, MsgItem, MSG_ID_PORT_DEATH};
use crate::IpcContext;
use machsim::lockdep::{ClassMutex, ClassMutexGuard, LockClass};
use machsim::stats::keys;
use machsim::trace::{self, CorrelationId, EventKind};
use machsim::wall::Deadline;
use parking_lot::{Condvar, Mutex};
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

/// Wakeup channel shared with port-set receivers (the default port group).
#[derive(Debug, Default)]
pub(crate) struct SetWaker {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl SetWaker {
    /// Current generation; pass to [`SetWaker::wait`] to detect pings.
    pub(crate) fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// Signals that some enabled port may have become readable.
    pub(crate) fn ping(&self) {
        let mut g = self.generation.lock();
        *g += 1;
        self.cv.notify_all();
    }

    /// Waits until the generation moves past `seen` or `timeout` expires.
    /// Returns `false` on timeout.
    ///
    /// The deadline is computed once up front: a spurious wakeup (or a
    /// ping for a port that turns out to be empty) resumes waiting for
    /// the *remainder*, never a fresh full timeout.
    pub(crate) fn wait(&self, seen: u64, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(Deadline::after);
        let mut g = self.generation.lock();
        while *g == seen {
            match &deadline {
                Some(d) => {
                    let Some(left) = d.remaining() else {
                        return *g != seen;
                    };
                    self.cv.wait_for(&mut g, left);
                }
                None => self.cv.wait(&mut g),
            }
        }
        true
    }
}

/// Everything a port protects, under its one lock.
struct State {
    queue: VecDeque<Message>,
    /// Queued messages at which senders start to block.
    backlog: usize,
    /// The receive right is gone. Nothing is queued after this is set.
    dead: bool,
    /// Whether a send to a parked receiver is charged as a handoff.
    handoff_enabled: bool,
    /// Receivers parked on `recv_cv`.
    recv_waiting: usize,
    /// Ports to which a death notification should be posted on destruction.
    death_subs: Vec<Weak<PortCore>>,
    /// Port-set wakers to ping on message arrival. Behind an `Arc` so a
    /// send snapshots the list with a refcount bump and pings outside
    /// the lock; dead weaks are pruned whenever the list is edited.
    wakers: Arc<Vec<Weak<SetWaker>>>,
}

type StateGuard<'a> = ClassMutexGuard<'a, State>;

/// How a message crosses the port, which decides what the hop costs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    /// Queue insertion plus a scheduler wakeup: `message_ns`.
    Queued,
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
    recv_cv: Condvar,
    /// Senders wait here for room (or the port's death).
    send_cv: Condvar,
    senders: AtomicUsize,
}

impl fmt::Debug for PortCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortCore({})", self.id)
    }
}

impl PortCore {
    fn new(ctx: IpcContext) -> Arc<Self> {
        Arc::new(PortCore {
            id: PortId(NEXT_PORT_ID.fetch_add(1, Ordering::Relaxed)),
            ctx,
            control: ClassMutex::new(
                LockClass::Port,
                State {
                    queue: VecDeque::new(),
                    backlog: DEFAULT_BACKLOG,
                    dead: false,
                    handoff_enabled: true,
                    recv_waiting: 0,
                    death_subs: Vec::new(),
                    wakers: Arc::new(Vec::new()),
                },
            ),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
            senders: AtomicUsize::new(0),
        })
    }

    // ----- cost accounting -----

    /// Records a trace event named after this port. The name is only
    /// formatted when tracing is on: this runs once per send and once
    /// per receive.
    fn trace_msg(&self, kind: EventKind, cid: Option<CorrelationId>) {
        if self.ctx.trace.is_enabled() {
            self.ctx.trace_event_with(&self.id.to_string(), kind, cid);
        }
    }

    /// Charges the simulated cost of moving `msg` by `hop`, bumps
    /// counters, and stamps the message's trace context (correlation id
    /// from the sending thread if unset, send timestamp from this
    /// machine's clock).
    fn charge_send(&self, msg: &mut Message, hop: Hop) {
        let cost = &self.ctx.cost;
        let inline = msg.inline_len() as u64;
        let ool_pages = msg.ool_len().div_ceil(4096) as u64;
        let hop_ns = match hop {
            Hop::Queued => cost.message_ns,
            Hop::Handoff => cost.handoff_ns,
        };
        self.ctx
            .clock
            .charge(hop_ns + cost.copy_cost_ns(inline) + cost.remap_cost_ns(ool_pages));
        self.ctx.hot.msg_sent.incr();
        if hop == Hop::Handoff {
            self.ctx.hot.ipc_handoffs.incr();
        }
        self.ctx.hot.bytes_copied.add(inline);
        self.ctx.stats.add(keys::PAGES_REMAPPED, ool_pages);
        if msg.correlation == 0 {
            if let Some(cid) = trace::current_correlation() {
                msg.correlation = cid.raw();
            }
        }
        let cid = CorrelationId::from_raw(msg.correlation);
        if msg.correlation != 0 {
            if msg.parent_span == 0 {
                msg.parent_span = trace::ambient_span_for(msg.correlation);
            }
            match hop {
                // The queue span covers the message's time between
                // enqueue and dequeue — the profiler's per-hop queueing
                // delay.
                Hop::Queued => {
                    msg.queue_span = self.ctx.span_open_with("ipc.queued", msg.parent_span, cid);
                }
                // A handoff's queueing delay is zero: emit a
                // zero-duration span and re-parent the message under it
                // so the receiver's work shows up below the handoff in
                // the tree.
                Hop::Handoff => {
                    let hs = self.ctx.span_open_with("ipc.handoff", msg.parent_span, cid);
                    self.ctx.span_close_with("ipc.handoff", hs, cid);
                    msg.parent_span = hs;
                }
            }
        }
        msg.sent_at_ns = self.ctx.clock.now_ns();
        self.trace_msg(EventKind::MsgSend, cid);
    }

    /// Batch variant of [`PortCore::charge_send`] for a non-empty run of
    /// queued messages: one clock charge, one counter add and one trace
    /// event amortized over the whole run.
    fn charge_send_batch(&self, msgs: &mut [Message]) {
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
        self.ctx.hot.msg_sent.add(msgs.len() as u64);
        self.ctx.hot.bytes_copied.add(bytes);
        self.ctx.stats.add(keys::PAGES_REMAPPED, pages);
        if msgs.len() > 1 {
            self.ctx.hot.ipc_batches.incr();
        }
        let now = self.ctx.clock.now_ns();
        let ambient = trace::current_correlation();
        for m in msgs.iter_mut() {
            if m.correlation == 0 {
                if let Some(cid) = ambient {
                    m.correlation = cid.raw();
                }
            }
            // Batch sends stay cheap: stamp the parent for downstream
            // nesting but skip per-message queue spans.
            if m.parent_span == 0 {
                m.parent_span = trace::ambient_span_for(m.correlation);
            }
            m.sent_at_ns = now;
        }
        self.trace_msg(
            EventKind::MsgSend,
            CorrelationId::from_raw(msgs[0].correlation),
        );
    }

    /// Receive-side bookkeeping for a run of dequeued messages: one
    /// counter add and one `MsgRecv` trace event for the run, a
    /// send-to-receive latency sample per message (they are the data the
    /// histograms exist for), and adoption of the last message's
    /// correlation id and span by the receiving thread.
    fn finish_recv(&self, msgs: &[Message]) {
        let Some(last) = msgs.last() else { return };
        self.ctx.hot.msg_received.add(msgs.len() as u64);
        if msgs.len() > 1 {
            self.ctx.hot.ipc_batches.incr();
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
        let cid = CorrelationId::from_raw(last.correlation);
        self.trace_msg(EventKind::MsgRecv, cid);
        trace::set_current_correlation(cid);
        trace::set_current_span(last.span_context());
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
            expired = match deadline.as_ref() {
                None => {
                    self.send_cv.wait(st.inner_mut());
                    false
                }
                Some(d) => match d.remaining() {
                    None => true,
                    Some(left) => self.send_cv.wait_for(st.inner_mut(), left).timed_out(),
                },
            };
        }
    }

    /// Ends a send: releases the lock, then wakes a parked receiver and
    /// pings the port sets this port is enabled in. Who needs waking is
    /// read under the same hold that queued the message, so a receiver
    /// either saw the message before parking or is counted here.
    fn publish(&self, st: StateGuard<'_>) {
        let wake = st.recv_waiting > 0;
        let wakers = (!st.wakers.is_empty()).then(|| Arc::clone(&st.wakers));
        drop(st);
        if wake {
            self.recv_cv.notify_one();
        }
        let Some(wakers) = wakers else { return };
        let mut saw_dead = false;
        for w in wakers.iter() {
            match w.upgrade() {
                Some(w) => w.ping(),
                None => saw_dead = true,
            }
        }
        if saw_dead {
            retain_wakers(&mut self.control.lock(), |_| true);
        }
    }

    /// `msg_send` and `send_notification`. An error drops `msg` after the
    /// lock is released (guards drop before parameters).
    fn enqueue(&self, mut msg: Message, full: Full) -> Result<(), IpcError> {
        let mut st = self.control.lock();
        self.room(&mut st, full, &mut None)?;
        // Only `msg_send` donates its thread; a kernel thread posting a
        // notification carries on with its own work.
        let handoff = matches!(full, Full::Wait(_))
            && st.handoff_enabled
            && st.recv_waiting > 0
            && st.queue.is_empty();
        self.charge_send(&mut msg, if handoff { Hop::Handoff } else { Hop::Queued });
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
            let n = match self.room(&mut st, full, &mut deadline) {
                Ok(room) => room.min(rest.len()),
                Err(IpcError::Timeout | IpcError::WouldBlock) if rest.len() < total => break,
                Err(e) => return Err(e),
            };
            self.charge_send_batch(&mut rest.as_mut_slice()[..n]);
            st.queue.extend(rest.by_ref().take(n));
            self.publish(st);
        }
        Ok(total - rest.len())
    }

    // ----- receive path -----

    /// Waits, under the lock, for a message and pops it. An oversized
    /// front (under `max_size`) stays queued and reports `MsgTooLarge`,
    /// as `msg_receive` specifies. The deadline is computed once, on the
    /// first wait; on expiry a message that raced in beats `PortDied`
    /// beats `Timeout`.
    fn pop(
        &self,
        st: &mut StateGuard<'_>,
        max_size: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        let mut deadline = None;
        let mut expired = false;
        loop {
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
            expired = match deadline.as_ref() {
                None => {
                    self.recv_cv.wait(st.inner_mut());
                    false
                }
                Some(d) => match d.remaining() {
                    None => true,
                    Some(left) => self.recv_cv.wait_for(st.inner_mut(), left).timed_out(),
                },
            };
            st.recv_waiting -= 1;
        }
    }

    /// `msg_receive`, with or without a size limit.
    fn dequeue(
        &self,
        max_size: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        let mut st = self.control.lock();
        let msg = self.pop(&mut st, max_size, timeout)?;
        drop(st);
        self.send_cv.notify_one();
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
        let first = self.pop(&mut st, None, timeout)?;
        let more = st.queue.len().min(max - 1);
        let mut out = Vec::with_capacity(1 + more);
        out.push(first);
        out.extend(st.queue.drain(..more));
        drop(st);
        self.send_cv.notify_all();
        self.finish_recv(&out);
        Ok(out)
    }

    // ----- lifecycle -----

    fn destroy(&self) {
        let (subs, dropped) = {
            let mut st = self.control.lock();
            if st.dead {
                return;
            }
            st.dead = true;
            (
                std::mem::take(&mut st.death_subs),
                std::mem::take(&mut st.queue),
            )
        };
        self.recv_cv.notify_all();
        self.send_cv.notify_all();
        // Dropping undelivered messages may destroy rights they carried,
        // which can recursively destroy other ports; do it outside the lock.
        drop(dropped);
        for sub in subs {
            if let Some(target) = sub.upgrade() {
                target.post_death_of(self.id);
            }
        }
    }

    /// Posts the notification that port `died` was destroyed to this port
    /// (dropped, like any notification, if this port is dead too).
    fn post_death_of(&self, died: PortId) {
        let note = Message::new(MSG_ID_PORT_DEATH).with(MsgItem::u64s(&[died.0]));
        let _ = self.enqueue(note, Full::Exceed);
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

/// Rewrites the waker list to its live entries that `keep` accepts.
fn retain_wakers(st: &mut State, keep: impl Fn(&Weak<SetWaker>) -> bool) {
    Arc::make_mut(&mut st.wakers).retain(|w| w.strong_count() > 0 && keep(w));
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

    /// Number of messages currently queued on the target port — the
    /// sender-side view of queue depth, for backlog gauges.
    pub fn queued(&self) -> usize {
        self.core.control.lock().queue.len()
    }

    /// `msg_send`: queues a message, blocking while the queue is full.
    ///
    /// `timeout = None` waits indefinitely; `Some(0)` never blocks
    /// (returning [`IpcError::WouldBlock`] when full). When a receiver is
    /// already parked on an empty queue, the send is a handoff: same
    /// queue, reduced simulated cost.
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
    /// A notification to a dead port is dropped.
    ///
    /// Used by kernel components (pager interface, port death) that must
    /// not block on user queues; see Section 6.2.3 on why the kernel can
    /// never afford to wait on a data manager.
    pub fn send_notification(&self, msg: Message) {
        let _ = self.core.enqueue(msg, Full::Exceed);
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
    /// Both hops are handoffs when the peer is already waiting: the
    /// request goes to a parked server, and the reply comes back to this
    /// (by then parked) client — the thread-donation RPC shape, at
    /// `handoff_ns` instead of `message_ns` in either direction.
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
    /// this port's receive right is destroyed.
    pub fn subscribe_death(&self, notify: &SendRight) {
        let mut st = self.core.control.lock();
        if st.dead {
            drop(st);
            notify.core.post_death_of(self.core.id);
            return;
        }
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
        let core = PortCore::new(ctx.clone());
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
        self.core.dequeue(None, timeout)
    }

    /// `msg_receive` with a maximum acceptable payload size: an oversized
    /// message stays queued and [`IpcError::MsgTooLarge`] is returned.
    pub fn receive_limited(
        &self,
        max_size: usize,
        timeout: Option<Duration>,
    ) -> Result<Message, IpcError> {
        self.core.dequeue(Some(max_size), timeout)
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
        self.core.dequeue(None, Some(Duration::ZERO)).ok()
    }

    /// `port_set_backlog`: limits queued messages before senders block.
    pub fn set_backlog(&self, backlog: usize) {
        self.core.control.lock().backlog = backlog.max(1);
        // A larger backlog may be room for senders that are blocked.
        self.core.send_cv.notify_all();
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

    /// Registers a port-set waker pinged on message arrival. Dead weak
    /// entries are pruned on every edit, so the list stays bounded by
    /// the number of *live* port sets no matter how many have died.
    pub(crate) fn register_waker(&self, waker: &Arc<SetWaker>) {
        let mut st = self.core.control.lock();
        retain_wakers(&mut st, |_| true);
        Arc::make_mut(&mut st.wakers).push(Arc::downgrade(waker));
    }

    /// Removes a previously registered waker (and any dead entries).
    pub(crate) fn unregister_waker(&self, waker: &Arc<SetWaker>) {
        let target = Arc::downgrade(waker);
        retain_wakers(&mut self.core.control.lock(), |w| !w.ptr_eq(&target));
    }

    /// Current length of the waker list (test instrumentation for the
    /// bounded-waker-list guarantee).
    #[cfg(test)]
    fn waker_list_len(&self) -> usize {
        self.core.control.lock().wakers.len()
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
                    core.recv_cv.notify_all();
                    core.send_cv.notify_all();
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

    // ----- port-set waker hygiene -----

    #[test]
    fn dropped_port_sets_keep_waker_list_bounded() {
        let c = ctx();
        let (rx, tx) = ReceiveRight::allocate(&c);
        let keeper = Arc::new(SetWaker::default());
        rx.register_waker(&keeper);
        for _ in 0..1000 {
            let w = Arc::new(SetWaker::default());
            rx.register_waker(&w);
            drop(w); // the port outlives the port set
        }
        // Registration prunes dead entries, so 1000 dead port sets leave
        // at most the live keeper plus the most recent corpse.
        assert!(
            rx.waker_list_len() <= 2,
            "waker list grew to {}",
            rx.waker_list_len()
        );
        let gen = keeper.generation();
        tx.send(Message::new(1), None)
            .expect("send to a live port succeeds");
        assert!(
            keeper.wait(gen, Some(Duration::from_secs(1))),
            "live waker still pinged after mass pruning"
        );
        assert!(rx.waker_list_len() <= 2);
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
}
