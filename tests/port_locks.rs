//! Integration: how many times each port operation takes the port's lock.
//!
//! A host-independent ratchet on the IPC path: the counts come from the
//! always-on lock profile in `machsim::lockdep`, not from a clock. The
//! profile is process-wide, so this file holds exactly one test (its
//! binary is its own process) and boots no kernel, whose threads would
//! take port locks of their own.

use machipc::{IpcError, Message, ReceiveRight};
use machsim::lockdep::contention_snapshot;
use machsim::Machine;
use std::time::Duration;

/// Acquisitions, so far, of every lock class that belongs to ports.
fn port_locks_taken() -> u64 {
    contention_snapshot()
        .iter()
        .filter(|c| c.class.name().starts_with("port"))
        .map(|c| c.acquisitions)
        .sum()
}

/// Runs `op` and returns its result with the port-lock acquisitions it made.
fn counted<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = port_locks_taken();
    let out = op();
    (out, port_locks_taken() - before)
}

#[test]
fn each_port_operation_takes_the_port_lock_once() {
    let m = Machine::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&m);

    let (sent, locks) = counted(|| tx.send(Message::new(1), None));
    sent.expect("send to a live, empty port succeeds");
    assert_eq!(locks, 1, "send to a port in no port set");

    let (got, locks) = counted(|| rx.receive(None));
    assert_eq!(got.expect("the queued message is receivable").id, 1);
    assert_eq!(locks, 1, "receive of a queued message");

    let (got, locks) = counted(|| rx.receive(Some(Duration::ZERO)));
    assert_eq!(got.unwrap_err(), IpcError::WouldBlock);
    assert_eq!(locks, 1, "zero-timeout receive on an empty port");

    rx.set_backlog(64);
    let batch: Vec<Message> = (0..64).map(Message::new).collect();
    let (sent, locks) = counted(|| tx.send_many(batch, None));
    assert_eq!(sent.expect("the batch fits the backlog"), 64);
    assert_eq!(locks, 1, "send_many of 64 into a backlog of 64");

    let (got, locks) = counted(|| rx.receive_many(64, None));
    assert_eq!(got.expect("the batch is receivable").len(), 64);
    assert!(locks <= 2, "receive_many(64) took the lock {locks} times");

    let ((), locks) = counted(|| drop(ReceiveRight::allocate(&m)));
    assert!(locks <= 1, "an unused port took its lock {locks} times");
}
