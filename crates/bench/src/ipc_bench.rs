//! E1/E2 — the primitive operations of Tables 3-1 and 3-2.
//!
//! Simulated per-operation costs for `msg_send`/`msg_receive`/`msg_rpc`
//! across message sizes (inline vs out-of-line), and a functional sweep of
//! all eight port operations.

use crate::table::{fmt_ns, Table};
use machipc::{IpcContext, Message, MsgItem, OolBuffer, PortSpace, ReceiveRight};

/// One message-operation measurement.
#[derive(Clone, Debug)]
pub struct MsgCost {
    /// Operation label.
    pub op: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Simulated ns per operation.
    pub sim_ns: u64,
}

/// Measures send+receive cost for inline payloads of `size` bytes.
pub fn measure_inline(size: u64) -> MsgCost {
    let ctx = IpcContext::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&ctx);
    rx.set_backlog(64);
    let iters = 32u64;
    let t0 = ctx.clock.now_ns();
    for _ in 0..iters {
        tx.send(
            Message::new(1).with(MsgItem::bytes(vec![0u8; size as usize])),
            None,
        )
        .unwrap();
        rx.receive(None).unwrap();
    }
    MsgCost {
        op: "msg_send+receive (inline)".into(),
        size,
        sim_ns: (ctx.clock.now_ns() - t0) / iters,
    }
}

/// Measures send+receive cost for out-of-line payloads of `size` bytes.
pub fn measure_ool(size: u64) -> MsgCost {
    let ctx = IpcContext::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&ctx);
    rx.set_backlog(64);
    let payload = OolBuffer::from_vec(vec![0u8; size as usize]);
    let iters = 32u64;
    let t0 = ctx.clock.now_ns();
    for _ in 0..iters {
        tx.send(
            Message::new(1).with(MsgItem::OutOfLine(payload.clone())),
            None,
        )
        .unwrap();
        rx.receive(None).unwrap();
    }
    MsgCost {
        op: "msg_send+receive (out-of-line)".into(),
        size,
        sim_ns: (ctx.clock.now_ns() - t0) / iters,
    }
}

/// Measures a full `msg_rpc` round trip with an echoing server thread.
pub fn measure_rpc() -> MsgCost {
    let ctx = IpcContext::default_machine();
    let (rx, tx) = ReceiveRight::allocate(&ctx);
    let server = std::thread::spawn(move || {
        while let Ok(m) = rx.receive(None) {
            if m.id == 0 {
                break;
            }
            if let Some(r) = &m.reply {
                let _ = r.send(Message::new(m.id + 1), None);
            }
        }
    });
    let iters = 16u64;
    let t0 = ctx.clock.now_ns();
    for _ in 0..iters {
        tx.rpc(Message::new(5), None, None).unwrap();
    }
    let cost = (ctx.clock.now_ns() - t0) / iters;
    tx.send(Message::new(0), None).unwrap();
    server.join().unwrap();
    MsgCost {
        op: "msg_rpc".into(),
        size: 0,
        sim_ns: cost,
    }
}

/// The default message-cost sweep.
pub fn run_default() -> Vec<MsgCost> {
    let mut out = Vec::new();
    for size in [64u64, 4096, 65536, 1 << 20] {
        out.push(measure_inline(size));
        out.push(measure_ool(size));
    }
    out.push(measure_rpc());
    out
}

/// Renders the E1 table.
pub fn table(costs: &[MsgCost]) -> Table {
    let mut t = Table::new(
        "E1 — message primitives (Table 3-1): simulated per-op cost",
        &["operation", "payload", "sim cost/op"],
    );
    for c in costs {
        t.row(&[
            c.op.clone(),
            if c.size == 0 {
                "-".into()
            } else {
                format!("{}B", c.size)
            },
            fmt_ns(c.sim_ns),
        ]);
    }
    t
}

/// Exercises all eight Table 3-2 port operations; returns (op, verified).
pub fn port_ops_checklist() -> Vec<(String, bool)> {
    let ctx = IpcContext::default_machine();
    let space = PortSpace::new(&ctx);
    let mut rows = Vec::new();
    let p = space.port_allocate();
    rows.push(("port_allocate".to_string(), true));
    rows.push(("port_enable".to_string(), space.port_enable(p).is_ok()));
    space.send(p, Message::new(9), None).unwrap();
    rows.push((
        "port_messages".to_string(),
        space.port_messages() == vec![p],
    ));
    rows.push((
        "port_status".to_string(),
        space
            .port_status(p)
            .map(|s| s.num_msgs == 1)
            .unwrap_or(false),
    ));
    rows.push((
        "port_set_backlog".to_string(),
        space.port_set_backlog(p, 2).is_ok()
            && space
                .port_status(p)
                .map(|s| s.backlog == 2)
                .unwrap_or(false),
    ));
    rows.push((
        "msg_receive (default group)".to_string(),
        space
            .receive_default(Some(std::time::Duration::from_secs(1)))
            .map(|(from, m)| from == p && m.id == 9)
            .unwrap_or(false),
    ));
    rows.push(("port_disable".to_string(), space.port_disable(p).is_ok()));
    let tx = space.send_right(p).unwrap();
    rows.push((
        "port_deallocate (death notified)".to_string(),
        space.port_deallocate(p).is_ok() && !tx.is_alive(),
    ));
    rows
}

/// Renders the E2 table.
pub fn port_table() -> Table {
    let mut t = Table::new(
        "E2 — port operations (Table 3-2): conformance checklist",
        &["operation", "verified"],
    );
    for (op, ok) in port_ops_checklist() {
        t.row(&[op, if ok { "yes" } else { "NO" }.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_cost_grows_with_size_ool_does_not() {
        let i_small = measure_inline(64);
        let i_big = measure_inline(1 << 20);
        let o_small = measure_ool(64);
        let o_big = measure_ool(1 << 20);
        assert!(i_big.sim_ns > 100 * i_small.sim_ns);
        assert!(o_big.sim_ns < 100 * o_small.sim_ns.max(1));
        // At 1 MB, OOL beats inline decisively.
        assert!(o_big.sim_ns * 10 < i_big.sim_ns);
    }

    #[test]
    fn rpc_costs_about_two_messages() {
        let rpc = measure_rpc().sim_ns;
        let one = measure_inline(0).sim_ns;
        // Each hop is either handed to a parked receiver or queued and
        // received, whichever the host's schedule produced: two handoffs
        // is the least an RPC can charge; two queued send+receive pairs
        // (2 x one) is the most, bounded here with 2x slack.
        let handoff = IpcContext::default_machine().cost.handoff_ns;
        assert!(
            2 * handoff <= rpc && rpc <= 4 * one,
            "rpc {rpc} ns outside [{}, {}]",
            2 * handoff,
            4 * one
        );
    }

    #[test]
    fn all_port_ops_verified() {
        for (op, ok) in port_ops_checklist() {
            assert!(ok, "port operation failed verification: {op}");
        }
    }
}
