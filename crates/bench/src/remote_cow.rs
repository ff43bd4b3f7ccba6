//! E16 — out-of-line message data across the network: eager transmission
//! vs copy-on-reference (Section 7).
//!
//! The network analogue of E15: with no shared memory to map, "inline"
//! becomes eager transmission and "COW" becomes copy-on-reference through
//! a snapshot pager. Bytes on the wire should scale with the *touched*
//! fraction for copy-on-reference and with the *total* size for eager.

use crate::table::Table;
use machcore::Task;
use machipc::ReceiveRight;
use machpagers::remote_region;
use machsim::stats::keys;
use std::time::Duration;

const PAGE: u64 = 4096;

/// One sweep point.
#[derive(Clone, Debug)]
pub struct RemoteCowPoint {
    /// Transfer strategy.
    pub strategy: String,
    /// Percent of pages the receiver touches.
    pub touched_percent: u64,
    /// Bytes that crossed the network in total.
    pub net_bytes: u64,
}

/// Measures one (eager?, touched%) point for a 64-page region.
pub fn measure(eager: bool, touched_percent: u64) -> RemoteCowPoint {
    let (fabric, (ha, ka), (hb, kb)) = remote_region::two_hosts();
    let sender = Task::create(&ka, "s");
    let receiver = Task::create(&kb, "r");
    let pages = 64u64;
    let addr = sender.vm_allocate(pages * PAGE).unwrap();
    for i in 0..pages {
        sender.write_memory(addr + i * PAGE, &[i as u8]).unwrap();
    }
    let (rx, tx) = ReceiveRight::allocate(hb.machine());
    let net0 = hb.machine().stats.get(keys::NET_BYTES);
    let raddr = if eager {
        remote_region::send_eager(&fabric, &ha, &hb, &sender, addr, pages * PAGE, &tx).unwrap();
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        remote_region::copy_in_eager(&receiver, msg).unwrap().0
    } else {
        let pager = remote_region::send_copy_on_reference(
            &fabric,
            &ha,
            &hb,
            &sender,
            addr,
            pages * PAGE,
            &tx,
        )
        .unwrap();
        std::mem::forget(pager);
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        remote_region::map_received(&receiver, msg).unwrap().0
    };
    let touched = pages * touched_percent / 100;
    for i in 0..touched {
        let mut b = [0u8; 1];
        receiver.read_memory(raddr + i * PAGE, &mut b).unwrap();
        assert_eq!(b[0], i as u8);
    }
    RemoteCowPoint {
        strategy: if eager { "eager" } else { "copy-on-ref" }.to_string(),
        touched_percent,
        net_bytes: hb.machine().stats.get(keys::NET_BYTES) - net0,
    }
}

/// The standard sweep.
pub fn run_default() -> Vec<RemoteCowPoint> {
    let mut out = Vec::new();
    for touched in [0u64, 10, 50, 100] {
        out.push(measure(true, touched));
        out.push(measure(false, touched));
    }
    out
}

/// Renders the E16 table.
pub fn table(points: &[RemoteCowPoint]) -> Table {
    let mut t = Table::new(
        "E16 — network OOL data: eager vs copy-on-reference (Section 7, 64 pages)",
        &["strategy", "touched", "net bytes"],
    );
    for p in points {
        t.row(&[
            p.strategy.clone(),
            format!("{}%", p.touched_percent),
            p.net_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_scale_with_touch_for_cor_only() {
        let eager_0 = measure(true, 0);
        let eager_100 = measure(true, 100);
        let cor_0 = measure(false, 0);
        let cor_100 = measure(false, 100);
        // Eager: bytes independent of touching; always >= the region size.
        assert!(eager_0.net_bytes >= 64 * PAGE);
        assert!(eager_100.net_bytes >= 64 * PAGE);
        // Copy-on-reference: near zero untouched, ~full when all touched.
        assert!(cor_0.net_bytes < PAGE);
        assert!(cor_100.net_bytes >= 64 * PAGE);
        // The crossover favors copy-on-reference for sparse use.
        let cor_10 = measure(false, 10);
        assert!(cor_10.net_bytes * 5 < eager_0.net_bytes);
    }
}
