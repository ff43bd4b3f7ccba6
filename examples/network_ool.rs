//! Large message data across the network: eager vs copy-on-reference.
//!
//! Section 7: "It is possible to implement copy-on-reference and
//! read/write sharing of information in a network environment without
//! explicit hardware support." A 1 MB message body is sent between two
//! hosts both ways; the receiver touches only a few pages.
//!
//! ```text
//! cargo run --example network_ool
//! ```

use machcore::Task;
use machipc::ReceiveRight;
use machpagers::remote_region;
use machsim::stats::keys;
use std::time::Duration;

const PAGE: u64 = 4096;
const PAGES: u64 = 256; // 1 MB.

fn main() {
    // Eager: every byte crosses the wire at send time.
    {
        let (fabric, (ha, ka), (hb, kb)) = remote_region::two_hosts();
        let sender = Task::create(&ka, "sender");
        let receiver = Task::create(&kb, "receiver");
        let addr = sender.vm_allocate(PAGES * PAGE).unwrap();
        sender.write_memory(addr, b"payload").unwrap();
        let (rx, tx) = ReceiveRight::allocate(hb.machine());
        let net0 = hb.machine().stats.get(keys::NET_BYTES);
        remote_region::send_eager(&fabric, &ha, &hb, &sender, addr, PAGES * PAGE, &tx).unwrap();
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        let (raddr, _) = remote_region::copy_in_eager(&receiver, msg).unwrap();
        let mut b = [0u8; 7];
        receiver.read_memory(raddr, &mut b).unwrap();
        assert_eq!(&b, b"payload");
        println!(
            "eager:             {:>8} bytes on the wire (receiver touched 1 page)",
            hb.machine().stats.get(keys::NET_BYTES) - net0
        );
    }

    // Copy-on-reference: a tiny handle crosses; pages follow on demand.
    {
        let (fabric, (ha, ka), (hb, kb)) = remote_region::two_hosts();
        let sender = Task::create(&ka, "sender");
        let receiver = Task::create(&kb, "receiver");
        let addr = sender.vm_allocate(PAGES * PAGE).unwrap();
        sender.write_memory(addr, b"payload").unwrap();
        let (rx, tx) = ReceiveRight::allocate(hb.machine());
        let net0 = hb.machine().stats.get(keys::NET_BYTES);
        let _pager = remote_region::send_copy_on_reference(
            &fabric,
            &ha,
            &hb,
            &sender,
            addr,
            PAGES * PAGE,
            &tx,
        )
        .unwrap();
        let msg = rx.receive(Some(Duration::from_secs(5))).unwrap();
        let at_send = hb.machine().stats.get(keys::NET_BYTES) - net0;
        let (raddr, _) = remote_region::map_received(&receiver, msg).unwrap();
        let mut b = [0u8; 7];
        receiver.read_memory(raddr, &mut b).unwrap();
        assert_eq!(&b, b"payload");
        println!(
            "copy-on-reference: {:>8} bytes at send time, {:>8} after touching 1 page",
            at_send,
            hb.machine().stats.get(keys::NET_BYTES) - net0
        );
    }
    println!("\nthe duality, networked: what COW mapping does on one host,\ncopy-on-reference paging does across hosts — bytes move only when used.");
}
