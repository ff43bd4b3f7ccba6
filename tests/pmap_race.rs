//! The pmap is a page table the MMU walks without a lock: translations
//! race a writer that enters, removes and downgrades entries, and must
//! only ever read an entry some update wrote.

use machsim::Machine;
use machvm::pmap::VPN_BITS;
use machvm::{Pmap, VmProt};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// Downgrade rounds the writer runs; each owns one block of pages.
const ROUNDS: u64 = 16;
/// Pages in one round's block: the writer churns the odd ones and
/// downgrades the even ones, so churn and downgrade share leaves.
const BLOCK: u64 = 64;
/// Enters and removes per round.
const CHURN: u64 = 400;
/// Updates between the writer's waits for a reader pass, so that every
/// round's churn overlaps reads however the threads are scheduled.
const STRIDE: u64 = 50;
const READERS: usize = 3;
/// A churned page far from the blocks, so interior nodes are published
/// while readers walk.
const FAR: u64 = 1 << 35;

/// The frames the writer ever enters at `vpn`: `vpn * 8 + k`.
fn frame_for(vpn: u64, k: u64) -> usize {
    (vpn * 8 + k % 8) as usize
}

fn was_entered_at(vpn: u64, frame: usize) -> bool {
    frame as u64 / 8 == vpn
}

/// The pages a reader checks: every block page and the far ones.
fn probed() -> impl Iterator<Item = u64> {
    (0..ROUNDS * BLOCK).chain(FAR..FAR + 4)
}

#[test]
fn translations_race_enter_remove_and_protect_range() {
    let pmap = Pmap::new(&Machine::default_machine());
    // Every even block page starts writable; round `r` downgrades block
    // `r` to read-only and then publishes `r + 1` in `downgraded`.
    for vpn in (0..ROUNDS * BLOCK).step_by(2) {
        pmap.enter(vpn, frame_for(vpn, 0), VmProt::DEFAULT);
    }
    let downgraded = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    let start = Barrier::new(READERS + 1);
    let mut live = vec![false; (ROUNDS * BLOCK) as usize];
    let mut far_live = [false; 4];

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        let rounds = downgraded.load(Ordering::Acquire);
                        for vpn in probed() {
                            if let Some(frame) = pmap.translate(vpn, VmProt::READ) {
                                assert!(was_entered_at(vpn, frame), "vpn {vpn} read frame {frame}");
                            }
                            let block = vpn / BLOCK;
                            if vpn < ROUNDS * BLOCK && vpn % 2 == 0 {
                                assert!(pmap.translate(vpn, VmProt::READ).is_some());
                                if block < rounds {
                                    assert_eq!(
                                        pmap.translate(vpn, VmProt::WRITE),
                                        None,
                                        "vpn {vpn} writable after round {block}'s downgrade"
                                    );
                                }
                            }
                        }
                        passes.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        start.wait();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..ROUNDS {
            for k in 0..CHURN {
                if k % STRIDE == 0 {
                    // A reader that failed an assertion makes no more
                    // passes; the scope reports its panic.
                    let seen = passes.load(Ordering::Acquire);
                    while passes.load(Ordering::Acquire) == seen
                        && !readers.iter().all(|r| r.is_finished())
                    {
                        std::thread::yield_now();
                    }
                }
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = seed >> 33;
                if pick.is_multiple_of(8) {
                    let i = (pick / 8 % 4) as usize;
                    let vpn = FAR + i as u64;
                    if far_live[i] {
                        assert!(pmap.remove(vpn).is_some());
                    } else {
                        pmap.enter(vpn, frame_for(vpn, k), VmProt::DEFAULT);
                    }
                    far_live[i] = !far_live[i];
                    continue;
                }
                // An odd page of any block: churn crosses blocks already
                // downgraded and blocks still to come.
                let vpn = (pick % (ROUNDS * BLOCK)) | 1;
                let slot = &mut live[vpn as usize];
                if *slot {
                    assert!(pmap.remove(vpn).is_some());
                } else {
                    pmap.enter(vpn, frame_for(vpn, k), VmProt::DEFAULT);
                }
                *slot = !*slot;
            }
            pmap.protect_range(round * BLOCK, round * BLOCK + BLOCK - 1, VmProt::READ);
            downgraded.store(round + 1, Ordering::Release);
        }
        done.store(true, Ordering::Release);
    });

    let model = (ROUNDS * BLOCK / 2) as usize
        + live.iter().filter(|&&l| l).count()
        + far_live.iter().filter(|&&l| l).count();
    assert_eq!(pmap.resident_count(), model);
    for vpn in (0..ROUNDS * BLOCK).step_by(2) {
        assert_eq!(pmap.translate(vpn, VmProt::WRITE), None);
    }
}

#[test]
fn sparse_table_covers_exactly_the_vpn_width() {
    let pmap = Pmap::new(&Machine::default_machine());
    let top = (1 << VPN_BITS) - 1;
    pmap.enter(0, 1, VmProt::DEFAULT);
    pmap.enter(top, 2, VmProt::DEFAULT);
    assert_eq!(pmap.translate(top, VmProt::WRITE), Some(2));
    assert_eq!(pmap.translate(top + 1, VmProt::READ), None);
    assert_eq!(pmap.lookup(u64::MAX), None);
    // Past the width, a range clamps to it.
    pmap.protect_range(top, u64::MAX, VmProt::READ);
    assert_eq!(pmap.translate(top, VmProt::WRITE), None);
    pmap.remove_range(0, u64::MAX);
    assert_eq!(pmap.resident_count(), 0);
    assert_eq!(pmap.lookup(0), None);
    assert_eq!(pmap.lookup(top), None);
}

#[test]
#[should_panic(expected = "past the MMU")]
fn entering_past_the_vpn_width_panics() {
    Pmap::new(&Machine::default_machine()).enter(1 << VPN_BITS, 0, VmProt::READ);
}
