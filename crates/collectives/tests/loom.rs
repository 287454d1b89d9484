//! Model-checked interleaving tests for the mailbox-and-barrier protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, which swaps the sync
//! primitives in `esti_collectives::sync` for the `esti-loom` bounded-DFS
//! checker: the tests below then run under *every* explored interleaving of
//! the member threads, and any schedule that panics, returns a wrong
//! result, or deadlocks fails the test with its decision trace.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p esti-collectives --test loom --release
//! ```

#![cfg(loom)]

use std::time::Duration;

use esti_collectives::sync::Barrier;
use esti_collectives::{CollectiveError, CommGroup};
use esti_tensor::Tensor;
use loom::sync::Arc;

/// Split a freshly created 2-member group into its rank-0 and rank-1 handles.
fn pair() -> (CommGroup, CommGroup) {
    let mut members = CommGroup::create(2);
    let g1 = members.remove(1);
    let g0 = members.remove(0);
    (g0, g1)
}

#[test]
fn barrier_two_members_two_generations() {
    // The sense-reversing barrier must stay correct when a fast thread's
    // second wait overlaps a slow thread's first: exactly one leader per
    // generation, under every interleaving.
    loom::model(|| {
        let b = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&b);
        let h = loom::thread::spawn(move || {
            let first = b2.wait();
            let second = b2.wait();
            (first, second)
        });
        let first = b.wait();
        let second = b.wait();
        let (peer_first, peer_second) = h.join().expect("member thread");
        assert!(first != peer_first, "exactly one leader per generation");
        assert!(second != peer_second, "exactly one leader per generation");
    });
}

#[test]
fn all_reduce_two_members_all_interleavings() {
    loom::model(|| {
        let (g0, g1) = pair();
        let h = loom::thread::spawn(move || g1.all_reduce(&Tensor::full(vec![2], 2.0)));
        let mine = g0.all_reduce(&Tensor::full(vec![2], 1.0));
        let theirs = h.join().expect("member thread");
        assert_eq!(mine.data(), &[3.0, 3.0]);
        assert_eq!(theirs.data(), &[3.0, 3.0]);
    });
}

#[test]
fn all_gather_two_members_all_interleavings() {
    loom::model(|| {
        let (g0, g1) = pair();
        let h = loom::thread::spawn(move || g1.all_gather(&Tensor::full(vec![1], 1.0), 0));
        let mine = g0.all_gather(&Tensor::full(vec![1], 0.0), 0);
        let theirs = h.join().expect("member thread");
        // Rank order must hold no matter which member deposited first.
        assert_eq!(mine.data(), &[0.0, 1.0]);
        assert_eq!(theirs.data(), &[0.0, 1.0]);
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_generations() {
    // The racy failure mode the two-phase exchange protects against: a fast
    // member starting collective #2 must not overwrite a mailbox slot the
    // slow member still reads for collective #1. all_reduce then all_gather
    // exercises both barrier phases twice.
    loom::model(|| {
        let (g0, g1) = pair();
        let h = loom::thread::spawn(move || {
            let sum = g1.all_reduce(&Tensor::full(vec![1], 2.0));
            g1.all_gather(&sum, 0)
        });
        let sum = g0.all_reduce(&Tensor::full(vec![1], 1.0));
        let mine = g0.all_gather(&sum, 0);
        let theirs = h.join().expect("member thread");
        assert_eq!(mine.data(), &[3.0, 3.0]);
        assert_eq!(theirs.data(), &[3.0, 3.0]);
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn missing_member_is_detected_as_deadlock() {
    // A 2-member group where only one member ever calls the collective:
    // the protocol (correctly) blocks forever at the barrier, and the model
    // checker must report that as a deadlock rather than hang.
    loom::model(|| {
        let (g0, _g1) = pair();
        let _ = g0.all_reduce(&Tensor::full(vec![1], 1.0));
    });
}

#[test]
fn missing_member_with_deadline_times_out_cleanly() {
    // Same missing-member scenario, but with a deadline armed: instead of
    // the deadlock above, the waiter must surface a structured Timeout
    // under every interleaving. (Under the model checker the deadline
    // "expires" exactly at quiescence — the schedule where a real timeout
    // would fire.)
    loom::model(|| {
        let b = Barrier::new(2);
        let res = b.wait_deadline(Some(Duration::from_millis(10)));
        assert!(
            matches!(res, Err(CollectiveError::Timeout { .. })),
            "expected structured timeout, got {res:?}"
        );
        // The timed-out waiter marked the whole barrier dead: a late peer
        // must observe the same structured error, not re-enter the wait.
        let late = b.wait_deadline(Some(Duration::from_millis(10)));
        assert!(matches!(late, Err(CollectiveError::Timeout { .. })));
    });
}

#[test]
fn timed_wait_still_completes_when_all_members_arrive() {
    // A deadline must be invisible on the fault-free path: both members
    // arrive, the barrier releases with exactly one leader, and no
    // interleaving manufactures a spurious timeout.
    loom::model(|| {
        let b = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&b);
        let h = loom::thread::spawn(move || {
            b2.wait_deadline(Some(Duration::from_secs(1))).expect("fault-free wait")
        });
        let mine = b.wait_deadline(Some(Duration::from_secs(1))).expect("fault-free wait");
        let theirs = h.join().expect("member thread");
        assert!(mine != theirs, "exactly one leader per generation");
    });
}

#[test]
fn cancel_wakes_blocked_waiter_with_peer_crashed() {
    // A peer crash must reach a member already blocked inside the barrier
    // (and one arriving after the cancellation) as PeerCrashed naming the
    // dead chip, under every interleaving of cancel vs. wait.
    loom::model(|| {
        let b = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&b);
        let h = loom::thread::spawn(move || b2.wait_deadline(None));
        b.cancel(7);
        let res = h.join().expect("waiter thread returns, not hangs");
        assert_eq!(res, Err(CollectiveError::PeerCrashed { rank: 7 }));
        assert_eq!(b.wait_deadline(None), Err(CollectiveError::PeerCrashed { rank: 7 }));
    });
}
