//! Model-checked interleaving tests for the mailbox-and-barrier protocol:
//! one deposit into a generation-parity mailbox, one barrier, reads by
//! reference, and a last-reader release per collective. Most models run the
//! blocking collectives (post, then complete); the two executor models post
//! for several members on one thread before completing any; the lending
//! models move inputs into their deposits and check what the next
//! completion on the group hands back.
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

use std::borrow::Cow;
use std::time::Duration;

use esti_collectives::sync::Barrier;
use esti_collectives::{Call, CollectiveError, CommGroup, Posted, Received};
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
    // One barrier per collective: a fast member starting collective #2
    // deposits into the other parity while the slow member may still read
    // #1, and collective #3 wraps back onto #1's parity — whose mailboxes
    // must by then hold no deposit of #1, and must not lose one #3 needs.
    loom::model(|| {
        let (g0, g1) = pair();
        let h = loom::thread::spawn(move || {
            let sum = g1.all_reduce(&Tensor::full(vec![1], 2.0));
            let both = g1.all_gather(&sum, 0);
            g1.all_reduce(&both)
        });
        let sum = g0.all_reduce(&Tensor::full(vec![1], 1.0));
        let both = g0.all_gather(&sum, 0);
        let mine = g0.all_reduce(&both);
        let theirs = h.join().expect("member thread");
        assert_eq!(mine.data(), &[6.0, 6.0]);
        assert_eq!(theirs.data(), &[6.0, 6.0]);
    });
}

#[test]
fn last_reader_never_empties_a_mailbox_a_peer_still_reads() {
    // Three members, so one member's read of a generation can overlap both
    // of its peers finishing theirs: whoever counts itself last empties the
    // parity's mailboxes, and no interleaving may let that happen before
    // every member has taken its references (a reader finding an empty
    // mailbox panics on "peer deposited"). The follow-up all-gather reuses
    // the other parity while the first generation may still be draining.
    loom::model(|| {
        let mut members = CommGroup::create(3);
        let g2 = members.remove(2);
        let g1 = members.remove(1);
        let g0 = members.remove(0);
        let run = |g: CommGroup| {
            let x = Tensor::full(vec![1], g.rank() as f32 + 1.0);
            let sum = g.all_reduce(&x);
            g.all_gather(&sum, 0)
        };
        let h1 = loom::thread::spawn(move || run(g1));
        let h2 = loom::thread::spawn(move || run(g2));
        let mine = run(g0);
        for out in [mine, h1.join().expect("member 1"), h2.join().expect("member 2")] {
            assert_eq!(out.data(), &[6.0, 6.0, 6.0]);
        }
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

/// Posts member `g`'s all-reduce of its rank + 1.
fn post_rank(g: &CommGroup) -> Posted {
    g.post(Call::AllReduce { input: Cow::Owned(Tensor::full(vec![1], g.rank() as f32 + 1.0)) })
}

/// The one-element sum a completed all-reduce hands back.
fn sum(received: Received) -> Vec<f32> {
    match received {
        Received::Tensor(t) => t.data().to_vec(),
        _ => panic!("an all-reduce reads one tensor"),
    }
}

#[test]
fn one_thread_posts_for_two_members_then_completes() {
    // An executor running members 0 and 1 of a 3-member group posts for
    // both before it completes either, while member 2 runs on its own
    // thread: under every interleaving all three read the same sum, and
    // neither of the executor's completions waits on the other.
    loom::model(|| {
        let mut members = CommGroup::create(3);
        let g2 = members.remove(2);
        let g1 = members.remove(1);
        let g0 = members.remove(0);
        let h = loom::thread::spawn(move || sum(g2.complete(post_rank(&g2), Vec::new()).0));
        let (p0, p1) = (post_rank(&g0), post_rank(&g1));
        let (s0, s1) = (sum(g0.complete(p0, Vec::new()).0), sum(g1.complete(p1, Vec::new()).0));
        for out in [s0, s1, h.join().expect("member 2")] {
            assert_eq!(out, [6.0]);
        }
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn completing_a_member_before_posting_its_executor_mate_deadlocks() {
    // The mutation of the model above: the executor completes member 0
    // before it posts member 1, so member 0 waits for an arrival that only
    // its own thread could make, and the model checker reports a deadlock.
    loom::model(|| {
        let mut members = CommGroup::create(3);
        let g2 = members.remove(2);
        let g1 = members.remove(1);
        let g0 = members.remove(0);
        let _h = loom::thread::spawn(move || sum(g2.complete(post_rank(&g2), Vec::new()).0));
        let s0 = sum(g0.complete(post_rank(&g0), Vec::new()).0);
        let s1 = sum(g1.complete(post_rank(&g1), Vec::new()).0);
        assert_eq!((s0, s1), (vec![6.0], vec![6.0]));
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

/// Member `g`'s all-reduce of an owned `[2]` input, moved into its deposit:
/// the sum, what the completion handed back, and the input's address.
fn lend_rank(g: &CommGroup, value: f32) -> (Vec<f32>, Option<usize>, usize) {
    let x = Tensor::full(vec![2], value);
    let at = x.data().as_ptr() as usize;
    let (received, back) = g.complete(g.post(Call::AllReduce { input: Cow::Owned(x) }), Vec::new());
    (sum(received), back.map(|b| b.as_ptr() as usize), at)
}

#[test]
fn the_next_rendezvous_hands_back_the_lent_buffer() {
    // Both members move their inputs into two all-reduces in a row. Under
    // every interleaving the second completion hands each member back the
    // very allocation it lent the first — every peer finished reading it
    // before arriving at the second — and the sums are right. Taking a
    // deposit back at its own generation's completion, while a slow peer
    // may still be reading it, fails this model.
    loom::model(|| {
        let (g0, g1) = pair();
        let run = |g: CommGroup| {
            let r = g.rank() as f32;
            let (first, none, lent) = lend_rank(&g, r + 1.0);
            let (second, back, _) = lend_rank(&g, 10.0 * (r + 1.0));
            assert_eq!(none, None, "rank {r}: nothing was lent before the first call");
            assert_eq!(back, Some(lent), "rank {r}: the next rendezvous hands back the first input's buffer");
            (first, second)
        };
        let h = loom::thread::spawn(move || run(g1));
        for (first, second) in [run(g0), h.join().expect("member 1")] {
            assert_eq!(first, [3.0, 3.0]);
            assert_eq!(second, [30.0, 30.0]);
        }
    });
}

#[test]
fn a_held_part_makes_the_take_back_fall_back() {
    // Member 1 keeps member 0's part of a parts gather across the next
    // collective, dropping it only after a third: under every interleaving
    // member 0's second completion hands nothing back and neither panics
    // nor races, and the part still reads member 0's values.
    loom::model(|| {
        let (g0, g1) = pair();
        let run = |g: CommGroup| {
            let shard = Cow::Owned(Tensor::full(vec![1], g.rank() as f32 + 1.0));
            let (received, _) = g.complete(g.post(Call::AllGatherParts { shard, dim: 0 }), Vec::new());
            let Received::Parts(parts) = received else { panic!("a parts gather reads parts") };
            let kept = parts.into_iter().next().filter(|_| g.rank() == 1);
            let (_, back, _) = lend_rank(&g, 1.0);
            let _ = g.all_reduce(&Tensor::full(vec![1], 1.0));
            (back.is_some(), kept.map(|part| part.data().to_vec()))
        };
        let h = loom::thread::spawn(move || run(g1));
        assert_eq!(run(g0), (false, None));
        assert_eq!(h.join().expect("member 1"), (true, Some(vec![1.0])));
    });
}
