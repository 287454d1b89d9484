//! Analytic model of chip-crash recovery cost.
//!
//! The serving runtime recovers from a dead chip by resetting the engine in
//! place and replaying every in-flight request: re-prefill its prompt, then
//! re-derive its already-emitted decode tokens step by step (the slot-mode
//! decode tier steps all live requests together, so the number of replayed
//! steps is the *longest* emitted suffix, not the sum). This module prices
//! that procedure in closed form so the measured recovery accounting in
//! `ServingReport::recovery` can be cross-checked the way measured
//! collective volumes are checked against Appendix A.1.

/// One in-flight request at the moment the engine died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRequest {
    /// Prompt tokens (re-prefilled in full during replay).
    pub prompt_len: usize,
    /// Tokens already emitted, *including* the first token sampled from the
    /// prefill logits — so always ≥ 1 for an admitted request. The
    /// remaining `emitted - 1` tokens were produced by decode steps and
    /// must be re-derived.
    pub emitted: usize,
}

/// Cost knobs of the recovery procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryModel {
    /// Time to detect the failure: the collective deadline in the worst
    /// case (a stall), ~0 for a crash (cancellation is immediate).
    pub detection_s: f64,
    /// Time to reset the poisoned partitioned engine in place (fresh
    /// collective groups, cleared caches; the weight shards stay).
    pub rebuild_s: f64,
    /// Prefill throughput, tokens/second (prompt replay).
    pub prefill_tokens_per_s: f64,
    /// Decode-tier step time, seconds/step (emitted-suffix replay).
    pub step_s: f64,
}

/// What a crash at a given moment costs, in the units the serving report
/// measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCost {
    /// In-flight requests replayed.
    pub requests_replayed: usize,
    /// Prompt tokens re-prefilled.
    pub prefill_tokens_replayed: usize,
    /// Already-emitted decode tokens re-derived.
    pub decode_tokens_replayed: usize,
    /// Decode steps spent re-deriving known tokens: the longest emitted
    /// decode suffix among live requests (slots replay in lockstep).
    pub steps_lost: usize,
    /// End-to-end recovery time: detection + reset + re-prefill of every
    /// live prompt + the replayed decode steps.
    pub seconds: f64,
}

/// Prices the recovery procedure for the given set of in-flight requests.
///
/// The count fields are exact (the runtime's measured
/// `ServingReport::recovery` must match them identically); `seconds` is
/// analytic, from the [`RecoveryModel`] knobs.
#[must_use]
pub fn crash_recovery_cost(live: &[LiveRequest], model: &RecoveryModel) -> RecoveryCost {
    let requests_replayed = live.len();
    let prefill_tokens_replayed: usize = live.iter().map(|r| r.prompt_len).sum();
    let decode_tokens_replayed: usize = live.iter().map(|r| r.emitted.saturating_sub(1)).sum();
    let steps_lost = live.iter().map(|r| r.emitted.saturating_sub(1)).max().unwrap_or(0);
    let seconds = model.detection_s
        + model.rebuild_s
        + prefill_tokens_replayed as f64 / model.prefill_tokens_per_s
        + steps_lost as f64 * model.step_s;
    RecoveryCost {
        requests_replayed,
        prefill_tokens_replayed,
        decode_tokens_replayed,
        steps_lost,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RecoveryModel {
        RecoveryModel {
            detection_s: 0.1,
            rebuild_s: 0.4,
            prefill_tokens_per_s: 100.0,
            step_s: 0.05,
        }
    }

    #[test]
    fn empty_decode_tier_costs_only_rebuild_and_detection() {
        let c = crash_recovery_cost(&[], &model());
        assert_eq!(c.requests_replayed, 0);
        assert_eq!(c.prefill_tokens_replayed, 0);
        assert_eq!(c.decode_tokens_replayed, 0);
        assert_eq!(c.steps_lost, 0);
        assert!((c.seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_are_sums_and_steps_are_the_max_suffix() {
        let live = [
            LiveRequest { prompt_len: 4, emitted: 3 }, // 2 decode tokens
            LiveRequest { prompt_len: 7, emitted: 1 }, // fresh admission
            LiveRequest { prompt_len: 2, emitted: 6 }, // 5 decode tokens
        ];
        let c = crash_recovery_cost(&live, &model());
        assert_eq!(c.requests_replayed, 3);
        assert_eq!(c.prefill_tokens_replayed, 13);
        assert_eq!(c.decode_tokens_replayed, 7);
        // Slots replay in lockstep: the longest suffix bounds the steps.
        assert_eq!(c.steps_lost, 5);
        let expect = 0.1 + 0.4 + 13.0 / 100.0 + 5.0 * 0.05;
        assert!((c.seconds - expect).abs() < 1e-12);
    }

    #[test]
    fn later_crashes_cost_monotonically_more_replay() {
        let m = model();
        let mut last = -1.0;
        for step in 0..8 {
            let live = [LiveRequest { prompt_len: 5, emitted: 1 + step }];
            let c = crash_recovery_cost(&live, &m);
            assert_eq!(c.decode_tokens_replayed, step);
            assert!(c.seconds > last);
            last = c.seconds;
        }
    }
}
