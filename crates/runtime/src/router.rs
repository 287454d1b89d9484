//! Fault-aware routing over N independent engine replicas.
//!
//! One [`ContinuousBatcher`] already self-heals:
//! a failed decode step rebuilds the tier and replays in-flight requests
//! to bit-identical streams, up to its recovery budget. This module turns
//! that into a *fleet-level* property. A [`ReplicaRouter`] owns N replicas
//! of the same model, dispatches each request to the least-loaded healthy
//! replica, and treats a replica whose serve call fails outright —
//! recovery budget exhausted, or an unrecoverable engine fault — as
//! *drained*: it is marked unhealthy, taken out of dispatch, and its
//! entire share is re-routed to the survivors.
//!
//! Zero requests are lost across a drain, by construction rather than by
//! bookkeeping effort: `try_serve` is transactional (an `Err` commits
//! nothing), and every request's sampling stream is an independent
//! function of its own seed — proven batch-composition-independent by the
//! conformance suites — so replaying a share on a different replica
//! reproduces exactly the streams the dead replica would have produced.
//! The failover is accounted in [`RecoveryStats::failovers`] /
//! [`RecoveryStats::requests_rerouted`] on the merged report.

use std::collections::VecDeque;

use esti_core::layout::Layout;
use esti_core::serving::{RecoveryStats, RequestStats, ServingReport};
use esti_model::ReferenceModel;

use crate::engine::WeightFormat;
use crate::serving::{
    ContinuousBatcher, ServeError, ServingOptions, ServingOutcome, ServingRequest,
};

/// Why a routed serve call could not complete.
#[derive(Debug)]
pub enum RouterError {
    /// The router was built with zero replicas.
    NoReplicas,
    /// Every replica was drained before the work finished. The payload is
    /// the failure that drained the last one.
    AllReplicasFailed {
        /// Replicas drained during this call (== the fleet size).
        drained: usize,
        /// The error that drained the last replica.
        last: ServeError,
    },
    /// The submission itself was invalid (empty prompt, unsorted
    /// arrivals, a request that can never fit a budget...) — no failover
    /// can fix it. Request indices refer to the router's submission
    /// order.
    Submission(ServeError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoReplicas => write!(f, "router has no replicas"),
            RouterError::AllReplicasFailed { drained, last } => {
                write!(f, "all {drained} replicas drained (last failure: {last})")
            }
            RouterError::Submission(e) => write!(f, "invalid submission: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::AllReplicasFailed { last: e, .. } | RouterError::Submission(e) => {
                Some(e)
            }
            RouterError::NoReplicas => None,
        }
    }
}

/// Everything a routed serving run produces.
#[derive(Debug, Clone)]
pub struct RouterOutcome {
    /// Generated tokens per request, in submission order — identical to
    /// what each request would produce on any single replica.
    pub outputs: Vec<Vec<usize>>,
    /// Merged fleet report: per-request stats in submission order, step
    /// and occupancy counters summed, recovery accounting absorbed from
    /// every replica plus the router's own failover counters.
    pub report: ServingReport,
    /// Admission-control sheds from every replica, re-indexed to the
    /// submission order.
    pub shed: Vec<ServeError>,
    /// Total tokens generated across the fleet.
    pub total_generated: usize,
    /// Requests each replica completed. A share that failed with its
    /// replica counts nowhere until the survivors complete it — a drained
    /// replica keeps only what it finished before dying.
    pub served_per_replica: Vec<usize>,
    /// Priority preemptions summed across the fleet.
    pub preemptions: usize,
}

/// One engine replica plus its health state.
struct Replica {
    batcher: ContinuousBatcher,
    healthy: bool,
}

/// A fault-aware, least-loaded router over N independent serving replicas.
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{ReplicaRouter, ServingOptions, ServingRequest, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut router =
///     ReplicaRouter::new(&model, layout, WeightFormat::Exact, ServingOptions::default(), 2);
/// let requests = vec![
///     ServingRequest::immediate(vec![1, 2, 3], 4),
///     ServingRequest::immediate(vec![5, 6], 4),
/// ];
/// let outcome = router.try_serve(&requests).unwrap();
/// assert_eq!(outcome.outputs.len(), 2);
/// ```
pub struct ReplicaRouter {
    replicas: Vec<Replica>,
}

impl ReplicaRouter {
    /// Builds `n_replicas` identical replicas (same model, layout, weight
    /// format, and scheduler options). Replicas are fully independent
    /// engines — a fault on one cannot reach another.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ContinuousBatcher::new`].
    #[must_use]
    pub fn new(
        model: &ReferenceModel,
        layout: Layout,
        fmt: WeightFormat,
        opts: ServingOptions,
        n_replicas: usize,
    ) -> Self {
        let replicas = (0..n_replicas)
            .map(|_| Replica {
                batcher: ContinuousBatcher::new(model, layout, fmt, opts),
                healthy: true,
            })
            .collect();
        ReplicaRouter { replicas }
    }

    /// Total replicas, healthy or not.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently in dispatch.
    #[must_use]
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.healthy).count()
    }

    /// Whether replica `i` is in dispatch.
    #[must_use]
    pub fn is_healthy(&self, i: usize) -> bool {
        self.replicas[i].healthy
    }

    /// Takes replica `i` out of dispatch by hand (operational drain, e.g.
    /// ahead of maintenance). Future serve calls route around it.
    pub fn drain(&mut self, i: usize) {
        self.replicas[i].healthy = false;
    }

    /// Returns a drained replica to dispatch (it was rebuilt or replaced
    /// out of band).
    pub fn restore(&mut self, i: usize) {
        self.replicas[i].healthy = true;
    }

    /// Direct access to replica `i`'s scheduler — for chaos injection
    /// ([`ContinuousBatcher::schedule_decode_fault`],
    /// [`ContinuousBatcher::set_max_recoveries`]) and inspection.
    pub fn batcher_mut(&mut self, i: usize) -> &mut ContinuousBatcher {
        &mut self.replicas[i].batcher
    }

    /// Serves `requests` (sorted by arrival) across the fleet.
    ///
    /// Dispatch is least-loaded: requests are assigned in submission
    /// order, each to the healthy replica with the smallest assigned work
    /// (Σ prompt + generation tokens; ties to the lowest index), so the
    /// assignment is deterministic. Each replica then serves its share
    /// under the shared [`ServingOptions`] — admission control and
    /// priority preemption apply per replica exactly as on a single
    /// engine.
    ///
    /// **Failover:** a replica whose serve call fails (recovery budget
    /// exhausted or an unrecoverable engine fault) is drained and its
    /// whole share re-dispatched to the survivors. Nothing is lost:
    /// the failed call committed nothing, and re-serving the share
    /// elsewhere reproduces bit-identical streams (per-request seeded
    /// sampling is independent of batch composition). Each drain adds one
    /// to [`RecoveryStats::failovers`] and the share size to
    /// [`RecoveryStats::requests_rerouted`] on the merged report.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoReplicas`] with an empty fleet (or every replica
    /// already drained); [`RouterError::Submission`] for invalid requests
    /// (re-indexed to submission order); [`RouterError::AllReplicasFailed`]
    /// when faults drain the whole fleet.
    pub fn try_serve(
        &mut self,
        requests: &[ServingRequest],
    ) -> Result<RouterOutcome, RouterError> {
        if self.healthy_count() == 0 {
            return Err(RouterError::NoReplicas);
        }
        if requests.is_empty() {
            return Err(RouterError::Submission(ServeError::NoRequests));
        }
        let n = requests.len();
        let n_rep = self.replicas.len();

        // Least-loaded dispatch over the healthy fleet.
        let mut shares: Vec<Vec<usize>> = vec![Vec::new(); n_rep];
        let mut load = vec![0usize; n_rep];
        for (idx, req) in requests.iter().enumerate() {
            let Some(r) = self.least_loaded(&load) else {
                return Err(RouterError::NoReplicas);
            };
            shares[r].push(idx);
            load[r] += req.prompt.len() + req.max_new_tokens;
        }

        let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stats: Vec<Option<RequestStats>> = vec![None; n];
        let mut shed: Vec<ServeError> = Vec::new();
        let mut recovery = RecoveryStats::default();
        let mut decode_steps = 0usize;
        let mut occupancy_sum = 0usize;
        let mut peak_batch = 0usize;
        let mut total_generated = 0usize;
        let mut preemptions = 0usize;
        let mut served_per_replica = vec![0usize; n_rep];

        let mut queue: VecDeque<usize> =
            (0..n_rep).filter(|&r| !shares[r].is_empty()).collect();
        while let Some(r) = queue.pop_front() {
            let mut share = std::mem::take(&mut shares[r]);
            if share.is_empty() {
                continue;
            }
            // Re-routed indices may interleave with the original share;
            // submission order is arrival order, so sorting restores the
            // sorted-arrival invariant each replica requires.
            share.sort_unstable();
            let local: Vec<ServingRequest> =
                share.iter().map(|&i| requests[i].clone()).collect();
            match self.replicas[r].batcher.try_serve(&local) {
                Ok(outcome) => {
                    served_per_replica[r] += share.len();
                    merge_outcome(
                        &share,
                        outcome,
                        &mut outputs,
                        &mut stats,
                        &mut shed,
                        &mut recovery,
                        &mut decode_steps,
                        &mut occupancy_sum,
                        &mut peak_batch,
                        &mut total_generated,
                        &mut preemptions,
                    );
                }
                Err(err @ ServeError::RecoveryLimit { .. }) => {
                    // The replica is gone: drain it and re-route its whole
                    // share. try_serve committed nothing, so the share
                    // replays losslessly wherever it lands.
                    self.replicas[r].healthy = false;
                    recovery.failovers += 1;
                    recovery.requests_rerouted += share.len();
                    let mut reload: Vec<usize> = (0..n_rep)
                        .map(|i| shares[i].iter().map(|&x| cost(&requests[x])).sum())
                        .collect();
                    // Survivors keep whatever is still queued for them;
                    // redistribute the failed share least-loaded-first.
                    for idx in share {
                        let Some(t) = self.least_loaded(&reload) else {
                            return Err(RouterError::AllReplicasFailed {
                                drained: self.replicas.len() - self.healthy_count(),
                                last: err,
                            });
                        };
                        shares[t].push(idx);
                        reload[t] += cost(&requests[idx]);
                        if !queue.contains(&t) {
                            queue.push_back(t);
                        }
                    }
                }
                Err(err) => {
                    // A submission error: failover cannot fix it. Re-index
                    // to the router's submission order before reporting.
                    return Err(RouterError::Submission(reindex(err, &share)));
                }
            }
        }

        let report = ServingReport::new(
            stats.into_iter().flatten().collect(),
            decode_steps,
            occupancy_sum,
        )
        .with_recovery(recovery)
        .with_peak_batch(peak_batch);
        Ok(RouterOutcome {
            outputs,
            report,
            shed,
            total_generated,
            served_per_replica,
            preemptions,
        })
    }

    /// The healthy replica with the least assigned work (ties to the
    /// lowest index); `None` when the whole fleet is drained.
    fn least_loaded(&self, load: &[usize]) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, rep)| rep.healthy)
            .min_by_key(|&(i, _)| (load[i], i))
            .map(|(i, _)| i)
    }
}

/// Dispatch weight of one request: the tokens it will occupy a slot for.
fn cost(req: &ServingRequest) -> usize {
    req.prompt.len() + req.max_new_tokens
}

/// Folds one replica's outcome into the fleet accumulators, re-indexing
/// from share-local to submission order.
#[allow(clippy::too_many_arguments)] // private: the serve loop's accumulators.
fn merge_outcome(
    share: &[usize],
    outcome: ServingOutcome,
    outputs: &mut [Vec<usize>],
    stats: &mut [Option<RequestStats>],
    shed: &mut Vec<ServeError>,
    recovery: &mut RecoveryStats,
    decode_steps: &mut usize,
    occupancy_sum: &mut usize,
    peak_batch: &mut usize,
    total_generated: &mut usize,
    preemptions: &mut usize,
) {
    let mut shed_local = vec![false; share.len()];
    for e in outcome.shed {
        let ServeError::Overloaded { index, reason } = e else {
            unreachable!("shed entries are always Overloaded");
        };
        shed_local[index] = true;
        shed.push(ServeError::Overloaded { index: share[index], reason });
    }
    // The replica's report lists stats for its non-shed requests in
    // share order; walk both in lockstep.
    let mut it = outcome.report.requests.iter();
    for (local, &global) in share.iter().enumerate() {
        if shed_local[local] {
            continue;
        }
        let Some(&s) = it.next() else {
            unreachable!("replica report is missing a non-shed request");
        };
        stats[global] = Some(s);
    }
    for (local, out) in outcome.outputs.into_iter().enumerate() {
        outputs[share[local]] = out;
    }
    recovery.absorb(&outcome.report.recovery);
    *decode_steps += outcome.report.decode_steps;
    let occ = outcome.report.mean_decode_batch * outcome.report.decode_steps as f64;
    *occupancy_sum += occ.round() as usize;
    *peak_batch = (*peak_batch).max(outcome.report.peak_decode_batch);
    *total_generated += outcome.total_generated;
    *preemptions += outcome.preemptions;
}

/// Maps a share-local [`ServeError`] index back to submission order.
fn reindex(err: ServeError, share: &[usize]) -> ServeError {
    match err {
        ServeError::EmptyPrompt { index } => ServeError::EmptyPrompt { index: share[index] },
        ServeError::PromptTooLong { index, needed, max_seq } => {
            ServeError::PromptTooLong { index: share[index], needed, max_seq }
        }
        ServeError::KvBudgetExceeded { index, needed, budget } => {
            ServeError::KvBudgetExceeded { index: share[index], needed, budget }
        }
        ServeError::Overloaded { index, reason } => {
            ServeError::Overloaded { index: share[index], reason }
        }
        other => other,
    }
}
