//! Two-tier serving in simulated time (Section 4.4).
//!
//! The paper's low-latency recipe pairs *different batch sizes per phase*:
//!
//! > "This mixture of batch sizes is possible in practice either by
//! > generating multiple samples from the same input text, or by
//! > pipelining a batch-1 prefill server into a batch-64 decoding server."
//!
//! [`simulate_trace`] runs that second arrangement as a discrete-event
//! system: an [`ArrivalTrace`] of requests arrives over time, a serial
//! prefill tier processes prompts one at a time (batch 1, minimum prefill
//! latency), and a decode tier runs a continuous loop of generation steps
//! over its slots, admitting newly prefilled requests at step boundaries.
//! What is admitted, preempted or shed is decided by the one
//! [`crate::scheduler::Scheduler`] the live `ContinuousBatcher` also runs
//! on; this module only prices time.
//!
//! Step costs come from the same analytical model as every figure, so the
//! serving numbers stay consistent with the rest of the reproduction.
//! The module also holds the types both callers report in
//! ([`ServingReport`], [`RequestStats`], [`RecoveryStats`]) and the
//! seeded open-loop load generator ([`ArrivalTrace::generate`]).

use std::collections::HashMap;

use esti_hal::{DType, Seconds};
use esti_model::ModelConfig;

use crate::machine::Machine;
use crate::perf::{estimate, PhaseSpec};
use crate::planner;
use crate::scheduler::{Advance, Decision, Job, Scheduler};

/// Scheduling class of a request. Ordered: `Low < Normal < High`, so the
/// derived [`Ord`] is "who goes first". Schedulers admit (and prefill)
/// higher classes first and, under pressure, preempt strictly lower
/// classes to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort background work: first to be shed or preempted.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive (interactive) work: jumps every queue and may
    /// preempt lower classes.
    High,
}

impl Priority {
    /// All classes, lowest first (so `ALL[p.index()] == p`).
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Dense index for per-class tables: `Low = 0, Normal = 1, High = 2`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// Static description of the two tiers.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Chips of the prefill tier.
    pub prefill_machine: Machine,
    /// Chips of the decode tier.
    pub decode_machine: Machine,
    /// Maximum concurrent sequences in the decode batch.
    pub max_decode_batch: usize,
    /// Weight storage type.
    pub weight_dtype: DType,
}

/// One simulated request's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestStats {
    /// Arrival time.
    pub arrival: Seconds,
    /// When prefill finished and the request became decodable — the first
    /// generated token exists at this instant, so `prefilled - arrival` is
    /// the request's TTFT.
    pub prefilled: Seconds,
    /// When the last token was generated.
    pub finished: Seconds,
    /// Tokens actually generated (`max_new_tokens` for a completed
    /// request). Drives the per-output-token (TPOT) statistic.
    pub generated: usize,
}

impl RequestStats {
    /// End-to-end latency.
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.finished - self.arrival
    }

    /// Time spent queued + in prefill.
    #[must_use]
    pub fn prefill_latency(&self) -> Seconds {
        self.prefilled - self.arrival
    }

    /// Time to first token: the first generated token is sampled from the
    /// prefill logits, so it exists the moment prefill completes.
    #[must_use]
    pub fn ttft(&self) -> Seconds {
        self.prefilled - self.arrival
    }

    /// Mean seconds per output token *after* the first (the decode-steady
    /// rate users perceive while a response streams). `None` for requests
    /// that generated fewer than two tokens — there is no inter-token gap
    /// to measure.
    #[must_use]
    pub fn tpot(&self) -> Option<Seconds> {
        (self.generated >= 2)
            .then(|| (self.finished - self.prefilled) / (self.generated - 1) as f64)
    }
}

/// Fault and recovery accounting for a serving run. All-zero (the
/// [`Default`]) on a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Engine failures (chip crashes, collective timeouts) survived.
    pub faults: usize,
    /// Decode steps whose generated tokens had to be re-derived after a
    /// failure: the longest already-emitted decode suffix among the
    /// requests that were in flight when the engine died.
    pub steps_lost: usize,
    /// In-flight requests replayed (re-prefilled and re-decoded to their
    /// pre-fault position).
    pub requests_replayed: usize,
    /// Prompt tokens re-prefilled during replay.
    pub prefill_tokens_replayed: usize,
    /// Already-emitted decode tokens re-derived during replay.
    pub decode_tokens_replayed: usize,
    /// Wall-clock seconds spent resetting the poisoned engine in place
    /// (fresh collective groups, cleared caches). Re-prefilling the
    /// recovered requests is ordinary admission work, and their replayed
    /// decode steps overlap new work and are accounted by `steps_lost`.
    pub recovery_seconds: f64,
    /// Replica-level failovers: replicas a router drained after their
    /// recovery budget was exhausted (or they poisoned), with their live
    /// requests re-routed to healthy replicas. `0` on a single engine.
    pub failovers: usize,
    /// Requests re-routed to a different replica by a failover (each is
    /// replayed there to a bit-identical stream).
    pub requests_rerouted: usize,
}

impl RecoveryStats {
    /// Accumulates another recovery episode's counters into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.faults += other.faults;
        self.steps_lost += other.steps_lost;
        self.requests_replayed += other.requests_replayed;
        self.prefill_tokens_replayed += other.prefill_tokens_replayed;
        self.decode_tokens_replayed += other.decode_tokens_replayed;
        self.recovery_seconds += other.recovery_seconds;
        self.failovers += other.failovers;
        self.requests_rerouted += other.requests_rerouted;
    }
}

/// Aggregate results of a serving simulation.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request outcomes, in arrival order.
    pub requests: Vec<RequestStats>,
    /// Total simulated time until the last request finished.
    pub makespan: Seconds,
    /// Decode steps executed.
    pub decode_steps: usize,
    /// Mean decode batch occupancy over executed steps.
    pub mean_decode_batch: f64,
    /// Peak decode batch occupancy (most slots simultaneously live) — the
    /// concurrency the KV capacity actually supported. `0` when the run
    /// does not track it (the analytical simulator).
    pub peak_decode_batch: usize,
    /// Minimum free pages the decode tier's KV admission ledger observed
    /// (headroom at peak occupancy). `0` when no page budget applies
    /// (no `kv_position_budget`, or the analytical simulator).
    pub kv_pages_free: usize,
    /// Peak count of KV pages mapped by more than one live request
    /// (copy-on-write prompt-prefix sharing).
    pub kv_pages_shared: usize,
    /// Fault/recovery accounting (all-zero on a fault-free run).
    pub recovery: RecoveryStats,
}

impl ServingReport {
    /// Assembles a report from per-request outcomes and decode-tier
    /// counters, deriving the makespan and a well-defined mean occupancy
    /// (`0.0`, not NaN, when no steps executed). Shared by the analytical
    /// simulator and the measured runtime scheduler so both report
    /// identically shaped statistics.
    #[must_use]
    pub fn new(requests: Vec<RequestStats>, decode_steps: usize, occupancy_sum: usize) -> Self {
        let makespan = requests.iter().map(|r| r.finished).fold(0.0, f64::max);
        let mean_decode_batch = if decode_steps == 0 {
            0.0
        } else {
            occupancy_sum as f64 / decode_steps as f64
        };
        ServingReport {
            requests,
            makespan,
            decode_steps,
            mean_decode_batch,
            peak_decode_batch: 0,
            kv_pages_free: 0,
            kv_pages_shared: 0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Attaches fault/recovery accounting (builder-style; [`new`] reports
    /// a fault-free run).
    ///
    /// [`new`]: ServingReport::new
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryStats) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attaches the peak decode-slot occupancy (builder-style).
    #[must_use]
    pub fn with_peak_batch(mut self, peak: usize) -> Self {
        self.peak_decode_batch = peak;
        self
    }

    /// Attaches paged-KV pool accounting (builder-style): minimum free
    /// pages under the admission budget and the peak shared-page count.
    #[must_use]
    pub fn with_kv_pages(mut self, free: usize, shared: usize) -> Self {
        self.kv_pages_free = free;
        self.kv_pages_shared = shared;
        self
    }

    /// Mean end-to-end latency.
    #[must_use]
    pub fn mean_latency(&self) -> Seconds {
        let total: f64 = self.requests.iter().map(RequestStats::latency).sum();
        total / self.requests.len() as f64
    }

    /// A latency percentile in `[0, 100]`, by the nearest-rank definition:
    /// the smallest latency `l` such that at least `p%` of requests have
    /// latency `<= l` — i.e. the sorted value at rank `⌈p/100 · n⌉`
    /// (1-based; `p = 0` maps to the minimum).
    ///
    /// # Panics
    ///
    /// Panics if there are no requests or `p` is out of range.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Seconds {
        percentile(self.requests.iter().map(RequestStats::latency).collect(), p)
    }

    /// A time-to-first-token percentile (nearest-rank, like
    /// [`ServingReport::latency_percentile`]): the queue-plus-prefill delay
    /// before a request's first token exists.
    ///
    /// # Panics
    ///
    /// Panics if there are no requests or `p` is out of range.
    #[must_use]
    pub fn ttft_percentile(&self, p: f64) -> Seconds {
        percentile(self.requests.iter().map(RequestStats::ttft).collect(), p)
    }

    /// A per-output-token time percentile (nearest-rank) over the requests
    /// that generated at least two tokens — the streaming rate after the
    /// first token.
    ///
    /// # Panics
    ///
    /// Panics if no request generated two or more tokens, or `p` is out of
    /// range.
    #[must_use]
    pub fn tpot_percentile(&self, p: f64) -> Seconds {
        percentile(self.requests.iter().filter_map(RequestStats::tpot).collect(), p)
    }

    /// The first arrival time — the start of the interval over which
    /// throughput is meaningful (idle time before any work exists says
    /// nothing about the system).
    #[must_use]
    pub fn first_arrival(&self) -> Seconds {
        self.requests.iter().map(|r| r.arrival).fold(f64::INFINITY, f64::min)
    }

    /// Generated tokens per second for `total_tokens` generated, measured
    /// from the first arrival to the last completion (not from t = 0, which
    /// would understate throughput for traces that start late).
    #[must_use]
    pub fn generated_throughput(&self, total_tokens: usize) -> f64 {
        total_tokens as f64 / (self.makespan - self.first_arrival())
    }
}

/// Nearest-rank percentile over `values` (see
/// [`ServingReport::latency_percentile`] for the definition).
///
/// # Panics
///
/// Panics if `values` is empty or `p` is out of `[0, 100]`.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    assert!(!values.is_empty(), "no samples for percentile");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.max(1) - 1]
}

/// A tiny splitmix64 PRNG — keeps the workspace dependency-light while
/// making every trace seeded-deterministic.
#[derive(Debug, Clone)]
struct Rng64 {
    state: u64,
}

impl Rng64 {
    fn new(seed: u64) -> Self {
        Rng64 { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 significant bits.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1 / rate`).
    fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal via Box–Muller.
    fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

// ---------------------------------------------------------------------------
// Open-loop load generation (trace-driven serving).
// ---------------------------------------------------------------------------

/// How request arrival instants are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced at `rate` requests/second (deterministic).
    Uniform {
        /// Requests per second.
        rate: f64,
    },
    /// Homogeneous Poisson process (exponential gaps).
    Poisson {
        /// Requests per second.
        rate: f64,
    },
    /// Markov-modulated Poisson: alternates between a calm and a burst
    /// state with exponentially distributed dwell times — the classic
    /// bursty open-loop load (bursts overload the server, calm periods let
    /// it drain).
    Bursty {
        /// Requests per second in the calm state.
        calm_rate: f64,
        /// Requests per second inside a burst.
        burst_rate: f64,
        /// Mean seconds spent in each state before switching.
        mean_dwell: f64,
    },
    /// Inhomogeneous Poisson with a sinusoidal (diurnal) rate
    /// `λ(t) = mean_rate · (1 + swing · sin(2πt / period))`, drawn by
    /// thinning against the peak rate.
    Diurnal {
        /// Mean requests per second over a full period.
        mean_rate: f64,
        /// Relative peak-to-mean swing in `[0, 1)`.
        swing: f64,
        /// Seconds per day (one full sinusoid).
        period: f64,
    },
}

/// A per-request length distribution (prompt or output tokens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Every request the same length.
    Fixed(usize),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Shortest length.
        lo: usize,
        /// Longest length.
        hi: usize,
    },
    /// Log-normal with the given median, clamped to `[1, max]` — the
    /// heavy-tailed shape real prompt/response lengths follow.
    LogNormal {
        /// Median length in tokens.
        median: f64,
        /// Log-space standard deviation.
        sigma: f64,
        /// Hard upper clamp.
        max: usize,
    },
}

impl LengthDist {
    fn draw(self, rng: &mut Rng64) -> usize {
        match self {
            LengthDist::Fixed(n) => n.max(1),
            LengthDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform length bounds inverted");
                rng.range(lo.max(1), hi.max(1))
            }
            LengthDist::LogNormal { median, sigma, max } => {
                assert!(median >= 1.0 && sigma >= 0.0, "log-normal parameters out of range");
                let v = (median.ln() + sigma * rng.normal()).exp().round() as usize;
                v.clamp(1, max.max(1))
            }
        }
    }
}

/// The full description of an open-loop workload: arrival process, ragged
/// prompt/output length distributions, and a priority mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Arrival instants.
    pub process: ArrivalProcess,
    /// Prompt-length distribution.
    pub prompt: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Fraction of requests in [`Priority::High`].
    pub high_fraction: f64,
    /// Fraction of requests in [`Priority::Low`]; the remainder is
    /// [`Priority::Normal`].
    pub low_fraction: f64,
}

/// One request of an [`ArrivalTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRequest {
    /// Absolute arrival time.
    pub arrival: Seconds,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Tokens to generate.
    pub gen_len: usize,
    /// Scheduling class.
    pub priority: Priority,
}

/// A seeded-deterministic open-loop request trace, sorted by arrival —
/// the load generator behind both the overload simulator
/// ([`simulate_trace`]) and the measured scheduler benches. Generating
/// 10⁵–10⁶ requests is cheap (a few PRNG draws per request).
#[derive(Debug, Clone)]
pub struct ArrivalTrace {
    /// Requests in arrival order.
    pub requests: Vec<TraceRequest>,
}

impl ArrivalTrace {
    /// Draws `n` requests from `spec`, deterministically for a given
    /// `seed` (same seed, same trace — byte for byte).
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, a negative dwell/period, or a
    /// priority mix outside `[0, 1]`.
    #[must_use]
    pub fn generate(spec: &TraceSpec, n: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&spec.high_fraction)
                && (0.0..=1.0).contains(&spec.low_fraction)
                && spec.high_fraction + spec.low_fraction <= 1.0,
            "priority mix must be fractions summing to <= 1"
        );
        let mut rng = Rng64::new(seed);
        let mut t = 0.0f64;
        // Bursty-state bookkeeping (unused by the other processes).
        let mut in_burst = false;
        let mut dwell_end = match spec.process {
            ArrivalProcess::Bursty { mean_dwell, .. } => {
                assert!(mean_dwell > 0.0, "mean dwell must be positive");
                rng.exp(1.0 / mean_dwell)
            }
            _ => f64::INFINITY,
        };
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            match spec.process {
                ArrivalProcess::Uniform { rate } => {
                    assert!(rate > 0.0, "arrival rate must be positive");
                    t += 1.0 / rate;
                }
                ArrivalProcess::Poisson { rate } => {
                    assert!(rate > 0.0, "arrival rate must be positive");
                    t += rng.exp(rate);
                }
                ArrivalProcess::Bursty { calm_rate, burst_rate, mean_dwell } => {
                    assert!(calm_rate > 0.0 && burst_rate > 0.0, "rates must be positive");
                    loop {
                        let rate = if in_burst { burst_rate } else { calm_rate };
                        let gap = rng.exp(rate);
                        if t + gap <= dwell_end {
                            t += gap;
                            break;
                        }
                        // Dwell expired before the next arrival: switch
                        // state at the boundary and redraw from there.
                        t = dwell_end;
                        in_burst = !in_burst;
                        dwell_end = t + rng.exp(1.0 / mean_dwell);
                    }
                }
                ArrivalProcess::Diurnal { mean_rate, swing, period } => {
                    assert!(mean_rate > 0.0 && period > 0.0, "rate and period must be positive");
                    assert!((0.0..1.0).contains(&swing), "swing must be in [0, 1)");
                    let peak = mean_rate * (1.0 + swing);
                    loop {
                        t += rng.exp(peak);
                        let lambda = mean_rate
                            * (1.0 + swing * (std::f64::consts::TAU * t / period).sin());
                        if rng.uniform() * peak <= lambda {
                            break; // thinning: accept with prob λ(t)/λmax
                        }
                    }
                }
            }
            let prompt_len = spec.prompt.draw(&mut rng);
            let gen_len = spec.output.draw(&mut rng);
            let u = rng.uniform();
            let priority = if u < spec.high_fraction {
                Priority::High
            } else if u < spec.high_fraction + spec.low_fraction {
                Priority::Low
            } else {
                Priority::Normal
            };
            requests.push(TraceRequest { arrival: t, prompt_len, gen_len, priority });
        }
        ArrivalTrace { requests }
    }

    /// Total output tokens the trace asks for.
    #[must_use]
    pub fn offered_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.gen_len).sum()
    }

    /// Seconds between the first and last arrival.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) => b.arrival - a.arrival,
            _ => 0.0,
        }
    }

    /// Offered load in generated tokens per second over the trace span.
    #[must_use]
    pub fn offered_token_rate(&self) -> f64 {
        self.offered_tokens() as f64 / self.duration().max(f64::MIN_POSITIVE)
    }

    /// Requests in the given class.
    #[must_use]
    pub fn class_count(&self, class: Priority) -> usize {
        self.requests.iter().filter(|r| r.priority == class).count()
    }
}

// ---------------------------------------------------------------------------
// SLO-aware overload scheduling (simulated time).
// ---------------------------------------------------------------------------

/// Shedding and preemption policy of the [`Scheduler`] (both callers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Waiting requests (arrived, not yet in a decode slot) the scheduler
    /// tolerates before shedding; `None` queues without bound. Shedding
    /// removes the *newest lowest-priority* waiting request — the one
    /// whose loss costs the least committed work. Preempted victims are
    /// never shed.
    pub queue_limit: Option<usize>,
    /// Per-class TTFT deadline (indexed by [`Priority::index`]): a waiting
    /// request whose best-case TTFT, as its caller reports it, exceeds its
    /// class deadline is shed instead of served uselessly late. `None`
    /// disables the deadline for that class.
    pub ttft_deadline: [Option<Seconds>; 3],
    /// Preempt strictly-lower-priority in-flight requests when a higher
    /// class is waiting and no slot is free. The victim re-enters its
    /// class queue and later *replays* (re-prefill plus one decode step
    /// per already-emitted token) before producing new tokens — exactly
    /// the runtime's evict-and-replay cost.
    pub preemption: bool,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy { queue_limit: None, ttft_deadline: [None; 3], preemption: true }
    }
}

/// Why the scheduler refused a request (both callers report it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// The waiting queue was over [`OverloadPolicy::queue_limit`].
    QueueFull {
        /// Requests waiting when the shed happened.
        waiting: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The request's best-case TTFT exceeded its class's
    /// [`OverloadPolicy::ttft_deadline`].
    TtftDeadline {
        /// The TTFT its caller reported: the live batcher's time waited,
        /// the simulator's projection.
        ttft: Seconds,
        /// The class deadline it missed.
        deadline: Seconds,
    },
}

/// One shed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Index into the trace.
    pub index: usize,
    /// The request's class.
    pub priority: Priority,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// Everything a trace-driven overload run produces.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Stats for the *completed* requests (shed requests have no latency),
    /// in trace order.
    pub report: ServingReport,
    /// Trace index of each row of `report.requests`.
    pub completed: Vec<usize>,
    /// Class of each row of `report.requests`.
    pub priorities: Vec<Priority>,
    /// Requests refused under overload, with typed reasons.
    pub shed: Vec<ShedRecord>,
    /// Preemptions performed (victims re-queued and replayed).
    pub preemptions: usize,
    /// Decode tokens re-derived during preemption replays (pure overhead).
    pub replayed_tokens: usize,
    /// The serving capacity ceiling in generated tokens/second: the slower
    /// of the full-batch decode rate and the prefill tier's request rate
    /// times the mean generation length. Goodput cannot exceed it.
    pub capacity_tokens_per_sec: f64,
}

impl OverloadReport {
    /// Useful work completed per second: generated tokens of *completed*
    /// requests over the span from first arrival to last completion.
    /// Tokens burned on shed requests or preemption replays don't count —
    /// that is what distinguishes goodput from throughput.
    #[must_use]
    pub fn goodput_tokens_per_sec(&self) -> f64 {
        let tokens: usize = self.report.requests.iter().map(|r| r.generated).sum();
        self.report.generated_throughput(tokens)
    }

    /// Goodput as a fraction of the capacity ceiling (the offered-capacity
    /// utilization an overloaded-but-healthy scheduler should keep high).
    #[must_use]
    pub fn goodput_ratio(&self) -> f64 {
        self.goodput_tokens_per_sec() / self.capacity_tokens_per_sec
    }

    /// Completed requests in `class`.
    #[must_use]
    pub fn class_completed(&self, class: Priority) -> usize {
        self.priorities.iter().filter(|&&p| p == class).count()
    }

    /// Shed requests in `class`.
    #[must_use]
    pub fn class_shed(&self, class: Priority) -> usize {
        self.shed.iter().filter(|s| s.priority == class).count()
    }

    /// Nearest-rank TTFT percentile over the completed requests of one
    /// class.
    ///
    /// # Panics
    ///
    /// Panics if the class completed no requests or `p` is out of range.
    #[must_use]
    pub fn class_ttft_percentile(&self, class: Priority, p: f64) -> Seconds {
        let ttfts: Vec<f64> = self
            .report
            .requests
            .iter()
            .zip(&self.priorities)
            .filter(|&(_, &c)| c == class)
            .map(|(r, _)| r.ttft())
            .collect();
        percentile(ttfts, p)
    }
}

/// Analytic phase costs of the overload simulator.
struct SimCosts {
    /// Batch-1 prefill time of each request of the trace.
    prefill: Vec<Seconds>,
    /// Decode step time per batch occupancy `0..=max_decode_batch`.
    step_time: Vec<Seconds>,
}

impl SimCosts {
    fn new(model: &ModelConfig, cfg: &ServingConfig, trace: &ArrivalTrace) -> Self {
        let mut by_len: HashMap<usize, Seconds> = HashMap::new();
        let prefill = trace.requests.iter()
            .map(|r| {
                *by_len.entry(r.prompt_len).or_insert_with(|| {
                    let machine = &cfg.prefill_machine;
                    let layout =
                        planner::prefill_layout(model, machine, 1, r.prompt_len, cfg.weight_dtype);
                    let spec = PhaseSpec::prefill(1, r.prompt_len);
                    estimate(machine, model, &layout, &spec, cfg.weight_dtype).step_time
                })
            })
            .collect();
        // Characteristic KV context for decode-step pricing: the trace's
        // mean prompt plus half its mean generation.
        let n = trace.requests.len().max(1);
        let mean_prompt: usize =
            trace.requests.iter().map(|r| r.prompt_len).sum::<usize>() / n;
        let mean_gen: usize = trace.requests.iter().map(|r| r.gen_len).sum::<usize>() / n;
        let context = (mean_prompt + mean_gen / 2).max(1);
        let step_time = (0..=cfg.max_decode_batch)
            .map(|b| {
                if b == 0 {
                    return 0.0;
                }
                let machine = &cfg.decode_machine;
                let layout = planner::decode_layout_for_batch(model, machine, b);
                let spec = PhaseSpec::decode(b, context);
                estimate(machine, model, &layout, &spec, cfg.weight_dtype).step_time
            })
            .collect();
        SimCosts { prefill, step_time }
    }
}

/// Serves an [`ArrivalTrace`] through the two-tier system in simulated
/// time, 10⁵–10⁶ requests in seconds. Every admission, preemption and shed
/// is the [`Scheduler`]'s, the policy the live batcher runs, with one span
/// of `max_decode_batch` slots, one admission per prefill and no page
/// ledger. This function prices the time around those decisions:
///
/// * the serial prefill tier runs admissions in admission order, each
///   priced at its prompt length; a slot decodes once its prefill is done
///   (`ready_at`), and the prefill emits the first token (the TTFT);
/// * a decode step over the `b` ready slots costs the analytic batch-`b`
///   step time and emits one token per slot, or re-derives one of a
///   re-admitted victim's already-emitted tokens (replay);
/// * the TTFT a waiting request reports for deadline shedding is its
///   best case: admitted now, prefilled as soon as the tier is free.
///
/// # Panics
///
/// Panics if the trace is empty or not sorted by arrival.
#[must_use]
pub fn simulate_trace(
    model: &ModelConfig,
    cfg: &ServingConfig,
    trace: &ArrivalTrace,
    policy: &OverloadPolicy,
) -> OverloadReport {
    let reqs = &trace.requests;
    assert!(!reqs.is_empty(), "no requests to simulate");
    assert!(
        reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "trace must be sorted by arrival"
    );
    let SimCosts { prefill, step_time } = SimCosts::new(model, cfg, trace);
    let cap = cfg.max_decode_batch;
    assert!(cap > 0, "decode batch cap must be positive");

    let n = reqs.len();
    let jobs = reqs.iter().map(|r| Job { class: r.priority, max_new: r.gen_len, prompt: &[] });
    let mut core = Scheduler::new(jobs.collect(), vec![0; cap], *policy, None);
    let mut prefilled_at = vec![f64::NAN; n];
    let mut finished_at = vec![f64::NAN; n];
    let mut ready_at = vec![0.0; cap];
    let mut shed: Vec<ShedRecord> = Vec::new();
    let mut now: Seconds = reqs[0].arrival;
    let mut prefill_free: Seconds = now;
    let mut cursor = 0usize;
    let mut steps = 0usize;
    let mut occupancy_sum = 0usize;
    let mut outstanding = n;

    while outstanding > 0 {
        while cursor < n && reqs[cursor].arrival <= now {
            core.arrive(cursor);
            cursor += 1;
        }
        let start = now.max(prefill_free);
        let refused = core.shed(|i| start + prefill[i] - reqs[i].arrival);
        outstanding -= refused.len();
        shed.extend(refused);

        loop {
            let a = match core.admit(&[]) {
                Decision::Admit(a) => a,
                Decision::Preempted { .. } => continue,
                Decision::Wait => break,
                Decision::NeverFits { .. } => unreachable!("the simulator charges no pages"),
            };
            let done = now.max(prefill_free) + prefill[a.idx];
            prefill_free = done;
            if core.start(&a) {
                prefilled_at[a.idx] = done;
            }
            if a.holds {
                ready_at[a.slot] = done;
            } else {
                finished_at[a.idx] = done;
                outstanding -= 1;
            }
        }

        // Nothing decodable? Jump to the next event (a slot becoming
        // ready, or the next arrival).
        let live: Vec<usize> = (0..cap).filter(|&s| core.occupant(s).is_some()).collect();
        let ready = live.iter().filter(|&&s| ready_at[s] <= now).count();
        if ready == 0 {
            let next_ready = live.iter().map(|&s| ready_at[s]).fold(f64::INFINITY, f64::min);
            let next_arrival = if cursor < n { reqs[cursor].arrival } else { f64::INFINITY };
            let next = next_ready.min(next_arrival);
            if !next.is_finite() {
                break; // queues empty, slots empty: done (or all shed).
            }
            now = next.max(now);
            continue;
        }

        // One decode step over the ready rows.
        let step_start = now;
        now += step_time[ready];
        steps += 1;
        occupancy_sum += ready;
        for s in live {
            if ready_at[s] > step_start {
                continue; // still prefilling during this step
            }
            let Some(idx) = core.occupant(s) else { unreachable!("live slots are occupied") };
            if core.advance(s) == Advance::Finished {
                finished_at[idx] = now;
                outstanding -= 1;
            }
        }
    }

    // Capacity ceiling: the slower of full-batch decode and the serial
    // prefill tier (requests/second × mean generation length).
    let mean_gen = trace.offered_tokens() as f64 / n as f64;
    let mean_prefill = prefill.iter().sum::<f64>() / n as f64;
    let decode_ceiling = cap as f64 / step_time[cap];
    let prefill_ceiling = mean_gen / mean_prefill;
    let capacity_tokens_per_sec = decode_ceiling.min(prefill_ceiling);

    let completed: Vec<usize> = (0..n).filter(|&i| !finished_at[i].is_nan()).collect();
    let priorities = completed.iter().map(|&i| reqs[i].priority).collect();
    let stats = completed
        .iter()
        .map(|&i| RequestStats {
            arrival: reqs[i].arrival,
            prefilled: prefilled_at[i],
            finished: finished_at[i],
            generated: reqs[i].gen_len,
        })
        .collect();
    debug_assert_eq!(completed.len() + shed.len(), n, "every request completes or sheds");
    OverloadReport {
        report: ServingReport::new(stats, steps, occupancy_sum),
        completed,
        priorities,
        shed,
        preemptions: core.preemptions(),
        replayed_tokens: core.replayed_tokens(),
        capacity_tokens_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> (ModelConfig, ServingConfig) {
        let model = ModelConfig::palm_540b_padded();
        let cfg = ServingConfig {
            prefill_machine: Machine::tpu_v4_slice(64).unwrap(),
            decode_machine: Machine::tpu_v4_slice(64).unwrap(),
            max_decode_batch: 64,
            weight_dtype: DType::Int8,
        };
        (model, cfg)
    }

    /// Normal requests, 64-token prompts and 64-token replies, arriving by
    /// `process`.
    fn fixed_spec(process: ArrivalProcess) -> TraceSpec {
        let fixed = LengthDist::Fixed(64);
        TraceSpec { process, prompt: fixed, output: fixed, high_fraction: 0.0, low_fraction: 0.0 }
    }

    fn fixed_trace(process: ArrivalProcess, n: usize) -> ArrivalTrace {
        ArrivalTrace::generate(&fixed_spec(process), n, 3)
    }

    /// `n` requests arriving together (a nanosecond apart).
    fn burst(n: usize) -> ArrivalTrace {
        fixed_trace(ArrivalProcess::Uniform { rate: 1e9 }, n)
    }

    fn serve(model: &ModelConfig, cfg: &ServingConfig, trace: &ArrivalTrace) -> ServingReport {
        let r = simulate_trace(model, cfg, trace, &OverloadPolicy::default());
        assert_eq!(r.completed.len(), trace.requests.len(), "an unpoliced run completes everything");
        r.report
    }

    fn throughput(report: &ServingReport) -> f64 {
        report.generated_throughput(report.requests.iter().map(|r| r.generated).sum())
    }

    #[test]
    fn single_request_matches_phase_sum() {
        let (model, cfg) = config();
        let report = serve(&model, &cfg, &burst(1));
        assert_eq!(report.requests.len(), 1);
        let r = report.requests[0];
        assert!(r.prefilled > r.arrival);
        assert!(r.finished > r.prefilled);
        // The prefill emits the first of 64 tokens: 63 decode steps at batch 1.
        assert_eq!(report.decode_steps, 63);
        assert!((report.mean_decode_batch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn saturating_load_fills_the_decode_batch() {
        let (model, cfg) = config();
        // A burst of 128 simultaneous requests: the decode tier should run
        // near its batch cap.
        let report = serve(&model, &cfg, &burst(128));
        assert!(report.mean_decode_batch > 32.0, "occupancy {}", report.mean_decode_batch);
        assert!(report.latency_percentile(99.0) >= report.latency_percentile(50.0));
    }

    #[test]
    fn batching_improves_throughput_at_bounded_latency_cost() {
        // The paper's point: decode batch 64 costs little latency but
        // multiplies throughput.
        let (model, cfg) = config();
        let mut solo = cfg.clone();
        solo.max_decode_batch = 1;
        // A saturating burst, so the serial tier cannot hide behind idle
        // time between arrivals.
        let batched = serve(&model, &cfg, &burst(32));
        let serial = serve(&model, &solo, &burst(32));
        let tput_b = throughput(&batched);
        let tput_s = throughput(&serial);
        assert!(tput_b > 3.0 * tput_s, "batched {tput_b} vs serial {tput_s}");
        assert!(batched.mean_latency() < serial.mean_latency());
    }

    #[test]
    fn light_load_latency_close_to_paper_chatbot() {
        // At low arrival rate each request sees roughly the 1.9s chatbot
        // turn of Section 1 (we use a 64-token prompt + 64 generated).
        let (model, cfg) = config();
        let trace = fixed_trace(ArrivalProcess::Uniform { rate: 0.2 }, 4); // one per 5s
        let mean = serve(&model, &cfg, &trace).mean_latency();
        assert!(mean > 0.3 && mean < 3.0, "mean latency {mean}");
    }

    #[test]
    fn throughput_saturates_with_offered_load() {
        let (model, cfg) = config();
        let low = serve(&model, &cfg, &fixed_trace(ArrivalProcess::Uniform { rate: 1.0 }, 16));
        let high = serve(&model, &cfg, &fixed_trace(ArrivalProcess::Uniform { rate: 1e6 }, 256));
        let t_low = throughput(&low);
        let t_high = throughput(&high);
        assert!(t_high > t_low);
        // The cap: batch-64 decode step bounds tokens/sec.
        let layout = planner::decode_layout_for_batch(&model, &cfg.decode_machine, 64);
        let step = estimate(
            &cfg.decode_machine,
            &model,
            &layout,
            &PhaseSpec::decode(64, 64 + 64 / 2),
            cfg.weight_dtype,
        )
        .step_time;
        let cap = 64.0 / step;
        assert!(t_high <= cap * 1.05, "throughput {t_high} above cap {cap}");
        assert!(t_high > cap * 0.5, "throughput {t_high} far below cap {cap}");
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_rate_accurate() {
        let spec = fixed_spec(ArrivalProcess::Poisson { rate: 4.0 });
        let arrivals = |seed| -> Vec<f64> {
            ArrivalTrace::generate(&spec, 2000, seed).requests.iter().map(|r| r.arrival).collect()
        };
        let arr = arrivals(9);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival ~ 1/rate within 10%.
        let mean_gap = arr.last().unwrap() / 2000.0;
        assert!((mean_gap - 0.25).abs() < 0.025, "mean gap {mean_gap}");
        // Deterministic per seed, different across seeds.
        assert_eq!(arr, arrivals(9));
        assert_ne!(arr, arrivals(10));
    }

    #[test]
    fn bursty_load_raises_tail_latency() {
        // Poisson burstiness should not lower the p99 below the uniform
        // schedule's at the same rate.
        let (model, cfg) = config();
        let uni = serve(&model, &cfg, &fixed_trace(ArrivalProcess::Uniform { rate: 8.0 }, 64));
        let poi = serve(&model, &cfg, &fixed_trace(ArrivalProcess::Poisson { rate: 8.0 }, 64));
        assert!(poi.latency_percentile(99.0) >= uni.latency_percentile(99.0) * 0.9);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_rejected() {
        let (model, cfg) = config();
        let mut trace = burst(2);
        trace.requests[0].arrival = 1.0;
        let _ = simulate_trace(&model, &cfg, &trace, &OverloadPolicy::default());
    }

    #[test]
    fn a_preempted_victim_is_never_shed() {
        // One slot. A long Low request is preempted at t = 1 by a High one
        // and waits, holding its first tokens, while the High one decodes.
        let (model, mut cfg) = config();
        cfg.max_decode_batch = 1;
        let req = |arrival, gen_len, priority| TraceRequest { arrival, prompt_len: 64, gen_len, priority };
        let mut requests = vec![req(0.0, 400, Priority::Low), req(1.0, 64, Priority::High)];
        // Its wait outlasts the Low deadline: the victim is exempt.
        let deadline = OverloadPolicy { ttft_deadline: [Some(0.5), None, None], ..OverloadPolicy::default() };
        // A Normal request joins the queue over its limit of one: it, not
        // the lower-class victim, is shed.
        let limit = OverloadPolicy { queue_limit: Some(1), ..OverloadPolicy::default() };
        for (policy, shed) in [(deadline, vec![]), (limit, vec![2])] {
            let trace = ArrivalTrace { requests: requests.clone() };
            let r = simulate_trace(&model, &cfg, &trace, &policy);
            assert_eq!((r.preemptions, r.completed.clone()), (1, vec![0, 1]), "{policy:?}");
            assert_eq!(r.shed.iter().map(|s| s.index).collect::<Vec<_>>(), shed, "{policy:?}");
            assert!(r.replayed_tokens > 0, "the victim replays what it had emitted");
            requests.push(req(1.5, 64, Priority::Normal));
        }
    }

    fn fixture_report(lats: &[f64]) -> ServingReport {
        let requests = lats
            .iter()
            .map(|&l| RequestStats { arrival: 0.0, prefilled: l / 2.0, finished: l, generated: 8 })
            .collect();
        ServingReport::new(requests, 0, 0)
    }

    #[test]
    fn percentile_is_true_nearest_rank() {
        // Hand-checked 4-element fixture. Nearest-rank: the value at
        // 1-based rank ceil(p/100 * 4). The old round(p/100 * (n-1))
        // formula gave 3.0 at p50 — neither nearest-rank nor interpolation.
        let r = fixture_report(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!(r.latency_percentile(0.0), 1.0);
        assert_eq!(r.latency_percentile(25.0), 1.0);
        assert_eq!(r.latency_percentile(50.0), 2.0);
        assert_eq!(r.latency_percentile(75.0), 3.0);
        assert_eq!(r.latency_percentile(100.0), 4.0);
        // Just past a rank boundary, the next order statistic is taken.
        assert_eq!(r.latency_percentile(50.1), 3.0);
    }

    #[test]
    fn throughput_measures_from_first_arrival() {
        // A trace that starts 100s in: dead time before the first arrival
        // must not dilute throughput.
        let requests = vec![
            RequestStats { arrival: 100.0, prefilled: 101.0, finished: 104.0, generated: 5 },
            RequestStats { arrival: 102.0, prefilled: 103.0, finished: 110.0, generated: 5 },
        ];
        let r = ServingReport::new(requests, 10, 15);
        assert_eq!(r.first_arrival(), 100.0);
        // 2 requests x 5 tokens over (110 - 100) seconds.
        assert!((r.generated_throughput(10) - 1.0).abs() < 1e-12);
        assert!((r.generated_throughput(20) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_decode_steps_yield_finite_stats() {
        // One-token replies: the prefill emits each, no decode step runs.
        let (model, cfg) = config();
        let spec = TraceSpec {
            output: LengthDist::Fixed(1),
            ..fixed_spec(ArrivalProcess::Uniform { rate: 1.0 })
        };
        let report = serve(&model, &cfg, &ArrivalTrace::generate(&spec, 2, 0));
        assert_eq!(report.decode_steps, 0);
        assert_eq!(report.mean_decode_batch, 0.0);
        assert!(report.mean_decode_batch.is_finite(), "must not be NaN");
        // Requests finish when prefilled.
        for r in &report.requests {
            assert_eq!(r.finished, r.prefilled);
        }
    }

    #[test]
    fn ttft_and_tpot_percentiles() {
        let requests = vec![
            RequestStats { arrival: 0.0, prefilled: 1.0, finished: 5.0, generated: 5 },
            RequestStats { arrival: 0.0, prefilled: 3.0, finished: 4.0, generated: 1 },
        ];
        let r = ServingReport::new(requests, 0, 0);
        assert_eq!(r.ttft_percentile(50.0), 1.0);
        assert_eq!(r.ttft_percentile(100.0), 3.0);
        // Only the first request generated >= 2 tokens: 4s over 4 gaps.
        assert_eq!(r.tpot_percentile(50.0), 1.0);
        assert_eq!(r.tpot_percentile(99.0), 1.0);
    }

    fn trace_spec(process: ArrivalProcess) -> TraceSpec {
        TraceSpec {
            process,
            prompt: LengthDist::LogNormal { median: 64.0, sigma: 0.7, max: 512 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            high_fraction: 0.1,
            low_fraction: 0.3,
        }
    }

    #[test]
    fn traces_are_seed_deterministic_and_sorted() {
        for process in [
            ArrivalProcess::Uniform { rate: 10.0 },
            ArrivalProcess::Poisson { rate: 10.0 },
            ArrivalProcess::Bursty { calm_rate: 2.0, burst_rate: 50.0, mean_dwell: 3.0 },
            ArrivalProcess::Diurnal { mean_rate: 10.0, swing: 0.8, period: 60.0 },
        ] {
            let spec = trace_spec(process);
            let a = ArrivalTrace::generate(&spec, 2000, 7);
            let b = ArrivalTrace::generate(&spec, 2000, 7);
            let c = ArrivalTrace::generate(&spec, 2000, 8);
            assert_eq!(a.requests, b.requests, "{process:?} not deterministic");
            assert_ne!(a.requests, c.requests, "{process:?} ignores the seed");
            assert!(
                a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "{process:?} arrivals unsorted"
            );
            assert!(a.requests.iter().all(|r| r.prompt_len >= 1 && r.gen_len >= 1));
        }
    }

    #[test]
    fn trace_rates_and_priority_mix_are_roughly_honored() {
        let n = 20_000;
        let spec = trace_spec(ArrivalProcess::Poisson { rate: 10.0 });
        let t = ArrivalTrace::generate(&spec, n, 42);
        let rate = n as f64 / t.duration();
        assert!((rate - 10.0).abs() < 0.5, "poisson rate {rate}");
        let high = t.class_count(Priority::High) as f64 / n as f64;
        let low = t.class_count(Priority::Low) as f64 / n as f64;
        assert!((high - 0.1).abs() < 0.02, "high fraction {high}");
        assert!((low - 0.3).abs() < 0.02, "low fraction {low}");
        // Diurnal: mean over a whole number of periods ~ mean_rate.
        let d = ArrivalTrace::generate(
            &trace_spec(ArrivalProcess::Diurnal { mean_rate: 10.0, swing: 0.8, period: 10.0 }),
            n,
            42,
        );
        let drate = n as f64 / d.duration();
        assert!((drate - 10.0).abs() < 1.0, "diurnal mean rate {drate}");
    }

    #[test]
    fn bursty_interarrivals_are_overdispersed() {
        // MMPP gap variance must exceed a plain Poisson's at equal mean —
        // the whole point of the bursty process.
        let n = 20_000;
        let spec = trace_spec(ArrivalProcess::Bursty {
            calm_rate: 2.0,
            burst_rate: 50.0,
            mean_dwell: 2.0,
        });
        let t = ArrivalTrace::generate(&spec, n, 5);
        let gaps: Vec<f64> = t.requests.windows(2).map(|w| w[1].arrival - w[0].arrival).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps have cv^2 = 1; MMPP well above.
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.5, "bursty cv^2 {cv2} not overdispersed");
    }

    fn overload_fixture(n: usize) -> (ModelConfig, ServingConfig, ArrivalTrace) {
        let (model, cfg) = config();
        // Long outputs make decode slots (not the prefill tier) the scarce
        // resource: mean offered load ~2x the decode ceiling, bursts near
        // 3.7x — a genuine overload where preemption decisions matter.
        let spec = TraceSpec {
            process: ArrivalProcess::Bursty {
                calm_rate: 5.0,
                burst_rate: 50.0,
                mean_dwell: 5.0,
            },
            prompt: LengthDist::Uniform { lo: 32, hi: 96 },
            output: LengthDist::Uniform { lo: 128, hi: 256 },
            high_fraction: 0.1,
            low_fraction: 0.3,
        };
        (model, cfg, ArrivalTrace::generate(&spec, n, 11))
    }

    #[test]
    fn unpoliced_overload_completes_everything() {
        let (model, cfg, trace) = overload_fixture(512);
        let r = simulate_trace(&model, &cfg, &trace, &OverloadPolicy::default());
        assert_eq!(r.shed.len(), 0);
        assert_eq!(r.completed.len(), 512);
        assert!(r.goodput_tokens_per_sec() > 0.0);
        assert!(r.goodput_ratio() <= 1.0 + 1e-9, "goodput above capacity");
    }

    #[test]
    fn queue_limit_sheds_lowest_priority_first() {
        let (model, cfg, trace) = overload_fixture(1024);
        let policy = OverloadPolicy {
            queue_limit: Some(32),
            ttft_deadline: [None; 3],
            preemption: true,
        };
        let r = simulate_trace(&model, &cfg, &trace, &policy);
        assert!(!r.shed.is_empty(), "2x overload with a short queue must shed");
        assert_eq!(r.completed.len() + r.shed.len(), 1024);
        // Shedding starts from the lowest waiting class.
        assert!(
            r.class_shed(Priority::Low) > r.class_shed(Priority::High),
            "low sheds {} vs high sheds {}",
            r.class_shed(Priority::Low),
            r.class_shed(Priority::High)
        );
        assert!(matches!(
            r.shed[0].reason,
            ShedReason::QueueFull { limit: 32, .. }
        ));
    }

    #[test]
    fn ttft_deadline_sheds_stale_requests() {
        let (model, cfg, trace) = overload_fixture(1024);
        let policy = OverloadPolicy {
            queue_limit: None,
            ttft_deadline: [Some(5.0), Some(5.0), Some(5.0)],
            preemption: false,
        };
        let r = simulate_trace(&model, &cfg, &trace, &policy);
        assert!(!r.shed.is_empty(), "a 5s TTFT deadline under overload must shed");
        assert!(r
            .shed
            .iter()
            .all(|s| matches!(s.reason, ShedReason::TtftDeadline { .. })));
        // Whoever completed met a TTFT not far above the deadline (the
        // shed decision uses the best-case projection, so a small
        // overshoot from queueing behind the current prefill is possible).
        let p100 = r.report.ttft_percentile(100.0);
        assert!(p100 <= 6.0, "completed TTFT p100 {p100} far above deadline");
    }

    #[test]
    fn preemption_protects_high_priority_ttft() {
        let (model, cfg, trace) = overload_fixture(1024);
        let base = OverloadPolicy {
            queue_limit: Some(64),
            ttft_deadline: [None; 3],
            preemption: false,
        };
        let pre = OverloadPolicy { preemption: true, ..base };
        let fifo = simulate_trace(&model, &cfg, &trace, &base);
        let slo = simulate_trace(&model, &cfg, &trace, &pre);
        assert!(slo.preemptions > 0, "2x overload must trigger preemption");
        assert!(slo.replayed_tokens > 0, "victims re-derive their streams");
        let fifo_p99 = fifo.class_ttft_percentile(Priority::High, 99.0);
        let slo_p99 = slo.class_ttft_percentile(Priority::High, 99.0);
        assert!(
            slo_p99 < fifo_p99,
            "preemption must cut high-priority p99 TTFT ({slo_p99} vs {fifo_p99})"
        );
        // Low-priority pays, but every admitted request still completes or
        // sheds — none are lost.
        assert_eq!(slo.completed.len() + slo.shed.len(), 1024);
    }

    #[test]
    fn simulate_trace_scales_to_1e5_requests() {
        let (model, cfg, trace) = overload_fixture(100_000);
        let policy = OverloadPolicy {
            queue_limit: Some(256),
            ttft_deadline: [Some(20.0), Some(30.0), Some(60.0)],
            preemption: true,
        };
        let r = simulate_trace(&model, &cfg, &trace, &policy);
        assert_eq!(r.completed.len() + r.shed.len(), 100_000);
        assert!(r.completed.len() > 10_000, "overload must not starve everyone");
        assert!(!r.shed.is_empty(), "a 2x overload trace must shed via typed errors");
        // Overload degrades the low class, never the whole system: goodput
        // holds near the capacity ceiling and the high class keeps its SLO.
        assert!(r.goodput_ratio() >= 0.7, "goodput ratio {}", r.goodput_ratio());
        let high_p99 = r.class_ttft_percentile(Priority::High, 99.0);
        assert!(high_p99 <= 1.0, "high-class p99 TTFT {high_p99} s");
    }
}
