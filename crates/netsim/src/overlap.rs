//! Looped CollectiveEinsum (Section 3.5): overlapping collective
//! communication with the matmul that consumes it.
//!
//! The paper's single biggest low-level win (~1.4x over the
//! compiler-scheduled baseline) is decomposing an `all-gather + einsum`
//! pair into a software-pipelined loop: as each activation shard arrives
//! over the ring, it is multiplied immediately, so communication hides
//! under compute (Wang et al. 2023).
//!
//! We model both schedules on the [`DagSim`] scheduler by treating the
//! chip's matrix unit as one more bandwidth-limited resource: a matmul
//! chunk is a "transfer" of `flops` over the MXU. The *unfused* schedule
//! computes only after the full gather; the *fused* schedule chains each
//! chunk's compute to its shard's arrival.

use esti_hal::{ChipSpec, Seconds};

use crate::dag::DagSim;

/// One all-gather + einsum pair to schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EinsumSpec {
    /// Ring size: the number of shards (one is already local).
    pub ring: usize,
    /// Bytes of one activation shard arriving over the link.
    pub bytes_per_shard: f64,
    /// Matmul FLOPs consuming one shard.
    pub flops_per_shard: f64,
}

impl EinsumSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is zero or sizes are negative.
    #[must_use]
    pub fn new(ring: usize, bytes_per_shard: f64, flops_per_shard: f64) -> Self {
        assert!(ring > 0, "ring size must be positive");
        assert!(bytes_per_shard >= 0.0 && flops_per_shard >= 0.0, "sizes must be non-negative");
        EinsumSpec { ring, bytes_per_shard, flops_per_shard }
    }

    /// Pure communication time: `K-1` shards over one axis link.
    #[must_use]
    pub fn comm_time(&self, chip: &ChipSpec) -> Seconds {
        (self.ring as f64 - 1.0) * self.bytes_per_shard / chip.axis_bandwidth(1)
    }

    /// Pure compute time at peak: `K` chunks through the MXU.
    #[must_use]
    pub fn compute_time(&self, chip: &ChipSpec) -> Seconds {
        self.ring as f64 * self.flops_per_shard / chip.peak_flops
    }
}

fn schedule(chip: &ChipSpec, spec: &EinsumSpec, fused: bool) -> Seconds {
    let mut sim = DagSim::new();
    let link = sim.add_link(chip.axis_bandwidth(1));
    let mxu = sim.add_link(chip.peak_flops); // "bandwidth" in FLOP/s
    // K-1 sequential shard arrivals on the ring link.
    let mut arrivals = Vec::with_capacity(spec.ring);
    let mut prev = None;
    for _ in 1..spec.ring {
        let deps: Vec<_> = prev.into_iter().collect();
        let t = sim.add_transfer(link, spec.bytes_per_shard, &deps);
        arrivals.push(t);
        prev = Some(t);
    }
    if fused {
        // Local shard computes immediately; each remote chunk computes as
        // soon as it lands (the Looped CollectiveEinsum pipeline).
        let _ = sim.add_transfer(mxu, spec.flops_per_shard, &[]);
        for &a in &arrivals {
            let _ = sim.add_transfer(mxu, spec.flops_per_shard, &[a]);
        }
    } else {
        // Compiler baseline: the einsum starts only after the all-gather
        // completes.
        for _ in 0..spec.ring {
            let _ = sim.add_transfer(mxu, spec.flops_per_shard, &arrivals);
        }
    }
    sim.run()
}

/// Simulated wall-clock of the software-pipelined (fused) schedule.
#[must_use]
pub fn looped_einsum_time(chip: &ChipSpec, spec: &EinsumSpec) -> Seconds {
    schedule(chip, spec, true)
}

/// Simulated wall-clock of the gather-then-compute (unfused) schedule.
#[must_use]
pub fn unfused_einsum_time(chip: &ChipSpec, spec: &EinsumSpec) -> Seconds {
    schedule(chip, spec, false)
}

/// Speedup of the fused over the unfused schedule (>= 1).
#[must_use]
pub fn overlap_speedup(chip: &ChipSpec, spec: &EinsumSpec) -> f64 {
    unfused_einsum_time(chip, spec) / looped_einsum_time(chip, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpu() -> ChipSpec {
        ChipSpec::tpu_v4()
    }

    /// A spec whose communication and compute times are both `t_each`.
    fn balanced(ring: usize, t_each: Seconds) -> EinsumSpec {
        let chip = tpu();
        let bytes = t_each * chip.axis_bandwidth(1) / (ring as f64 - 1.0);
        let flops = t_each * chip.peak_flops / ring as f64;
        EinsumSpec::new(ring, bytes, flops)
    }

    #[test]
    fn fused_never_slower() {
        let chip = tpu();
        for ring in [2usize, 4, 8, 16] {
            for scale in [0.1f64, 1.0, 10.0] {
                let spec = EinsumSpec::new(ring, 1e6 * scale, 1e9);
                assert!(
                    looped_einsum_time(&chip, &spec) <= unfused_einsum_time(&chip, &spec) + 1e-12,
                    "ring {ring} scale {scale}"
                );
            }
        }
    }

    #[test]
    fn unfused_is_sum_fused_is_nearly_max() {
        let chip = tpu();
        let spec = balanced(16, 1e-3);
        let unfused = unfused_einsum_time(&chip, &spec);
        let fused = looped_einsum_time(&chip, &spec);
        assert!((unfused - 2e-3).abs() < 1e-5, "unfused {unfused}");
        // Fused hides all but one pipeline-fill chunk.
        assert!(fused < 1.2e-3, "fused {fused}");
    }

    #[test]
    fn balanced_speedup_approaches_two_with_ring_size() {
        // Perfectly balanced comm/compute: speedup -> 2 as the pipeline
        // amortizes its fill. The paper's overall 1.4x is this effect
        // diluted over non-overlappable work.
        let chip = tpu();
        let s4 = overlap_speedup(&chip, &balanced(4, 1e-3));
        let s32 = overlap_speedup(&chip, &balanced(32, 1e-3));
        assert!(s4 > 1.3 && s4 < 2.0, "ring 4 speedup {s4}");
        assert!(s32 > s4, "speedup must grow with ring size");
        assert!(s32 > 1.8 && s32 < 2.0, "ring 32 speedup {s32}");
    }

    #[test]
    fn lopsided_ratios_limit_the_win() {
        // If compute dwarfs communication (or vice versa), there is little
        // to hide and the speedup tends to 1.
        let chip = tpu();
        let compute_heavy = EinsumSpec::new(8, 1e3, 1e10);
        let comm_heavy = EinsumSpec::new(8, 1e8, 1e3);
        assert!(overlap_speedup(&chip, &compute_heavy) < 1.05);
        assert!(overlap_speedup(&chip, &comm_heavy) < 1.05);
    }

    #[test]
    fn closed_form_times_match_simulation_endpoints() {
        let chip = tpu();
        let spec = EinsumSpec::new(8, 2e6, 3e9);
        let unfused = unfused_einsum_time(&chip, &spec);
        let expect = spec.comm_time(&chip) + spec.compute_time(&chip);
        assert!((unfused - expect).abs() / expect < 1e-9);
    }
}
