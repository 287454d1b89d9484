//! The engine's chip executors are resident: `T = min(available
//! parallelism, chips)` of them, the calling thread among them, so an engine
//! starts `T − 1` threads with itself, reuses them on every pass, joins them
//! when it drops, and keeps them — neither replaced nor leaked — when the
//! batcher resets a faulted engine.
//!
//! This file holds a single test so that no other test's threads come and
//! go in `/proc/self/task` while it counts.

use std::time::{Duration, Instant};

use esti_collectives::FaultPlan;
use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{ContinuousBatcher, PartitionedEngine, ServingOptions, ServingRequest, WeightFormat};
use esti_tensor::sample::Sampling;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads").count()
}

/// The thread count once it reads `want`, or whatever it reads after a
/// second: a joined thread can stay listed for a moment after its join
/// returns.
fn settled(want: usize) -> usize {
    let t0 = Instant::now();
    loop {
        let now = threads();
        if now == want || t0.elapsed() > Duration::from_secs(1) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn chip_executors_live_exactly_as_long_as_their_engine() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 3);
    let vocab = model.config().vocab;
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let spawned = cpus.min(layout.mesh.n_chips()) - 1;
    let idle = threads();

    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let resident = settled(idle + spawned);
    assert_eq!(resident, idle + spawned, "a fresh engine runs T - 1 executor threads besides the caller");
    engine.begin_slots(2, 0);
    for step in 0..200 {
        let rows: Vec<(usize, usize)> = (0..1 + step % 2).map(|s| (s, (step + s) % vocab)).collect();
        engine.try_decode_rows(&rows).expect("a fault-free step");
        assert_eq!(threads(), resident, "step {step} started or stopped a thread");
        if step % 40 == 39 {
            // Stay inside the model's context.
            engine.evict_slot(0);
            engine.evict_slot(1);
        }
    }
    drop(engine);
    assert_eq!(settled(idle), idle, "a dropped engine joins its executors");

    // A crash mid-serve makes the batcher reset the poisoned engine in
    // place: afterwards the same one engine's executors run.
    let opts = ServingOptions {
        max_decode_batch: 4,
        sampling: Sampling::Greedy,
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    batcher.schedule_decode_fault(1, FaultPlan::new().crash(2, 3));
    let requests: Vec<ServingRequest> = (0..4)
        .map(|i| ServingRequest {
            prompt: (0..3 + i).map(|t| (5 + 3 * i + 7 * t) % vocab).collect(),
            max_new_tokens: 4,
            seed: i as u64,
            arrival: 0.0,
            priority: Priority::Normal,
        })
        .collect();
    let outcome = batcher.try_serve(&requests).expect("the batcher recovers");
    assert_eq!(outcome.report.recovery.faults, 1, "the crash forced one reset");
    assert_eq!(settled(idle + spawned), idle + spawned, "a reset engine leaks no executors");
    drop(batcher);
    assert_eq!(settled(idle), idle, "a dropped batcher joins its engine's executors");
}
