//! The compiled program's buffer plan, measured: every layer's values
//! reuse the buffers the first layer's took, so a prefill allocates about
//! as many large-block bytes at eight layers as at two.
//!
//! Its own test binary, so the counting global allocator sees nothing but
//! this test.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_model::config::{AttentionKind, BlockKind, MlpKind, PositionKind};
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, WeightFormat};

/// Blocks at least this large are counted.
const LARGE: usize = 64 * 1024;

/// Bytes requested in large blocks, by allocation or reallocation.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes of every large block it hands
/// out.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes in large blocks one WG-XYZ int8 prefill of 8 rows × 256 tokens
/// allocates, at `n_layers` layers, after a first pass that sized
/// everything else.
fn prefill_bytes(n_layers: usize) -> usize {
    // Narrow weights, long rows: each chip's `[2, 256, 64]` activations are
    // 128 KiB and its `d_ff` ones 2 MiB, while an int8 weight shard is a
    // few KiB, so the large blocks a pass allocates are its activations.
    let cfg = ModelConfig {
        name: "alloc".to_owned(),
        n_layers,
        d_model: 64,
        d_ff: 1024,
        n_heads: 4,
        d_head: 16,
        vocab: 64,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 512,
    };
    let model = ReferenceModel::init_random(cfg, 3);
    let layout = Layout {
        ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(2, 2, 1),
    };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Int8);
    let prompts: Vec<Vec<usize>> = (0..8).map(|r| (0..256).map(|p| (r * 31 + p * 7) % 64).collect()).collect();
    let mut pass = || {
        engine.reset();
        let before = LARGE_BYTES.load(Ordering::Relaxed);
        drop(engine.try_prefill(&prompts).expect("a fault-free prefill"));
        LARGE_BYTES.load(Ordering::Relaxed) - before
    };
    pass();
    pass()
}

#[test]
fn a_prefill_allocates_its_buffers_once_for_every_layer() {
    let (two, eight) = (prefill_bytes(2), prefill_bytes(8));
    assert!(
        eight * 4 <= two * 5,
        "an 8-layer prefill allocated {eight} bytes in blocks of at least {LARGE} bytes, more than 1.25x a 2-layer one's {two}"
    );
}
