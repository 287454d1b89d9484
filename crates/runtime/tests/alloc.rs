//! The compiled program's buffer plan, measured: every layer's values
//! reuse the buffers the first layer's took, so a prefill allocates about
//! as many large-block bytes at eight layers as at two; and the
//! collectives copy once, so a pass allocates none of the deposits its
//! inputs move into.
//!
//! Its own test binary, so the counting global allocator sees nothing but
//! these tests, which measure one at a time.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Held by each test while it measures, so the counter sees one engine at
/// a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `f` with no other test measuring.
fn alone<T>(f: impl FnOnce() -> T) -> T {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f()
}

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

/// `palm-micro`'s shape (multiquery, parallel block, SwiGLU, RoPE) at
/// `d_model` / `d_head`, over `n_layers` layers.
fn palm_like(n_layers: usize, d_model: usize, d_head: usize) -> ReferenceModel {
    let cfg = ModelConfig {
        name: "alloc-palm".to_owned(),
        n_layers,
        d_model,
        d_ff: 1024,
        n_heads: 8,
        d_head,
        vocab: 64,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 512,
    };
    ReferenceModel::init_random(cfg, 5)
}

/// Large-block bytes `f` allocates.
fn large_bytes(f: impl FnOnce()) -> usize {
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    f();
    LARGE_BYTES.load(Ordering::Relaxed) - before
}

/// Bytes in large blocks a steady ws2d × batch prefill of 8 rows × 64
/// tokens allocates on a 2×2×1 mesh, the second of two passes.
fn ws2d_prefill_bytes() -> usize {
    let model = palm_like(2, 256, 32);
    let layout = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Batch, mesh: MeshFactors::new(2, 2, 1) };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let prompts: Vec<Vec<usize>> = (0..8).map(|r| (0..64).map(|p| (r * 17 + p * 5) % 64).collect()).collect();
    let mut pass = || {
        engine.reset();
        large_bytes(|| drop(engine.try_prefill(&prompts).expect("a fault-free prefill")))
    };
    pass();
    pass()
}

/// A steady ws2d × batch prefill's collectives move their inputs into
/// their deposits and are read in place, so the pass allocates less by at
/// least what its collectives deposited when they copied: at the commit
/// that still copied every deposit (and every part a reader kept), the
/// pass allocated `PARENT` = 60 555 264 bytes in large blocks, `DEPOSITED`
/// = 33 030 144 of them the collectives' deposits. (This commit: 24 379 392.)
#[test]
fn a_ws2d_prefill_allocates_no_deposit_its_inputs_move_into() {
    const PARENT: usize = 60_555_264;
    const DEPOSITED: usize = 33_030_144;
    let bytes = alone(ws2d_prefill_bytes);
    assert!(
        bytes + DEPOSITED <= PARENT,
        "a steady ws2d prefill allocated {bytes} bytes in blocks of at least {LARGE} bytes: more than {PARENT} - {DEPOSITED}"
    );
}

/// Large-block bytes of a steady ws1d × batch decode step over 128 rows on
/// a 2×2×1 mesh, the second after a prefill: its deposits (the two
/// all-to-alls' 64 KiB and the block all-reduce's 256 KiB per chip and
/// layer) are all large blocks.
fn ws1d_decode_step_bytes() -> usize {
    let model = palm_like(2, 512, 64);
    let layout = Layout { ffn: FfnLayout::WeightStationary1D, attn: AttnSharding::Batch, mesh: MeshFactors::new(2, 2, 1) };
    let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
    let prompts: Vec<Vec<usize>> = (0..128).map(|r| (0..4).map(|p| (r * 13 + p * 3) % 64).collect()).collect();
    drop(engine.try_prefill(&prompts).expect("a fault-free prefill"));
    let tokens: Vec<usize> = (0..128).map(|r| r % 64).collect();
    drop(engine.try_decode_step(&tokens).expect("a fault-free step"));
    large_bytes(|| drop(engine.try_decode_step(&tokens).expect("a fault-free step")))
}

/// A ws1d × batch decode step's collectives allocate no large block: every
/// one moves its input into its deposit. At the commit that copied them,
/// the step allocated `PARENT` = 9 699 328 bytes in large blocks,
/// `DEPOSITED` = 3 145 728 of them deposits. What the step allocates now
/// is that less the deposits, plus `RESERVED`: the one slot buffer per
/// chip (64 KiB, the attention output's) that the plan adds because the
/// output, lent to its all-to-all, stays reserved until the block
/// all-reduce hands it back. (This commit: 6 815 744.)
#[test]
fn a_ws1d_decode_steps_collectives_allocate_no_large_block() {
    const PARENT: usize = 9_699_328;
    const DEPOSITED: usize = 3_145_728;
    const RESERVED: usize = 4 * 65_536;
    let bytes = alone(ws1d_decode_step_bytes);
    assert!(
        bytes + DEPOSITED <= PARENT + RESERVED,
        "a steady ws1d decode step allocated {bytes} bytes in blocks of at least {LARGE} bytes: more than {PARENT} - {DEPOSITED} + {RESERVED}"
    );
}

/// A steady WG-XYZ × batch prefill (`prefill_bytes(2)`: int8, 8 rows × 256
/// tokens on a 2×2×1 mesh) returns each chip's own rows' logits and
/// gathers none. At the commit that still all-gathered the logits onto
/// every chip, the pass allocated `PARENT` = 24 117 248 bytes in large
/// blocks, three `[8, 256, 64]` f32 gather outputs (`DROPPED`, 524 288
/// bytes each) of them on chips that then dropped theirs. Pinned at
/// `PINNED` = 22 544 384 bytes, what this commit measured: `PARENT` less
/// `DROPPED`.
#[test]
fn a_weight_gathered_prefill_gathers_no_logits() {
    const PARENT: usize = 24_117_248;
    const DROPPED: usize = 3 * 8 * 256 * 64 * 4;
    const PINNED: usize = 22_544_384;
    const { assert!(PINNED + DROPPED <= PARENT) };
    let bytes = alone(|| prefill_bytes(2));
    assert!(
        bytes <= PINNED,
        "a steady WG-XYZ prefill allocated {bytes} bytes in blocks of at least {LARGE} bytes: more than {PINNED}"
    );
}

#[test]
fn a_prefill_allocates_its_buffers_once_for_every_layer() {
    let (two, eight) = alone(|| (prefill_bytes(2), prefill_bytes(8)));
    assert!(
        eight * 4 <= two * 5,
        "an 8-layer prefill allocated {eight} bytes in blocks of at least {LARGE} bytes, more than 1.25x a 2-layer one's {two}"
    );
}
