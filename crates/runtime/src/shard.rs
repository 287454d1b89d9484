//! Weight-shard construction for each layout.

use esti_model::reference::mm3;
use esti_model::{LayerWeights, ModelConfig};
use esti_tensor::{ops, quant::QuantizedMatrix, Tensor};

/// How weight values are stored on a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightFormat {
    /// f32 exactly as initialized (used for bit-level equality tests).
    Exact,
    /// bf16-rounded storage (what the real system keeps in HBM).
    Bf16,
    /// AQT-style int8 per-channel quantization (Section 3.6): the shard is
    /// stored as actual `i8` values with per-column scales, and matmuls run
    /// over the integer values with f32 accumulation — the weight-only
    /// quantization dataflow of the real system.
    Int8,
}

impl WeightFormat {
    /// Builds the stored form of a weight matrix.
    #[must_use]
    pub fn apply(self, w: &Tensor) -> ShardMat {
        match self {
            WeightFormat::Exact => ShardMat::Dense(w.clone()),
            WeightFormat::Bf16 => ShardMat::Dense(esti_tensor::bf16::quantize_tensor(w)),
            WeightFormat::Int8 => ShardMat::Int8(QuantizedMatrix::quantize(w)),
        }
    }
}

/// A stored weight shard: dense f32/bf16 values, or genuine int8 with
/// per-column scales.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMat {
    /// Dense floating-point storage.
    Dense(Tensor),
    /// int8 weight-only quantization (Section 3.6).
    Int8(QuantizedMatrix),
    /// Row-concatenation of int8 blocks, each with its own per-column
    /// scales — the result of all-gathering a row-sharded quantized matrix
    /// (each source rank quantized its block independently, so the blocks
    /// cannot merge into one `QuantizedMatrix` without re-quantizing).
    /// Contracting against it folds the blocks' scaled partial products in
    /// ascending rank order, as the fully weight-gathered `wg_rows` does.
    Int8Cat(Vec<QuantizedMatrix>),
}

impl ShardMat {
    /// `[B, L, E] × shard → [B, L, D]`, running the int8 kernel when the
    /// shard is quantized.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    // Vetted expect: Int8Cat is built from >= 1 source shards.
    #[allow(clippy::expect_used)]
    pub fn mm3(&self, x: &Tensor) -> Tensor {
        match self {
            ShardMat::Dense(w) => mm3(x, w),
            ShardMat::Int8(q) => q.matmul3(x),
            ShardMat::Int8Cat(blocks) => {
                let mut off = 0;
                let mut sum: Option<Tensor> = None;
                for q in blocks {
                    let part = q.matmul3(&x.slice(2, off, q.rows()));
                    off += q.rows();
                    sum = Some(match sum {
                        None => part,
                        Some(s) => &s + &part,
                    });
                }
                sum.expect("Int8Cat has at least one block")
            }
        }
    }

    /// Number of output columns this shard produces.
    ///
    /// # Panics
    ///
    /// Panics if a dense shard is not rank 2.
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            ShardMat::Dense(w) => w.dim(1),
            ShardMat::Int8(q) => q.cols(),
            ShardMat::Int8Cat(blocks) => blocks[0].cols(),
        }
    }

    /// The dense floating-point view (dequantizing if int8) — used by the
    /// weight-gathered dataflows, which communicate shards as tensors.
    #[must_use]
    pub fn dense(&self) -> Tensor {
        match self {
            ShardMat::Dense(w) => w.clone(),
            ShardMat::Int8(q) => q.dequantize(),
            ShardMat::Int8Cat(blocks) => {
                let parts: Vec<Tensor> = blocks.iter().map(QuantizedMatrix::dequantize).collect();
                let refs: Vec<&Tensor> = parts.iter().collect();
                Tensor::concat(&refs, 0)
            }
        }
    }

    /// Stored bytes of this shard: 4 per f32 element, or 1 per int8 value
    /// plus 4 per scale — the asymmetry the memory model charges for.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            ShardMat::Dense(w) => w.numel() * 4,
            ShardMat::Int8(q) => q.storage_bytes(),
            ShardMat::Int8Cat(blocks) => blocks.iter().map(QuantizedMatrix::storage_bytes).sum(),
        }
    }
}

/// Slices rows `[r0, r0+rn)` and columns `[c0, c0+cn)` of a rank-2 matrix.
///
/// # Panics
///
/// Panics if the ranges exceed the matrix or `w` is not rank 2.
#[must_use]
pub fn block(w: &Tensor, r0: usize, rn: usize, c0: usize, cn: usize) -> Tensor {
    assert_eq!(w.rank(), 2, "block slicing requires rank-2");
    w.slice(0, r0, rn).slice(1, c0, cn)
}

/// The weight shards one chip holds for one layer.
///
/// Meaning depends on the layout:
/// * 1D: `wq/wk/wv/w_in/w_gate` are column shards, `wo/w_out` row shards,
///   `ln*` replicated.
/// * 2D: every matrix is a `(row, col)` block per `(i, j)`; `ln*` gains are
///   sharded like the boundary activations (`E/n` each).
/// * WG-XYZ: `w_*` are column (in) / row (out) shards that get all-gathered
///   before use; `ln*` replicated.
#[derive(Debug, Clone)]
pub struct LayerShard {
    /// Query projection shard.
    pub wq: ShardMat,
    /// Key projection shard.
    pub wk: ShardMat,
    /// Value projection shard.
    pub wv: ShardMat,
    /// Output projection shard.
    pub wo: ShardMat,
    /// MLP input shard.
    pub w_in: ShardMat,
    /// SwiGLU gate shard (if the model uses SwiGLU).
    pub w_gate: Option<ShardMat>,
    /// MLP output shard.
    pub w_out: ShardMat,
    /// First layernorm gain (replicated or `E`-sharded per layout).
    pub ln1: Tensor,
    /// Second layernorm gain for serial blocks.
    pub ln2: Option<Tensor>,
}

/// Builds the 1D weight-stationary shard for chip `rank` of `n`:
/// projections column-sharded (Q and MHA K/V by heads; MQ K/V replicated),
/// output matrices row-sharded.
///
/// # Panics
///
/// Panics unless `d_ff`, `n_heads` divide `n`.
#[must_use]
pub fn shard_1d(
    cfg: &ModelConfig,
    layer: &LayerWeights,
    rank: usize,
    n: usize,
    fmt: WeightFormat,
) -> LayerShard {
    assert!(cfg.d_ff.is_multiple_of(n), "1D layout needs d_ff divisible by {n} chips");
    assert!(cfg.n_heads.is_multiple_of(n), "1D layout needs n_heads divisible by {n} chips");
    let dh = cfg.d_head;
    let h_loc = cfg.n_heads / n;
    let f_loc = cfg.d_ff / n;
    let e = cfg.d_model;
    let (wk, wv) = if cfg.n_kv_heads() == 1 {
        // Multiquery: the single KV head's projections are replicated.
        (layer.wk.clone(), layer.wv.clone())
    } else {
        (
            block(&layer.wk, 0, e, rank * h_loc * dh, h_loc * dh),
            block(&layer.wv, 0, e, rank * h_loc * dh, h_loc * dh),
        )
    };
    LayerShard {
        wq: fmt.apply(&block(&layer.wq, 0, e, rank * h_loc * dh, h_loc * dh)),
        wk: fmt.apply(&wk),
        wv: fmt.apply(&wv),
        wo: fmt.apply(&block(&layer.wo, rank * h_loc * dh, h_loc * dh, 0, e)),
        w_in: fmt.apply(&block(&layer.w_in, 0, e, rank * f_loc, f_loc)),
        w_gate: layer
            .w_gate
            .as_ref()
            .map(|g| fmt.apply(&block(g, 0, e, rank * f_loc, f_loc))),
        w_out: fmt.apply(&block(&layer.w_out, rank * f_loc, f_loc, 0, e)),
        ln1: layer.ln1.clone(),
        ln2: layer.ln2.clone(),
    }
}

/// Builds the 2D weight-stationary shard (`E_x F_yz`) for chip `(i, j)` of
/// an `x_parts × yz_parts` mesh: every matrix is a block with the `E` side
/// split `X` ways and the `F`/heads side split `YZ` ways. The multiquery KV
/// projections split only their `E` rows (the single head's columns are
/// shared by the whole `yz` group).
///
/// # Panics
///
/// Panics unless `d_model % (x·yz)`, `d_model % x`, `d_ff % (x·yz)` and
/// `n_heads % yz` are all zero.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn shard_2d(
    cfg: &ModelConfig,
    layer: &LayerWeights,
    i: usize,
    j: usize,
    x_parts: usize,
    yz_parts: usize,
    fmt: WeightFormat,
) -> LayerShard {
    let n = x_parts * yz_parts;
    assert!(cfg.d_model.is_multiple_of(n), "2D layout needs d_model divisible by {n} chips");
    assert!(cfg.d_ff.is_multiple_of(n), "2D layout needs d_ff divisible by {n} chips");
    assert!(cfg.n_heads.is_multiple_of(yz_parts), "2D layout needs n_heads divisible by yz={yz_parts}");
    let e = cfg.d_model;
    let dh = cfg.d_head;
    let e_x = e / x_parts;
    let f_yz = cfg.d_ff / yz_parts;
    let h_yz = cfg.n_heads / yz_parts;
    let e_n = e / n;
    let ln_off = i * e_x + j * e_n;
    let (wk, wv) = if cfg.n_kv_heads() == 1 {
        (
            block(&layer.wk, i * e_x, e_x, 0, dh),
            block(&layer.wv, i * e_x, e_x, 0, dh),
        )
    } else {
        (
            block(&layer.wk, i * e_x, e_x, j * h_yz * dh, h_yz * dh),
            block(&layer.wv, i * e_x, e_x, j * h_yz * dh, h_yz * dh),
        )
    };
    LayerShard {
        wq: fmt.apply(&block(&layer.wq, i * e_x, e_x, j * h_yz * dh, h_yz * dh)),
        wk: fmt.apply(&wk),
        wv: fmt.apply(&wv),
        wo: fmt.apply(&block(&layer.wo, j * h_yz * dh, h_yz * dh, i * e_x, e_x)),
        w_in: fmt.apply(&block(&layer.w_in, i * e_x, e_x, j * f_yz, f_yz)),
        w_gate: layer
            .w_gate
            .as_ref()
            .map(|g| fmt.apply(&block(g, i * e_x, e_x, j * f_yz, f_yz))),
        w_out: fmt.apply(&block(&layer.w_out, j * f_yz, f_yz, i * e_x, e_x)),
        ln1: layer.ln1.slice(0, ln_off, e_n),
        ln2: layer.ln2.as_ref().map(|g| g.slice(0, ln_off, e_n)),
    }
}

/// Builds the weight-gathered shard for chip `rank` of `n`: the same
/// column/row sharding as 1D (the stored layout), which the engine
/// all-gathers just before each layer's einsums. Multiquery KV projections
/// are column-split only if the single head divides; otherwise replicated
/// (their gather is skipped).
#[must_use]
pub fn shard_wg(
    cfg: &ModelConfig,
    layer: &LayerWeights,
    rank: usize,
    n: usize,
    fmt: WeightFormat,
) -> LayerShard {
    shard_1d(cfg, layer, rank, n, fmt)
}

/// Builds the shard for the *hybrid* weight-gathered layouts (X / XY
/// extents): the sharded dimension is split first into `n_local` slices
/// (the 1D weight-stationary role this chip plays after the gather) and
/// each slice into `n_gather` sub-shards (what the gather reassembles).
/// Chip `(g, b)` stores sub-shard `g` of slice `b`; all-gathering over the
/// `g` group yields exactly the 1D shard for role `b`.
///
/// # Panics
///
/// Panics unless `d_ff` and `n_heads` divide `n_local · n_gather`.
#[must_use]
pub fn shard_wg_hybrid(
    cfg: &ModelConfig,
    layer: &LayerWeights,
    g: usize,
    b: usize,
    n_gather: usize,
    n_local: usize,
    fmt: WeightFormat,
) -> LayerShard {
    let n = n_gather * n_local;
    assert!(cfg.d_ff.is_multiple_of(n), "hybrid WG needs d_ff divisible by {n} chips");
    assert!(cfg.n_heads.is_multiple_of(n), "hybrid WG needs n_heads divisible by {n} chips");
    let e = cfg.d_model;
    let dh = cfg.d_head;
    // Column offset of sub-shard (b, g) for a dimension of `per_chip` width
    // per chip and `slice` width per local role.
    let h_chip = cfg.n_heads / n;
    let h_slice = cfg.n_heads / n_local;
    let f_chip = cfg.d_ff / n;
    let f_slice = cfg.d_ff / n_local;
    let h_off = b * h_slice + g * h_chip;
    let f_off = b * f_slice + g * f_chip;
    let (wk, wv) = if cfg.n_kv_heads() == 1 {
        (layer.wk.clone(), layer.wv.clone())
    } else {
        (
            block(&layer.wk, 0, e, h_off * dh, h_chip * dh),
            block(&layer.wv, 0, e, h_off * dh, h_chip * dh),
        )
    };
    LayerShard {
        wq: fmt.apply(&block(&layer.wq, 0, e, h_off * dh, h_chip * dh)),
        wk: fmt.apply(&wk),
        wv: fmt.apply(&wv),
        wo: fmt.apply(&block(&layer.wo, h_off * dh, h_chip * dh, 0, e)),
        w_in: fmt.apply(&block(&layer.w_in, 0, e, f_off, f_chip)),
        w_gate: layer
            .w_gate
            .as_ref()
            .map(|w| fmt.apply(&block(w, 0, e, f_off, f_chip))),
        w_out: fmt.apply(&block(&layer.w_out, f_off, f_chip, 0, e)),
        ln1: layer.ln1.clone(),
        ln2: layer.ln2.clone(),
    }
}

/// Reassembles a full layer from 1D shards — a test helper proving the
/// shards tile the original weights exactly.
#[must_use]
// Vetted expect: all shards of one layer carry the same optional fields.
#[allow(clippy::expect_used)]
pub fn unshard_1d(cfg: &ModelConfig, shards: &[LayerShard]) -> LayerWeights {
    let cat = |f: &dyn Fn(&LayerShard) -> &ShardMat, dim: usize| {
        let parts: Vec<Tensor> = shards.iter().map(|s| f(s).dense()).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, dim)
    };
    LayerWeights {
        wq: cat(&|s| &s.wq, 1),
        wk: if cfg.n_kv_heads() == 1 { shards[0].wk.dense() } else { cat(&|s| &s.wk, 1) },
        wv: if cfg.n_kv_heads() == 1 { shards[0].wv.dense() } else { cat(&|s| &s.wv, 1) },
        wo: cat(&|s| &s.wo, 0),
        w_in: cat(&|s| &s.w_in, 1),
        w_gate: shards[0].w_gate.as_ref().map(|_| {
            let parts: Vec<Tensor> = shards
                .iter()
                .map(|s| s.w_gate.as_ref().expect("uniform shards").dense())
                .collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat(&refs, 1)
        }),
        w_out: cat(&|s| &s.w_out, 0),
        ln1: shards[0].ln1.clone(),
        ln2: shards[0].ln2.clone(),
    }
}

/// Sanity check used by tests: multiplying through sharded weights summed
/// over chips equals the unsharded product.
#[must_use]
pub fn megatron_trick_check(cfg: &ModelConfig, layer: &LayerWeights, x: &Tensor, n: usize) -> bool {
    // x [T, E] -> per-chip: (x @ w_in_shard) @ w_out_shard, summed == x @ w_in @ w_out.
    let full = ops::matmul(&ops::matmul(x, &layer.w_in), &layer.w_out);
    let mut acc = Tensor::zeros(full.shape().to_vec());
    for r in 0..n {
        let s = shard_1d(cfg, layer, r, n, WeightFormat::Exact);
        acc = &acc + &ops::matmul(&ops::matmul(x, &s.w_in.dense()), &s.w_out.dense());
    }
    acc.approx_eq(&full, 1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_model::{ModelConfig, Weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ModelConfig, Weights) {
        let cfg = ModelConfig::tiny();
        let w = Weights::random(&cfg, 9);
        (cfg, w)
    }

    #[test]
    fn shards_tile_the_original_1d() {
        let (cfg, w) = setup();
        for n in [1usize, 2, 4] {
            let shards: Vec<LayerShard> =
                (0..n).map(|r| shard_1d(&cfg, &w.layers[0], r, n, WeightFormat::Exact)).collect();
            let re = unshard_1d(&cfg, &shards);
            assert!(re.wq.approx_eq(&w.layers[0].wq, 0.0), "n={n}");
            assert!(re.w_in.approx_eq(&w.layers[0].w_in, 0.0));
            assert!(re.w_out.approx_eq(&w.layers[0].w_out, 0.0));
            assert!(re.wo.approx_eq(&w.layers[0].wo, 0.0));
        }
    }

    #[test]
    fn megatron_trick_holds() {
        // The Shoeybi et al. trick: output-sharded matmul feeding
        // input-sharded matmul needs no intermediate communication.
        let (cfg, w) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&mut rng, vec![5, cfg.d_model], 1.0);
        for n in [2usize, 4] {
            assert!(megatron_trick_check(&cfg, &w.layers[0], &x, n), "n={n}");
        }
    }

    #[test]
    fn shard_2d_blocks_cover_w_in() {
        let (cfg, w) = setup();
        let (x_parts, yz_parts) = (2, 2);
        // Sum of block elements equals total elements.
        let mut total = 0;
        for i in 0..x_parts {
            for j in 0..yz_parts {
                let s = shard_2d(&cfg, &w.layers[0], i, j, x_parts, yz_parts, WeightFormat::Exact);
                let w_in = s.w_in.dense();
                total += w_in.numel();
                assert_eq!(w_in.shape(), &[cfg.d_model / 2, cfg.d_ff / 2]);
                // block content matches the original at the right offset
                assert_eq!(
                    w_in.at(&[0, 0]),
                    w.layers[0].w_in.at(&[i * cfg.d_model / 2, j * cfg.d_ff / 2])
                );
            }
        }
        assert_eq!(total, cfg.d_model * cfg.d_ff);
    }

    #[test]
    fn shard_2d_ln_gains_are_e_over_n() {
        let (cfg, w) = setup();
        let s = shard_2d(&cfg, &w.layers[0], 1, 1, 2, 2, WeightFormat::Exact);
        assert_eq!(s.ln1.numel(), cfg.d_model / 4);
    }

    #[test]
    fn hybrid_shards_gather_to_1d_shards() {
        // Gathering the g-group of hybrid shards must reproduce the 1D
        // shard for role b exactly.
        let (cfg, w) = setup();
        let (n_gather, n_local) = (2usize, 2usize);
        for b in 0..n_local {
            let parts: Vec<LayerShard> = (0..n_gather)
                .map(|g| shard_wg_hybrid(&cfg, &w.layers[0], g, b, n_gather, n_local, WeightFormat::Exact))
                .collect();
            let dense: Vec<Tensor> = parts.iter().map(|p| p.w_in.dense()).collect();
            let refs: Vec<&Tensor> = dense.iter().collect();
            let gathered = Tensor::concat(&refs, 1);
            let oned = shard_1d(&cfg, &w.layers[0], b, n_local, WeightFormat::Exact);
            assert!(gathered.approx_eq(&oned.w_in.dense(), 0.0), "b={b}");
            let outs: Vec<Tensor> = parts.iter().map(|p| p.w_out.dense()).collect();
            let refs_out: Vec<&Tensor> = outs.iter().collect();
            assert!(Tensor::concat(&refs_out, 0).approx_eq(&oned.w_out.dense(), 0.0));
            let qs: Vec<Tensor> = parts.iter().map(|p| p.wq.dense()).collect();
            let refs_q: Vec<&Tensor> = qs.iter().collect();
            assert!(Tensor::concat(&refs_q, 1).approx_eq(&oned.wq.dense(), 0.0));
        }
    }

    #[test]
    fn multiquery_kv_replicated_in_1d() {
        let (cfg, w) = setup();
        let a = shard_1d(&cfg, &w.layers[0], 0, 4, WeightFormat::Exact);
        let b = shard_1d(&cfg, &w.layers[0], 3, 4, WeightFormat::Exact);
        assert!(a.wk.dense().approx_eq(&b.wk.dense(), 0.0), "MQ K projection must be replicated");
    }

    #[test]
    fn multihead_kv_sharded_in_1d() {
        let cfg = ModelConfig::tiny_multihead();
        let w = Weights::random(&cfg, 9);
        let a = shard_1d(&cfg, &w.layers[0], 0, 2, WeightFormat::Exact);
        assert_eq!(a.wk.dense().shape(), &[cfg.d_model, cfg.attn_dim() / 2]);
    }

    #[test]
    fn weight_formats_round() {
        let (cfg, w) = setup();
        let exact = shard_1d(&cfg, &w.layers[0], 0, 2, WeightFormat::Exact);
        let bf16 = shard_1d(&cfg, &w.layers[0], 0, 2, WeightFormat::Bf16);
        let int8 = shard_1d(&cfg, &w.layers[0], 0, 2, WeightFormat::Int8);
        assert!(bf16.wq.dense().approx_eq(&exact.wq.dense(), 0.02));
        assert!(int8.wq.dense().approx_eq(&exact.wq.dense(), 0.02));
        assert_ne!(bf16.wq.dense(), exact.wq.dense());
        assert_ne!(int8.wq.dense(), exact.wq.dense());
        // int8 stores genuinely quantized values, at ~4x less space than f32.
        assert!(matches!(int8.wq, ShardMat::Int8(_)));
        assert!(int8.wq.storage_bytes() * 3 < exact.wq.storage_bytes());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_sharding_rejected() {
        let (cfg, w) = setup();
        let _ = shard_1d(&cfg, &w.layers[0], 0, 3, WeightFormat::Exact);
    }
}
