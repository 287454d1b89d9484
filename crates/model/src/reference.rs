//! Single-chip reference implementation — the ground truth that every
//! partitioned execution in `esti-runtime` must reproduce.

use esti_tensor::{ops, Tensor};

use crate::config::{BlockKind, MlpKind, ModelConfig, PositionKind};
use crate::kvcache::KvCache;
use crate::weights::{LayerWeights, Weights};

/// An unpartitioned decoder-only Transformer.
///
/// Supports both phases of Section 2.2: [`ReferenceModel::prefill`] runs a
/// parallel forward pass over a chunk of input tokens (calling it again on
/// a non-empty cache performs *incremental prefill*, Section 3.5), and
/// [`ReferenceModel::decode_step`] generates one token per sequence
/// autoregressively using the KV cache.
///
/// # Examples
///
/// ```
/// use esti_model::{KvCache, ModelConfig, ReferenceModel};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let mut cache = KvCache::new(model.config().n_layers);
/// let logits = model.prefill(&[vec![1, 2, 3]], &mut cache);
/// assert_eq!(logits.shape(), &[1, 3, model.config().vocab]);
/// let step = model.decode_step(&[4], &mut cache);
/// assert_eq!(step.shape(), &[1, model.config().vocab]);
/// assert_eq!(cache.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    cfg: ModelConfig,
    weights: Weights,
}

impl ReferenceModel {
    /// Wraps existing weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights' layer count disagrees with the config.
    #[must_use]
    pub fn new(cfg: ModelConfig, weights: Weights) -> Self {
        assert_eq!(weights.layers.len(), cfg.n_layers, "layer count mismatch");
        ReferenceModel { cfg, weights }
    }

    /// Draws random weights for `cfg` (see [`Weights::random`]).
    #[must_use]
    pub fn init_random(cfg: ModelConfig, seed: u64) -> Self {
        let weights = Weights::random(&cfg, seed);
        ReferenceModel { cfg, weights }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The model weights.
    #[must_use]
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Embeds token ids into `[B, L, E]` activations.
    ///
    /// # Panics
    ///
    /// Panics if sequences have unequal lengths or a token id is out of
    /// vocabulary.
    #[must_use]
    pub fn embed(&self, tokens: &[Vec<usize>]) -> Tensor {
        let b = tokens.len();
        assert!(b > 0, "empty batch");
        let l = tokens[0].len();
        assert!(l > 0, "empty sequence");
        let e = self.cfg.d_model;
        let mut x = Tensor::zeros(vec![b, l, e]);
        for (bi, seq) in tokens.iter().enumerate() {
            assert_eq!(seq.len(), l, "ragged batch: all sequences must have equal length");
            for (li, &tok) in seq.iter().enumerate() {
                assert!(tok < self.cfg.vocab, "token id {tok} out of vocabulary");
                for ei in 0..e {
                    x.set(&[bi, li, ei], self.weights.embed.at(&[tok, ei]));
                }
            }
        }
        x
    }

    /// [`ReferenceModel::embed`] plus position information: for models
    /// with learned absolute positions, adds the embedding of positions
    /// `base..base + L` (the base accounts for previously cached tokens).
    /// RoPE models add nothing here — their rotation happens inside
    /// attention.
    ///
    /// # Panics
    ///
    /// Panics if `base + L` exceeds the model's `max_seq` for a
    /// learned-position model.
    #[must_use]
    pub fn embed_at(&self, tokens: &[Vec<usize>], base: usize) -> Tensor {
        let mut x = self.embed(tokens);
        if self.cfg.position == PositionKind::Learned {
            // Vetted: `Weights::random` always materializes the table for
            // learned-position configs; its absence is a constructor bug,
            // not a runtime fault.
            #[allow(clippy::expect_used)]
            let pos = self
                .weights
                .pos_embed
                .as_ref()
                .expect("learned-position model carries a position table");
            let (b, l, e) = (x.dim(0), x.dim(1), x.dim(2));
            assert!(
                base + l <= self.cfg.max_seq,
                "sequence of {} tokens exceeds max_seq {}",
                base + l,
                self.cfg.max_seq
            );
            for bi in 0..b {
                for li in 0..l {
                    for ei in 0..e {
                        let v = x.at(&[bi, li, ei]) + pos.at(&[base + li, ei]);
                        x.set(&[bi, li, ei], v);
                    }
                }
            }
        }
        x
    }

    /// Runs the prefill phase over a chunk of `tokens` (`[B][L]`),
    /// appending keys/values to `cache` and returning logits `[B, L, V]`.
    ///
    /// With a non-empty cache this is incremental prefill: the chunk
    /// attends to all previously cached positions.
    ///
    /// # Panics
    ///
    /// Panics on ragged batches or out-of-vocabulary tokens.
    #[must_use]
    pub fn prefill(&self, tokens: &[Vec<usize>], cache: &mut KvCache) -> Tensor {
        let x = self.embed_at(tokens, cache.len());
        let h = self.forward(x, cache);
        self.logits(&h)
    }

    /// Runs one decode step over one token per sequence, appending to
    /// `cache` and returning logits `[B, V]`.
    #[must_use]
    pub fn decode_step(&self, tokens: &[usize], cache: &mut KvCache) -> Tensor {
        let seqs: Vec<Vec<usize>> = tokens.iter().map(|&t| vec![t]).collect();
        let x = self.embed_at(&seqs, cache.len());
        let h = self.forward(x, cache);
        let logits = self.logits(&h);
        let (b, v) = (tokens.len(), self.cfg.vocab);
        logits.into_reshape(vec![b, v])
    }

    /// The Transformer stack: layers plus final layernorm.
    /// `x` is `[B, L, E]`; returns the same shape.
    fn forward(&self, mut x: Tensor, cache: &mut KvCache) -> Tensor {
        assert_eq!(cache.n_layers(), self.cfg.n_layers, "cache layer count mismatch");
        for (li, layer) in self.weights.layers.iter().enumerate() {
            x = match self.cfg.block {
                BlockKind::Parallel => {
                    let ln = ln3(&x, &layer.ln1);
                    let attn = self.attention(&ln, layer, li, cache);
                    let mlp = self.mlp(&ln, layer);
                    &(&x + &attn) + &mlp
                }
                BlockKind::Serial => {
                    let attn = self.attention(&ln3(&x, &layer.ln1), layer, li, cache);
                    let x1 = &x + &attn;
                    // Vetted: serial-block weights always carry ln2 (paired
                    // by `Weights::random`); absence is a constructor bug.
                    #[allow(clippy::expect_used)]
                    let ln2 = layer.ln2.as_ref().expect("serial block requires ln2");
                    let mlp = self.mlp(&ln3(&x1, ln2), layer);
                    &x1 + &mlp
                }
            };
        }
        ln3(&x, &self.weights.ln_final)
    }

    /// Attention sublayer: projects Q/K/V, appends KV to the cache, runs
    /// causal softmax attention per head, projects the output.
    fn attention(&self, x: &Tensor, layer: &LayerWeights, li: usize, cache: &mut KvCache) -> Tensor {
        let dh = self.cfg.d_head;
        let mut q = mm3(x, &layer.wq); // [B, Lq, H*dh]
        let mut k_new = mm3(x, &layer.wk); // [B, Lq, Hkv*dh]
        let v_new = mm3(x, &layer.wv);
        if self.cfg.position == PositionKind::Rope {
            let base = cache.len_of(li);
            q = ops::rope(&q, dh, base);
            k_new = ops::rope(&k_new, dh, base);
        }
        cache.append(li, &k_new, &v_new);
        let attn = attention_over_cache(&q, cache, li, dh);
        mm3(&attn, &layer.wo)
    }

    /// Feedforward sublayer.
    fn mlp(&self, x: &Tensor, layer: &LayerWeights) -> Tensor {
        let hidden = match self.cfg.mlp {
            MlpKind::SwiGlu => {
                // Vetted: SwiGLU weights always carry w_gate (paired by
                // `Weights::random`); absence is a constructor bug.
                #[allow(clippy::expect_used)]
                let gate = mm3(x, layer.w_gate.as_ref().expect("SwiGLU requires w_gate"));
                let up = mm3(x, &layer.w_in);
                ops::swiglu(&gate, &up)
            }
            MlpKind::Gelu => gelu(&mm3(x, &layer.w_in)),
        };
        mm3(&hidden, &layer.w_out)
    }

    /// Projects hidden states `[B, L, E]` to logits `[B, L, V]` through the
    /// shared embedding.
    fn logits(&self, h: &Tensor) -> Tensor {
        mm3(h, &self.weights.embed.transpose())
    }
}

/// Query positions scored against one pass over a row's keys: K and V are
/// each streamed once per block, and the score scratch holds
/// `context × heads·QB` floats.
const QB: usize = 8;
/// Positions per kernel step: longer cache runs are cut to this, so a row
/// held in one page and one spread over a block table walk the same loop
/// nest.
const RUN: usize = 16;
/// QK register tile: `KT` keys × `LT` lanes (a lane is one query head at
/// one query position), resident across the `d_head` loop.
const KT: usize = 8;
const LT: usize = 8;
/// PV register tile: `MR` lanes × `NR` head-dim columns, resident across
/// one run's keys.
const MR: usize = 4;
const NR: usize = 32;

/// [`attention_over_rows`] with every cache row in the step: row `bi` of `q`
/// attends cache row `bi`.
///
/// # Panics
///
/// As [`attention_over_rows`]; `layer` must hold exactly one row per row of
/// `q`.
#[must_use]
pub fn attention_over_cache(q: &Tensor, cache: &KvCache, layer: usize, d_head: usize) -> Tensor {
    assert_eq!(cache.row_lens(layer).len(), q.dim(0), "one valid length per batch row");
    let rows: Vec<usize> = (0..q.dim(0)).collect();
    attention_over_rows(q, cache, &rows, layer, d_head)
}

/// Scaled-dot-product causal attention of `q` (`[B, Lq, Hq·dh]`, whatever
/// heads are present locally) over `layer` of `cache`, whose rows hold
/// `[len, Hkv·dh]` keys and values of ragged per-row lengths. `rows` is the
/// step's row map — row `bi` of `q` attends cache row `rows[bi]`, the same
/// map its keys and values were appended under
/// ([`KvCache::append_rows`]); cache rows outside it are not read. Row
/// `bi`'s queries occupy the last `Lq` of its positions and query head `h`
/// attends key/value head `h % Hkv` (so `Hkv = 1` is multiquery, `Hkv = Hq`
/// multihead, and a head-sharded subset is just fewer heads). Returns
/// `[B, Lq, Hq·dh]`.
///
/// One fused kernel shared by the reference model and every partitioned
/// layout: it walks each row's [`KvCache::row_runs`] in place — no page
/// gather, no per-head K/V copies, no per-head score tensors. Per row, KV
/// head and block of [`QB`] query positions it (1) streams the key runs
/// once, scoring every head of the block against each key into one reused
/// `[key, lane]` scratch, (2) turns each lane's column into probabilities,
/// (3) streams the value runs once, accumulating every head's context
/// straight into the output.
///
/// Accumulation contract (what keeps every layout and every page size
/// bit-identical, and identical to the unfused `matmul → scale →
/// causal_mask → softmax_base2 → matmul` composition): a score is one
/// serial chain `s = 0; s += q[d]·k[j][d]` in ascending `d`, then
/// `s · 1/√dh`; a probability is `e_j / Σe` with `e_j = exp2((s_j − max)·
/// log2 e)`, `max` folded and `Σe` summed from `0` in ascending `j`; an
/// output is one chain `o = 0; o += p_j·v[j][d]` in ascending `j`. Never a
/// fused multiply-add, never a rescaled partial sum. Keys past a block's
/// last query are skipped; the few its earlier queries must not see are
/// scored `-inf`, so they leave `max` alone and add `+0` to `Σe` and `±0`
/// to `o` — after every visible term of chains that are never `-0`.
///
/// # Panics
///
/// Panics if head widths are not multiples of `d_head`, `rows` is not one
/// cache row of `layer` per row of `q`, or a row is shorter than `Lq`.
#[must_use]
pub fn attention_over_rows(
    q: &Tensor,
    cache: &KvCache,
    rows: &[usize],
    layer: usize,
    d_head: usize,
) -> Tensor {
    let (b, l_q, qw) = (q.dim(0), q.dim(1), q.dim(2));
    let lens = cache.row_lens(layer);
    assert_eq!(rows.len(), b, "one cache row per batch row");
    let kw = cache.width();
    assert!(qw.is_multiple_of(d_head) && kw.is_multiple_of(d_head), "head width mismatch");
    let (hq, hkv) = (qw / d_head, kw / d_head);
    let scale = 1.0 / (d_head as f32).sqrt();
    let mut out = vec![0.0f32; b * l_q * qw];
    let (mut qt, mut scores, mut max, mut sum) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (bi, &row) in rows.iter().enumerate() {
        let l_k = lens[row];
        assert!(l_k >= l_q, "row {row} length {l_k} shorter than query length {l_q}");
        let runs = || {
            cache.row_runs(layer, row).flat_map(|(k, v)| k.chunks(RUN * kw).zip(v.chunks(RUN * kw)))
        };
        for g in 0..hkv.min(hq) {
            let n_h = (hq - g).div_ceil(hkv); // query heads g, g + Hkv, … share KV head g
            for i0 in (0..l_q).step_by(QB) {
                // Lane `l` is head `g + (l % n_h)·Hkv` of query `i0 + l / n_h`:
                // it sees `seen(l)` keys and lives at `at(l)` in `q` and `out`.
                let lanes = QB.min(l_q - i0) * n_h;
                let seen = |l: usize| l_k - l_q + i0 + l / n_h + 1;
                let at = |l: usize| ((bi * l_q + i0 + l / n_h) * hq + g + (l % n_h) * hkv) * d_head;
                let ctx = seen(lanes - 1);

                // q transposed once to `[dh, lanes]`, zero-padded to whole tiles.
                let lp = lanes.next_multiple_of(LT);
                qt.clear();
                qt.resize(d_head * lp, 0.0);
                for l in 0..lanes {
                    for (d, &x) in q.data()[at(l)..][..d_head].iter().enumerate() {
                        qt[d * lp + l] = x;
                    }
                }
                if scores.len() < ctx * lp {
                    scores.resize(ctx * lp, 0.0);
                }
                let scores = &mut scores[..ctx * lp];

                // (1) scores[j][lane] for the block's `ctx` keys, K read once.
                let mut rest = &mut scores[..];
                for (k_run, _) in runs() {
                    if rest.is_empty() {
                        break;
                    }
                    let n = (k_run.len() / kw * lp).min(rest.len());
                    let (rows, tail) = std::mem::take(&mut rest).split_at_mut(n);
                    for (k_tile, rows) in k_run.chunks(KT * kw).zip(rows.chunks_mut(KT * lp)) {
                        let k_g = &k_tile[g * d_head..];
                        for l0 in (0..lp).step_by(LT) {
                            qk_tile(&qt[l0..], &mut rows[l0..], lp, k_g, kw, d_head, scale);
                        }
                    }
                    rest = tail;
                }
                for l in 0..lanes {
                    for j in seen(l)..ctx {
                        scores[j * lp + l] = f32::NEG_INFINITY;
                    }
                }

                // (2) `softmax_base2` down each lane's column, all lanes abreast.
                max.clear();
                max.resize(lp, f32::NEG_INFINITY);
                sum.clear();
                sum.resize(lp, 0.0);
                for row in scores.chunks_exact(lp) {
                    for (m, &s) in max.iter_mut().zip(row) {
                        *m = m.max(s);
                    }
                }
                for row in scores.chunks_exact_mut(lp) {
                    for ((s, &m), sum) in row.iter_mut().zip(&max).zip(&mut sum).take(lanes) {
                        *s = ((*s - m) * std::f32::consts::LOG2_E).exp2();
                        *sum += *s;
                    }
                }
                for row in scores.chunks_exact_mut(lp) {
                    for (s, &sum) in row.iter_mut().zip(&sum) {
                        *s /= sum;
                    }
                }

                // (3) out[lane] += p[j][lane] · v[j], V read once.
                let mut rest = &scores[..];
                for (_, v_run) in runs() {
                    if rest.is_empty() {
                        break;
                    }
                    let (p_run, tail) = rest.split_at((v_run.len() / kw * lp).min(rest.len()));
                    for l0 in (0..lanes).step_by(MR) {
                        let mr = MR.min(lanes - l0);
                        for c0 in (0..d_head).step_by(NR) {
                            let (p, v) = (&p_run[l0..], &v_run[g * d_head + c0..]);
                            let offs = std::array::from_fn(|r| at(l0 + r.min(mr - 1)) + c0);
                            if d_head - c0 >= NR {
                                pv_tile(p, lp, v, kw, NR, &mut out, &offs, mr);
                            } else {
                                pv_tile(p, lp, v, kw, d_head - c0, &mut out, &offs, mr);
                            }
                        }
                    }
                    rest = tail;
                }
            }
        }
    }
    Tensor::from_vec(vec![b, l_q, qw], out)
}

/// `scores[jj][l] = (Σ_d qt[d][l] · k[jj][d]) · scale` for up to `KT` keys ×
/// `LT` lanes: `qt` and `scores` start at the tile's first lane (row stride
/// `lp`), `k` at the first key's head column (`kw` floats per key); the
/// shorter of `k` and `scores` says how many keys there are. Missing keys
/// alias the last one — scored and dropped — so every loop bound is a
/// compile-time constant and the accumulators stay in registers.
#[inline(always)]
fn qk_tile(qt: &[f32], scores: &mut [f32], lp: usize, k: &[f32], kw: usize, dh: usize, scale: f32) {
    let kt = k.len().div_ceil(kw).min(scores.len().div_ceil(lp));
    let keys: [&[f32]; KT] = std::array::from_fn(|jj| &k[jj.min(kt - 1) * kw..][..dh]);
    let mut acc = [[0.0f32; LT]; KT];
    for (d, q_d) in qt.chunks(lp).enumerate() {
        for (row, key) in acc.iter_mut().zip(&keys) {
            // One separate add per d step — the serial ascending chain of
            // the accumulation contract, LT of them side by side.
            for (x, &qx) in row.iter_mut().zip(&q_d[..LT]) {
                *x += qx * key[d];
            }
        }
    }
    for (row, dst) in acc.iter().zip(scores.chunks_mut(lp)) {
        for (s, &x) in dst[..LT].iter_mut().zip(row) {
            *s = x * scale;
        }
    }
}

/// `out[offs[r]..][..nr] += Σ_j p[j][r] · v[j][..nr]` in ascending `j`
/// for the first `mr` of `MR` lanes (the rest are computed and dropped):
/// `p` starts at the first key's first lane (row stride `lp`), `v` at the
/// first key's column (`kw` floats per key); the shorter of the two says
/// how many keys there are. Inlined so a call with constant `nr` keeps the
/// whole tile in registers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pv_tile(
    p: &[f32],
    lp: usize,
    v: &[f32],
    kw: usize,
    nr: usize,
    out: &mut [f32],
    offs: &[usize; MR],
    mr: usize,
) {
    let n = p.len().div_ceil(lp).min(v.len().div_ceil(kw));
    let mut acc = [[0.0f32; NR]; MR];
    for (row, &o) in acc.iter_mut().zip(offs).take(mr) {
        row[..nr].copy_from_slice(&out[o..][..nr]);
    }
    for j in 0..n {
        let v_j = &v[j * kw..][..nr];
        for (r, row) in acc.iter_mut().enumerate() {
            let pv = p[j * lp + r];
            for (x, &vv) in row[..nr].iter_mut().zip(v_j) {
                *x += pv * vv;
            }
        }
    }
    for (row, &o) in acc.iter().zip(offs).take(mr) {
        out[o..][..nr].copy_from_slice(&row[..nr]);
    }
}

/// Layernorm over the last dim of a rank-3 tensor.
fn ln3(x: &Tensor, gain: &Tensor) -> Tensor {
    ops::layernorm(x, gain, 1e-6)
}

/// `[B, L, E] × [E, D] → [B, L, D]` by flattening the leading dims.
/// Public because the partitioned runtime applies the same convention to
/// weight shards.
#[must_use]
pub fn mm3(x: &Tensor, w: &Tensor) -> Tensor {
    let (b, l, e) = (x.dim(0), x.dim(1), x.dim(2));
    let flat = x.reshape(vec![b * l, e]);
    let out = ops::matmul(&flat, w);
    let d = w.dim(1);
    out.into_reshape(vec![b, l, d])
}

/// GELU (tanh approximation), used by the Megatron-style MLP.
#[must_use]
pub fn gelu(t: &Tensor) -> Tensor {
    t.map(|v| {
        0.5 * v
            * (1.0
                + ((2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
    })
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// The unfused composition `attention_over_cache` replaced, kept as its
    /// bitwise oracle: gather each row dense, then per head `slice →
    /// transpose → matmul → scale → causal_mask → softmax_base2 → matmul`,
    /// stitched back with `concat`.
    fn attention_unfused(q: &Tensor, cache: &KvCache, layer: usize, d_head: usize) -> Tensor {
        let (l_q, hq) = (q.dim(1), q.dim(2) / d_head);
        let scale = 1.0 / (d_head as f32).sqrt();
        let mut per_batch = Vec::new();
        for bi in 0..q.dim(0) {
            let q_b = q.slice(0, bi, 1).into_reshape(vec![l_q, hq * d_head]);
            let (k_b, v_b) = cache.read_slot(layer, bi);
            let hkv = k_b.dim(1) / d_head;
            let heads: Vec<Tensor> = (0..hq)
                .map(|hi| {
                    let q_h = q_b.slice(1, hi * d_head, d_head);
                    let k_h = k_b.slice(1, (hi % hkv) * d_head, d_head);
                    let v_h = v_b.slice(1, (hi % hkv) * d_head, d_head);
                    let scores = ops::matmul(&q_h, &k_h.transpose()).scale(scale);
                    ops::matmul(&ops::softmax_base2(&ops::causal_mask(&scores)), &v_h)
                })
                .collect();
            let hs: Vec<&Tensor> = heads.iter().collect();
            per_batch.push(Tensor::concat(&hs, 1).into_reshape(vec![1, l_q, hq * d_head]));
        }
        let refs: Vec<&Tensor> = per_batch.iter().collect();
        Tensor::concat(&refs, 0)
    }

    fn noise(shape: Vec<usize>, seed: usize) -> Tensor {
        Tensor::randn(&mut StdRng::seed_from_u64(seed as u64), shape, 1.0)
    }

    #[test]
    fn fused_attention_is_bitwise_the_unfused_composition() {
        // (Hq, Hkv): multiquery with a full lane tile, a head-sharded
        // multiquery subset, multihead, and grouped heads.
        let heads = [(8, 1), (3, 1), (4, 4), (6, 2)];
        // Page 128 ≥ the longest row (37 + 32): one run per row.
        let pages = [1, 8, 16, 128];
        for ((hq, hkv), page, dh, l_q) in heads.iter().flat_map(|&h| {
            pages.iter().flat_map(move |&p| {
                [8, 32].into_iter().flat_map(move |dh| [1, 3, 32].map(|l_q| (h, p, dh, l_q)))
            })
        }) {
            let kw = hkv * dh;
            let mut cache = KvCache::paged(2, page);
            // Rows 0 and 1 admit the same 21-token prompt (they map the
            // same pages), row 3 a 37-token one, row 2
            // starts empty; then every row appends the `l_q` query
            // positions — row 0 copies the shared tail page out to do so.
            // Lengths: 21 + l_q (twice), l_q (so `l_k == l_q`, and a
            // length-1 row at `l_q = 1`), 37 + l_q.
            let prompt = |n: usize, seed: usize| -> Vec<(Tensor, Tensor)> {
                let kv = |li| (noise(vec![n, kw], seed + li), noise(vec![n, kw], seed + 7 + li));
                (0..2).map(kv).collect()
            };
            let shared: Vec<usize> = (0..21).collect();
            cache.insert_row_shared(0, 4, &prompt(21, 1), &shared);
            cache.insert_row_shared(1, 4, &prompt(21, 1), &shared);
            cache.insert_row_shared(3, 4, &prompt(37, 2), &(100..137).collect::<Vec<_>>());
            assert!(cache.page_stats().pages_shared > 0, "rows 0/1 map the same physical pages");
            for li in 0..2 {
                let step = |seed| noise(vec![4, l_q, kw], seed + li);
                cache.append(li, &step(3), &step(5));
            }
            assert_eq!(cache.row_lens(1), &[21 + l_q, 21 + l_q, l_q, 37 + l_q]);
            let q = noise(vec![4, l_q, hq * dh], 11);
            let fused = attention_over_cache(&q, &cache, 1, dh);
            let oracle = attention_unfused(&q, &cache, 1, dh);
            assert_eq!(fused.shape(), oracle.shape());
            for (i, (a, b)) in fused.data().iter().zip(oracle.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "Hq={hq} Hkv={hkv} dh={dh} l_q={l_q} page={page} element {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn fused_attention_over_a_row_map_reads_only_the_mapped_rows() {
        // Four ragged rows; a step over cache rows [3, 0] must give those
        // rows' slices of the all-rows result, in the map's order, bit for bit.
        let (dh, hq, l_q) = (8, 3, 1);
        let mut cache = KvCache::paged(1, 4);
        for (row, len) in [5usize, 9, 1, 14].into_iter().enumerate() {
            let (k, v) = (noise(vec![len, dh], 20 + row), noise(vec![len, dh], 30 + row));
            cache.write_slot(0, row, 4, &k, &v);
        }
        let q = noise(vec![4, l_q, hq * dh], 41);
        let all = attention_over_cache(&q, &cache, 0, dh);
        let picked = Tensor::concat(&[&q.slice(0, 3, 1), &q.slice(0, 0, 1)], 0);
        let some = attention_over_rows(&picked, &cache, &[3, 0], 0, dh);
        let want = Tensor::concat(&[&all.slice(0, 3, 1), &all.slice(0, 0, 1)], 0);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&some), bits(&want));
    }

    fn models() -> Vec<ReferenceModel> {
        vec![
            ReferenceModel::init_random(ModelConfig::tiny(), 3),
            ReferenceModel::init_random(ModelConfig::tiny_multihead(), 3),
        ]
    }

    #[test]
    fn prefill_shapes() {
        for m in models() {
            let mut cache = KvCache::new(m.config().n_layers);
            let logits = m.prefill(&[vec![1, 2, 3, 4], vec![5, 6, 7, 8]], &mut cache);
            assert_eq!(logits.shape(), &[2, 4, m.config().vocab], "{}", m.config().name);
            assert_eq!(cache.len(), 4);
        }
    }

    #[test]
    fn decode_extends_cache() {
        for m in models() {
            let mut cache = KvCache::new(m.config().n_layers);
            let _ = m.prefill(&[vec![1, 2]], &mut cache);
            let l1 = m.decode_step(&[3], &mut cache);
            assert_eq!(l1.shape(), &[1, m.config().vocab]);
            assert_eq!(cache.len(), 3);
        }
    }

    #[test]
    fn decode_equals_full_prefill() {
        // The last-position logits of a full prefill over [t0..t3] must
        // equal the logits of prefill([t0..t2]) followed by decode(t3).
        for m in models() {
            let toks = vec![1usize, 9, 4, 7];
            let mut full_cache = KvCache::new(m.config().n_layers);
            let full = m.prefill(std::slice::from_ref(&toks), &mut full_cache);
            let last = full.slice(1, 3, 1).into_reshape(vec![1, m.config().vocab]);

            let mut inc_cache = KvCache::new(m.config().n_layers);
            let _ = m.prefill(&[toks[..3].to_vec()], &mut inc_cache);
            let step = m.decode_step(&[toks[3]], &mut inc_cache);
            assert!(
                step.approx_eq(&last, 1e-3),
                "{}: max diff {}",
                m.config().name,
                step.max_abs_diff(&last)
            );
        }
    }

    #[test]
    fn incremental_prefill_matches_single_shot() {
        for m in models() {
            let toks = vec![2usize, 3, 5, 8, 13, 21];
            let mut one = KvCache::new(m.config().n_layers);
            let full = m.prefill(std::slice::from_ref(&toks), &mut one);

            let mut two = KvCache::new(m.config().n_layers);
            let _ = m.prefill(&[toks[..2].to_vec()], &mut two);
            let part = m.prefill(&[toks[2..].to_vec()], &mut two);

            let tail = full.slice(1, 2, 4);
            assert!(
                part.approx_eq(&tail, 1e-3),
                "{}: max diff {}",
                m.config().name,
                part.max_abs_diff(&tail)
            );
            assert_eq!(one.len(), two.len());
        }
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        for m in models() {
            let mut c1 = KvCache::new(m.config().n_layers);
            let mut c2 = KvCache::new(m.config().n_layers);
            let a = m.prefill(&[vec![1, 2, 3, 4]], &mut c1);
            let b = m.prefill(&[vec![1, 2, 3, 40]], &mut c2);
            // logits at positions 0..3 (which see tokens 0..=pos) agree.
            let a_head = a.slice(1, 0, 3);
            let b_head = b.slice(1, 0, 3);
            assert!(a_head.approx_eq(&b_head, 1e-4), "{}", m.config().name);
            // position 3 differs (different input token there).
            assert!(a.slice(1, 3, 1).max_abs_diff(&b.slice(1, 3, 1)) > 1e-3);
        }
    }

    #[test]
    fn batch_elements_are_independent() {
        let m = ReferenceModel::init_random(ModelConfig::tiny(), 5);
        let mut c_pair = KvCache::new(m.config().n_layers);
        let pair = m.prefill(&[vec![3, 1, 4], vec![2, 7, 1]], &mut c_pair);
        let mut c_solo = KvCache::new(m.config().n_layers);
        let solo = m.prefill(&[vec![2, 7, 1]], &mut c_solo);
        assert!(pair.slice(0, 1, 1).approx_eq(&solo, 1e-4));
    }

    #[test]
    fn parallel_and_serial_blocks_differ() {
        let cfg_p = ModelConfig::tiny();
        let mut cfg_s = cfg_p.clone();
        cfg_s.block = BlockKind::Serial;
        // Same seed; serial has extra ln2 gains but the matrices draw in a
        // different order anyway — just verify both run and differ.
        let mp = ReferenceModel::init_random(cfg_p, 1);
        let ms = ReferenceModel::init_random(cfg_s, 1);
        let mut c1 = KvCache::new(2);
        let mut c2 = KvCache::new(2);
        let lp = mp.prefill(&[vec![1, 2]], &mut c1);
        let ls = ms.prefill(&[vec![1, 2]], &mut c2);
        assert_eq!(lp.shape(), ls.shape());
    }

    #[test]
    #[should_panic(expected = "ragged batch")]
    fn ragged_batch_rejected() {
        let m = ReferenceModel::init_random(ModelConfig::tiny(), 0);
        let mut cache = KvCache::new(m.config().n_layers);
        let _ = m.prefill(&[vec![1, 2], vec![3]], &mut cache);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_rejected() {
        let m = ReferenceModel::init_random(ModelConfig::tiny(), 0);
        let mut cache = KvCache::new(m.config().n_layers);
        let _ = m.prefill(&[vec![1000]], &mut cache);
    }

    #[test]
    fn learned_positions_break_repeated_token_symmetry() {
        // For a repeated token, causal attention over identical keys/values
        // yields identical outputs at every position unless something
        // breaks the symmetry; absolute position embeddings do.
        let m = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 9);
        let mut cache = KvCache::new(m.config().n_layers);
        let logits = m.prefill(&[vec![5, 5]], &mut cache);
        let p0 = logits.slice(1, 0, 1);
        let p1 = logits.slice(1, 1, 1);
        assert!(p0.max_abs_diff(&p1) > 1e-3, "learned positions had no effect");
    }

    #[test]
    fn rope_changes_attention_outcomes() {
        // Same weights, RoPE vs no positions: attention scores over
        // *distinct* keys depend on relative position, so logits differ.
        let cfg_rope = ModelConfig::tiny();
        let mut cfg_none = cfg_rope.clone();
        cfg_none.position = crate::config::PositionKind::None;
        let w = crate::weights::Weights::random(&cfg_rope, 9);
        let with_rope = ReferenceModel::new(cfg_rope, w.clone());
        let without = ReferenceModel::new(cfg_none, w);
        let mut c1 = KvCache::new(2);
        let mut c2 = KvCache::new(2);
        let a = with_rope.prefill(&[vec![3, 7, 11]], &mut c1);
        let b = without.prefill(&[vec![3, 7, 11]], &mut c2);
        // Position 0 is identical (rotation at position 0 is the identity)…
        assert!(a.slice(1, 0, 1).approx_eq(&b.slice(1, 0, 1), 1e-5));
        // …but later positions must differ.
        assert!(a.slice(1, 2, 1).max_abs_diff(&b.slice(1, 2, 1)) > 1e-3);
    }

    #[test]
    fn learned_positions_respect_max_seq() {
        let m = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 9);
        let mut cache = KvCache::new(m.config().n_layers);
        let long: Vec<usize> = (0..m.config().max_seq).map(|t| t % 40).collect();
        let _ = m.prefill(&[long], &mut cache); // exactly max_seq fits
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c2 = cache.clone();
            let _ = m.decode_step(&[1], &mut c2); // one past max_seq
        }));
        assert!(result.is_err(), "exceeding max_seq must panic for learned positions");
    }

    #[test]
    fn logits_are_finite() {
        for m in models() {
            let mut cache = KvCache::new(m.config().n_layers);
            let logits = m.prefill(&[vec![0, 1, 2, 3, 4, 5, 6, 7]], &mut cache);
            assert!(logits.data().iter().all(|v| v.is_finite()), "{}", m.config().name);
        }
    }
}
