//! Single-chip reference implementation — the ground truth that every
//! partitioned execution in `esti-runtime` must reproduce.

use esti_tensor::{ops, Tensor};

use crate::config::{BlockKind, MlpKind, ModelConfig, PositionKind};
use crate::kvcache::{KvCache, KT_PANEL};
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
/// `heads·QB × context` floats.
const QB: usize = 8;
/// Lanes whose `Σe` chains the softmax runs abreast (independent chains,
/// each still one serial sum).
const SUM_LANES: usize = 8;
/// Keys of a group of `SUM_LANES` lanes the softmax exponentiates and then
/// sums before it moves on: 16 KiB of scores, which stay in L1 from the
/// exponent to the sum.
const KEY_CHUNK: usize = 512;

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
/// layout: it walks each row's runs ([`KvCache::row_runs_in`]) in place —
/// no page gather, no per-head K/V copies, no per-head score tensors. Per
/// row, KV head and block of `QB` (8) query positions — `lanes`, a lane
/// being one query head at one query position — it (1) scores the lanes'
/// queries against each run's stored `Kᵀ` one 32-key tile panel at a time
/// ([`crate::kvcache::KvRun::kt_panels`]), one call of the GEMM register
/// tile per panel piece ([`ops::gemm_strided`]: keys on the vector lanes)
/// into a reused `[lane, key]` scratch, (2) turns each lane's row into
/// probabilities, (3) sums each run's V rows under those probabilities with
/// one more tile call per run (head dims on the vector lanes, `k` the run's
/// keys), into the lanes' outputs. Every score and each lane's first run
/// are written by the tile's write mode, so neither the scratch nor the
/// outputs are zeroed first.
///
/// Rows that share pages are read once: consecutive step rows whose block
/// tables begin with the same pages ([`KvCache::shared_prefix`]; the
/// samples of one prompt after [`KvCache::repeat_batch`], prompts admitted
/// through [`KvCache::insert_row_shared`]) form a group, and the lanes of as
/// many of its rows as one block of `QB` queries' lanes holds are stacked:
/// (1) and (3) run over the shared keys once for all of them, one tile call
/// per panel piece and per run, then over each row's own keys for its
/// lanes alone. A lane's softmax runs over its own row's keys only, so the
/// contract below holds lane by lane, unchanged.
///
/// Accumulation contract (what keeps every layout and every page size
/// bit-identical, and identical to the step-by-step `matmul → scale →
/// causal_mask → softmax_base2 → matmul` composition): a score is one
/// serial chain of fused multiply-adds `s = 0; s = fma(q[d], k[j][d], s)`
/// in ascending `d`, then `s · 1/√dh` (the tile's scale at store); a
/// probability is `e_j / Σe` with `e_j = exp2((s_j − max)·log2 e)`, `max`
/// folded and `Σe` summed from `0` in ascending `j`; an output is one chain
/// `o = 0; o = fma(p_j, v[j][d], o)` in ascending `j`, carried from run to
/// run in the lanes' output rows. These are the GEMM tile's chains, so the
/// composition's matmuls give the same bits. Never a separately rounded
/// product, never a rescaled partial sum. Keys past a block's last query
/// are skipped; the few its earlier queries must not see are scored
/// `-inf`, so they leave `max` alone and add `+0` to `Σe` and `±0`
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
    let mut out = Tensor::zeros(q.shape().to_vec());
    let valid = vec![q.dim(1); rows.len()];
    attention_over_rows_into(q, cache, rows, &valid, layer, d_head, &mut out, &mut AttentionScratch::default());
    out
}

/// The attention kernel's working buffers — a block's queries and outputs
/// lane-major `[lane, d_head]`, its scores then probabilities `[lane,
/// stride]` — kept by the caller from call to call. They grow to the
/// largest call and no further, so a caller that keeps one (the engine
/// keeps one per chip through a decode step's layers) calls the kernel
/// without allocating.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    qs: Vec<f32>,
    os: Vec<f32>,
    ps: Vec<f32>,
    /// The step rows with at least one valid query.
    live: Vec<usize>,
}

/// [`attention_over_rows`] written into `out` (shaped like `q`), working in
/// `scratch`, over only the first `valid[bi]` query positions of each row
/// `bi`: those are the row's last `valid[bi]` cached positions, and the
/// rest of its queries — right padding — are not scored and leave `out` as
/// it is (a caller that pads zeroes them). A row with no valid query reads
/// no key. Each valid lane scores exactly the keys, in exactly the order,
/// it would with its row's padding cut off.
///
/// # Panics
///
/// As [`attention_over_rows`], if `out` is not shaped like `q`, or if
/// `valid` does not give each row at most `Lq` queries, no more than the
/// row holds.
#[allow(clippy::too_many_arguments)]
pub fn attention_over_rows_into(
    q: &Tensor,
    cache: &KvCache,
    rows: &[usize],
    valid: &[usize],
    layer: usize,
    d_head: usize,
    out: &mut Tensor,
    scratch: &mut AttentionScratch,
) {
    let (b, l_q, qw) = (q.dim(0), q.dim(1), q.dim(2));
    let lens = cache.row_lens(layer);
    assert_eq!(rows.len(), b, "one cache row per batch row");
    assert_eq!(valid.len(), b, "one valid query count per batch row");
    assert_eq!(out.shape(), q.shape(), "attention output shape mismatch");
    let kw = cache.width();
    assert!(qw.is_multiple_of(d_head) && kw.is_multiple_of(d_head), "head width mismatch");
    for (&row, &n) in rows.iter().zip(valid) {
        assert!(n <= l_q, "row {row} given {n} valid queries of {l_q}");
        assert!(lens[row] >= n, "row {row} length {} shorter than its {n} queries", lens[row]);
    }
    let (hq, hkv) = (qw / d_head, kw / d_head);
    let scale = Some(1.0 / (d_head as f32).sqrt());
    let out = out.data_mut();
    let AttentionScratch { qs, os, ps, live } = scratch;
    live.clear();
    live.extend((0..b).filter(|&bi| valid[bi] > 0));
    let mut g0 = 0;
    while g0 < live.len() {
        // The group: live rows `g0..g1` that read their first `first` keys
        // from the same pages (none, if `g0`'s next live row shares no
        // page).
        let shared = |g1: usize| cache.shared_prefix(layer, &[rows[live[g0]], rows[live[g1]]]);
        let first = if g0 + 1 < live.len() { shared(g0 + 1) } else { 0 };
        let g1 = (g0 + 1..live.len()).find(|&g1| first == 0 || shared(g1) < first).unwrap_or(live.len());
        let group = &live[g0..g1];
        let most = group.iter().map(|&bi| valid[bi]).max().unwrap_or(0);
        for g in 0..hkv.min(hq) {
            let n_h = (hq - g).div_ceil(hkv); // query heads g, g + Hkv, … share KV head g
            for i0 in (0..most).step_by(QB) {
                // The group's rows with queries in the block, in chunks of
                // at most `QB / qn` rows, the scratch of one row's whole
                // block. Chunk row `r` is step row `bi[r]` with `nq(r)` of
                // the block's queries; its lanes are `off[r]..off[r + 1]`,
                // lane `off[r] + l` being head `g + (l % n_h)·Hkv` of query
                // `i0 + l / n_h`: it sees `seen(r, l)` keys and lives at
                // `at(r, l)` in `q` and `out`; row `r` scores `ctx(r)` keys,
                // the first `common` of them shared by the whole chunk.
                let qn = QB.min(most - i0);
                let mut members = group.iter().copied().filter(|&bi| valid[bi] > i0);
                let mut bi = [0; QB];
                loop {
                    let n_rows = members.by_ref().take(QB / qn).zip(&mut bi).map(|(m, slot)| *slot = m).count();
                    if n_rows == 0 {
                        break;
                    }
                    let nq = |r: usize| (valid[bi[r]] - i0).min(qn);
                    let mut off = [0; QB + 1];
                    for r in 0..n_rows {
                        off[r + 1] = off[r] + nq(r) * n_h;
                    }
                    let lanes = off[n_rows];
                    let ctx = |r: usize| lens[rows[bi[r]]] - valid[bi[r]] + i0 + nq(r);
                    let seen = |r: usize, l: usize| ctx(r) - nq(r) + l / n_h + 1;
                    let at = |r: usize, l: usize| ((bi[r] * l_q + i0 + l / n_h) * hq + g + (l % n_h) * hkv) * d_head;
                    let (mut stride, mut common) = (0, first);
                    qs.clear();
                    for r in 0..n_rows {
                        (stride, common) = (stride.max(ctx(r)), common.min(ctx(r)));
                        for l in 0..off[r + 1] - off[r] {
                            qs.extend_from_slice(&q.data()[at(r, l)..][..d_head]);
                        }
                    }
                    // The tile writes every score and output a lane reads
                    // before it is read, so the buffers are only grown.
                    os.resize(lanes * d_head, 0.0);
                    ps.resize(lanes * stride, 0.0);
                    // Part 0 is the common keys for every lane, read off the
                    // first row's runs; part `1 + r` row `r`'s own keys for
                    // its lanes: `(first lane, lanes, cache row, keys)`.
                    let part = |p: usize| match p {
                        0 => (0, lanes, rows[bi[0]], 0..common),
                        _ => (off[p - 1], off[p] - off[p - 1], rows[bi[p - 1]], common..ctx(p - 1)),
                    };

                    // (1) S[lane][j] = (0 + Σ_d q·k)·scale, one tile call
                    // per panel piece of each run, written.
                    for (l0, m, row, keys) in (0..=n_rows).map(part) {
                        for (j0, run) in cache.row_runs_in(layer, row, keys) {
                            for (p, n, kt) in run.kt_panels() {
                                let (q_l, s_l) = (&qs[l0 * d_head..], &mut ps[l0 * stride + j0 + p..]);
                                let kt_g = &kt[g * d_head * KT_PANEL..];
                                ops::gemm_strided_write(q_l, d_head, m, d_head, kt_g, KT_PANEL, n, s_l, stride, scale);
                            }
                        }
                    }

                    // (2) `softmax_base2` along each lane's row.
                    for r in 0..n_rows {
                        let lanes_r = off[r + 1] - off[r];
                        softmax_lanes(&mut ps[off[r] * stride..], stride, ctx(r), lanes_r, |l| seen(r, l));
                    }

                    // (3) O[lane] = Σ_j p·v, one tile call per run: a
                    // lane's first run writes its output, the later ones
                    // add to it. Once part 0 has run, every lane has begun.
                    let mut begun = false;
                    for (i, (l0, m, row, keys)) in (0..=n_rows).map(part).enumerate() {
                        let mut write = !begun;
                        for (j0, run) in cache.row_runs_in(layer, row, keys) {
                            let (p_l, o_l) = (&ps[l0 * stride + j0..], &mut os[l0 * d_head..]);
                            let v_g = &run.v()[g * d_head..];
                            let gemm = if write { ops::gemm_strided_write } else { ops::gemm_strided };
                            gemm(p_l, stride, m, run.keys(), v_g, kw, d_head, o_l, d_head, None);
                            (write, begun) = (false, begun || i == 0);
                        }
                    }
                    for r in 0..n_rows {
                        for l in 0..off[r + 1] - off[r] {
                            out[at(r, l)..][..d_head].copy_from_slice(&os[(off[r] + l) * d_head..][..d_head]);
                        }
                    }
                }
            }
        }
        g0 = g1;
    }
}

/// Step (2) over the first `lanes` rows of `[lane, stride]` scores, in
/// place, each lane's first `ctx` keys: its keys from `seen(lane)` on are
/// masked to `-inf`, then `p_j = e_j / Σe` with `e_j = exp2((s_j −
/// max)·log2 e)`. `max` and the divide run along the row; each `Σe` is one
/// serial chain in ascending `j`, run `SUM_LANES` lanes abreast, and the
/// exponents are taken `KEY_CHUNK` keys at a time just before those keys
/// are summed, the chains carried from chunk to chunk. A group of lanes is
/// finished before the next is begun, so its rows are still in cache for
/// the divide.
fn softmax_lanes(ps: &mut [f32], stride: usize, ctx: usize, lanes: usize, seen: impl Fn(usize) -> usize) {
    for l0 in (0..lanes).step_by(SUM_LANES) {
        let n = SUM_LANES.min(lanes - l0);
        let group = &mut ps[l0 * stride..][..(n - 1) * stride + ctx];
        let mut max = [f32::NEG_INFINITY; SUM_LANES];
        for (l, max) in max.iter_mut().enumerate().take(n) {
            let row = &mut group[l * stride..][..ctx];
            row[seen(l0 + l)..].fill(f32::NEG_INFINITY);
            *max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }
        let mut sums = [0.0; SUM_LANES];
        for j0 in (0..ctx).step_by(KEY_CHUNK) {
            let keys = j0..(j0 + KEY_CHUNK).min(ctx);
            for (l, &max) in max.iter().enumerate().take(n) {
                exp_row(&mut group[l * stride..][keys.clone()], max);
            }
            lane_sums(&mut sums, std::array::from_fn(|t| &group[t.min(n - 1) * stride..][keys.clone()]));
        }
        for (l, sum) in sums.into_iter().take(n).enumerate() {
            group[l * stride..][..ctx].iter_mut().for_each(|x| *x /= sum);
        }
    }
}

/// `row[j] = exp2((row[j] − max)·log2 e)` along one lane's scores.
fn exp_row(row: &mut [f32], max: f32) {
    for x in row {
        *x = ops::exp2((*x - max) * std::f32::consts::LOG2_E);
    }
}

/// `sums[t] += rows[t][j]` in ascending `j` for each of `SUM_LANES` rows of
/// one length, the chains side by side. (Missing lanes alias the last one:
/// summed and dropped.)
fn lane_sums(sums: &mut [f32; SUM_LANES], rows: [&[f32]; SUM_LANES]) {
    const J: usize = 8;
    // Whole chunks of `J` keys (one bounds check per row and chunk), then
    // the rest.
    let chunks = rows.map(|r| r.as_chunks::<J>().0);
    for c in 0..chunks[0].len() {
        for j in 0..J {
            for (s, ch) in sums.iter_mut().zip(&chunks) {
                *s += ch[c][j];
            }
        }
    }
    for j in chunks[0].len() * J..rows[0].len() {
        for (s, r) in sums.iter_mut().zip(&rows) {
            *s += r[j];
        }
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
    let mut out = Tensor::zeros(vec![x.dim(0), x.dim(1), w.dim(1)]);
    ops::matmul_into(x, w, &mut out);
    out
}

/// GELU (tanh approximation), used by the Megatron-style MLP.
#[must_use]
pub fn gelu(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.shape().to_vec());
    gelu_into(t, &mut out);
    out
}

/// [`gelu`] into `out` (shaped like `t`), overwriting every element.
///
/// # Panics
///
/// Panics if `out` is not shaped like `t`.
pub fn gelu_into(t: &Tensor, out: &mut Tensor) {
    assert_eq!(out.shape(), t.shape(), "gelu output shape mismatch");
    for (o, &v) in out.data_mut().iter_mut().zip(t.data()) {
        *o = 0.5 * v * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh());
    }
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
        // Page 128 ≥ the longest row (37 + 32): one run per row. A page of
        // 40 straddles the tile's 32-key panels; one of 3 leaves a partial
        // page at every row length here.
        let pages = [1, 3, 8, 16, 40, 128];
        for ((hq, hkv), page, dh, l_q) in heads.iter().flat_map(|&h| {
            pages.iter().flat_map(move |&p| {
                [8, 16, 32].into_iter().flat_map(move |dh| [1, 3, 32].map(|l_q| (h, p, dh, l_q)))
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
            // Then row 2 is re-admitted with 300 positions and more, longer
            // than one block of pages (256 positions or fewer) at every
            // page size: its runs break at a block end.
            for long in [false, true] {
                if long {
                    let n = 300 + l_q;
                    cache.insert_row_shared(2, 4, &prompt(n, 3), &(200..200 + n).collect::<Vec<_>>());
                }
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
    }

    /// Rows longer than the softmax's `KEY_CHUNK`: each lane's `Σe` chain
    /// is carried across the chunks its exponents are taken in, and the
    /// probabilities keep the unfused composition's bits, whether a row
    /// ends on a chunk boundary or inside a chunk.
    #[test]
    fn fused_attention_over_rows_longer_than_a_key_chunk_is_bitwise_the_unfused_composition() {
        for ((hq, hkv), page, l_q) in [((8, 1), 16, 1), ((8, 1), 64, 9), ((4, 4), 32, 3), ((6, 2), 40, 1)] {
            let dh = 16;
            let kw = hkv * dh;
            let mut cache = KvCache::paged(1, page);
            for (row, n) in [2 * KEY_CHUNK - l_q, KEY_CHUNK + 77, 2 * KEY_CHUNK + 300].into_iter().enumerate() {
                let kv = vec![(noise(vec![n, kw], 60 + row), noise(vec![n, kw], 70 + row))];
                cache.insert_row_shared(row, 3, &kv, &(1000 * row..1000 * row + n).collect::<Vec<_>>());
            }
            cache.append(0, &noise(vec![3, l_q, kw], 80), &noise(vec![3, l_q, kw], 81));
            assert_eq!(cache.row_lens(0), &[2 * KEY_CHUNK, KEY_CHUNK + 77 + l_q, 2 * KEY_CHUNK + 300 + l_q]);
            let q = noise(vec![3, l_q, hq * dh], 82);
            let fused = attention_over_cache(&q, &cache, 0, dh);
            let oracle = attention_unfused(&q, &cache, 0, dh);
            for (i, (a, b)) in fused.data().iter().zip(oracle.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "Hq={hq} Hkv={hkv} l_q={l_q} page={page} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_attention_scores_rows_sharing_pages_as_each_alone() {
        // Rows 0-2 repeat one 300-position context (`repeat_batch`), rows 3
        // and 4 admit one 140-token prompt (`insert_row_shared`); each then
        // writes an own tail of its own length (copying a shared tail page
        // out) and the step's `l_q` positions. A step over all five rows
        // scores each group's common pages once for all its lanes; every row
        // must come out bit for bit as the same row attended alone, in the
        // cache's row order and reversed.
        let tails = [0, 7, 3, 0, 21];
        for ((hq, hkv), page, dh, l_q) in [(8, 1), (6, 2), (4, 4)].into_iter().flat_map(|h| {
            [1, 3, 16, 40, 128]
                .into_iter()
                .flat_map(move |p| [8, 32].into_iter().flat_map(move |dh| [1, 5, 17].map(|l_q| (h, p, dh, l_q))))
        }) {
            let kw = hkv * dh;
            let mut cache = KvCache::paged(2, page);
            for li in 0..2 {
                let kv = |seed| noise(vec![1, 300, kw], seed + li);
                cache.append_rows(li, &[0], 3, &kv(1), &kv(3));
            }
            cache.repeat_batch(3, 1);
            let prompt: Vec<(Tensor, Tensor)> =
                (0..2).map(|li| (noise(vec![140, kw], 5 + li), noise(vec![140, kw], 7 + li))).collect();
            let tokens: Vec<usize> = (0..140).collect();
            cache.insert_row_shared(3, 5, &prompt, &tokens);
            cache.insert_row_shared(4, 5, &prompt, &tokens);
            for li in 0..2 {
                for (row, &n) in tails.iter().enumerate().filter(|t| *t.1 > 0) {
                    let kv = |seed| noise(vec![1, n, kw], seed + 10 * row + li);
                    cache.append_rows(li, &[row], 5, &kv(20), &kv(70));
                }
                cache.append(li, &noise(vec![5, l_q, kw], 9 + li), &noise(vec![5, l_q, kw], 11 + li));
            }
            let ctx = format!("Hq={hq} Hkv={hkv} dh={dh} l_q={l_q} page={page}");
            let whole = |n: usize| n / page * page;
            assert_eq!(cache.shared_prefix(1, &[0, 1, 2]), whole(300), "{ctx}");
            assert_eq!(cache.shared_prefix(1, &[3, 4]), whole(140), "{ctx}");
            let q = noise(vec![5, l_q, hq * dh], 13);
            for map in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]] {
                let picked: Vec<Tensor> = map.iter().map(|&r| q.slice(0, r, 1)).collect();
                let picked = Tensor::concat(&picked.iter().collect::<Vec<_>>(), 0);
                let together = attention_over_rows(&picked, &cache, &map, 1, dh);
                for (bi, &row) in map.iter().enumerate() {
                    let alone = attention_over_rows(&q.slice(0, row, 1), &cache, &[row], 1, dh);
                    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&together.slice(0, bi, 1)), bits(&alone), "{ctx} map {map:?} row {row}");
                }
            }
        }
    }

    #[test]
    fn fused_attention_scores_only_valid_queries_as_each_row_alone() {
        // Rows 0-2 share a 40-position context, rows 3-4 own theirs; each
        // then appends only its `valid` positions of a step padded to `l_q`
        // (`append_ragged`). A step over all five rows with those valid
        // counts must score each row's valid queries bit for bit as the row
        // attended alone with its padding cut off (both outputs starting
        // from the same value), leave every padded query's output as it
        // was, and read nothing for a row with none.
        for (page, dh, valid) in [(4, 8, [3, 0, 5, 1, 5]), (3, 32, [17, 9, 0, 1, 16]), (16, 8, [0, 0, 2, 0, 0])] {
            let (hq, hkv, l_q) = (8, 1, valid.iter().copied().max().unwrap_or(0));
            let kw = hkv * dh;
            let mut cache = KvCache::paged(1, page);
            cache.append_rows(0, &[0], 3, &noise(vec![1, 40, kw], 1), &noise(vec![1, 40, kw], 2));
            cache.repeat_batch(3, 1);
            cache.append_rows(0, &[3, 4], 5, &noise(vec![2, 11, kw], 3), &noise(vec![2, 11, kw], 4));
            cache.append_ragged(0, &[0, 1, 2, 3, 4], &valid, 5, &noise(vec![5, l_q, kw], 5), &noise(vec![5, l_q, kw], 6));
            let ctx = format!("dh={dh} page={page} valid={valid:?}");
            let q = noise(vec![5, l_q, hq * dh], 7);
            let mut together = Tensor::full(vec![5, l_q, hq * dh], 0.5);
            let rows = [0, 1, 2, 3, 4];
            attention_over_rows_into(&q, &cache, &rows, &valid, 0, dh, &mut together, &mut AttentionScratch::default());
            let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (row, &n) in valid.iter().enumerate() {
                let row_out = together.slice(0, row, 1);
                let (own, pad) = row_out.data().split_at(n * hq * dh);
                assert!(pad.iter().all(|&x| x == 0.5), "{ctx} row {row}: a padded query is not scored");
                if n > 0 {
                    let mut alone = Tensor::full(vec![1, n, hq * dh], 0.5);
                    let q_row = q.slice(0, row, 1).slice(1, 0, n);
                    attention_over_rows_into(&q_row, &cache, &[row], &[n], 0, dh, &mut alone, &mut AttentionScratch::default());
                    assert_eq!(bits(own), bits(alone.data()), "{ctx} row {row}");
                }
            }
        }
    }

    /// One chain over `terms` three ways: fused (`mul_add`), unfused
    /// (`acc + x * y`) and f64.
    fn three_ways(terms: impl Iterator<Item = (f32, f32)>) -> (f32, f32, f64) {
        terms.fold((0.0, 0.0, 0.0), |(f, u, e), (x, y)| (x.mul_add(y, f), u + x * y, e + f64::from(x) * f64::from(y)))
    }

    /// The attention kernel's two chains against f64, in the manner of
    /// esti-tensor's `numerics` test: a score over `d_head` = 32 (`Q·Kᵀ`
    /// through `ops::gemm_strided` over a transposed key panel) and an
    /// output over 256 and 3200 keys of softmax probabilities (`P·V` through
    /// the same entry). The tile must be a test-local `mul_add` chain's bits.
    /// Its mean |error| against f64 must be no larger than a test-local
    /// unfused `acc += a * b` chain's for the scores and the 256-key
    /// outputs; at 3200 keys a probability is ~1/3200, its products'
    /// roundings are lost in the sum's, and the fused mean came out larger
    /// on 18 of 40 seeds, so there it is printed, as every max is.
    #[test]
    fn attention_chains_against_f64() {
        const DH: usize = 32;
        let mut rng = StdRng::seed_from_u64(47);
        let report = |what: &str, kernel: &[f32], ways: &[(f32, f32, f64)], compare: bool| {
            let same = kernel.iter().zip(ways).all(|(k, w)| k.to_bits() == w.0.to_bits());
            assert!(same, "{what}: the tile is not the fused chain's bits");
            let err = |x: f32, e: f64| (f64::from(x) - e).abs();
            let stats = |pick: fn(&(f32, f32, f64)) -> f32| {
                let errs = ways.iter().map(|w| err(pick(w), w.2));
                (errs.clone().fold(0.0, f64::max), errs.sum::<f64>() / ways.len() as f64)
            };
            let ((f_max, f_mean), (u_max, u_mean)) = (stats(|w| w.0), stats(|w| w.1));
            println!("{what:>14}: fused max {f_max:.3e} mean {f_mean:.3e}, unfused max {u_max:.3e} mean {u_mean:.3e}");
            assert!(!compare || f_mean <= u_mean, "{what}: fused mean |error| {f_mean:e} > unfused {u_mean:e}");
        };

        // Scores: 64 query lanes against 512 keys, the kernel's `[lane, d]`
        // queries and `[d, key]` transposed keys, scale 1.
        let (keys, lanes) = (512, 64);
        let (q, k) = (noise(vec![lanes, DH], 47), noise(vec![keys, DH], 48));
        let kt = k.transpose();
        let mut scores = vec![0.0; lanes * keys];
        ops::gemm_strided(q.data(), DH, lanes, DH, kt.data(), keys, keys, &mut scores, keys, Some(1.0));
        let (mut kernel, mut ways) = (Vec::new(), Vec::new());
        for (l, row) in scores.chunks(keys).enumerate() {
            for (j, &s) in row.iter().enumerate() {
                let (q_l, k_j) = (&q.data()[l * DH..][..DH], &k.data()[j * DH..][..DH]);
                kernel.push(s);
                ways.push(three_ways(q_l.iter().copied().zip(k_j.iter().copied())));
            }
        }
        report("scores d=32", &kernel, &ways, true);

        // Outputs: `LANES` lanes of probabilities (`softmax_base2` of unit
        // normal scores, lane-major) against `[key, DH]` values, the tile's
        // whole width.
        const LANES: usize = 4;
        for (n, sets) in [(256, 128), (3200, 8)] {
            let (mut kernel, mut ways) = (Vec::new(), Vec::new());
            for set in 0..sets {
                let p = ops::softmax_base2(&Tensor::randn(&mut rng, vec![LANES, n], 1.0));
                let v = noise(vec![n, DH], 100 + set);
                let mut out = vec![0.0; LANES * DH];
                ops::gemm_strided(p.data(), n, LANES, n, v.data(), DH, DH, &mut out, DH, None);
                for (r, row) in out.chunks(DH).enumerate() {
                    for (d, &o) in row.iter().enumerate() {
                        kernel.push(o);
                        ways.push(three_ways((0..n).map(|j| (p.data()[r * n + j], v.data()[j * DH + d]))));
                    }
                }
            }
            report(&format!("P·V {n} keys"), &kernel, &ways, n == 256);
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
            cache.append_rows(0, &[row], 4, &k.into_reshape(vec![1, len, dh]), &v.into_reshape(vec![1, len, dh]));
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
