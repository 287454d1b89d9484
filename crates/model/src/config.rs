//! Model hyperparameters and shape accounting.

use esti_hal::DType;

/// Attention variant (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKind {
    /// Standard multihead attention: `n_heads` key/value heads.
    MultiHead,
    /// Multiquery attention: a single key/value head shared by all query
    /// heads (Shazeer 2019; used by PaLM). Shrinks the KV cache by a factor
    /// of `n_heads`.
    MultiQuery,
}

/// Transformer block formulation (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// PaLM's parallel formulation: `y = x + attn(ln(x)) + mlp(ln(x))`, one
    /// layernorm and *one* collective pair per layer.
    Parallel,
    /// The standard serialized formulation:
    /// `x = x + attn(ln1(x)); y = x + mlp(ln2(x))`, two collective pairs.
    Serial,
}

/// Positional-information scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionKind {
    /// Rotary positional embeddings applied to Q and K (PaLM).
    Rope,
    /// Learned absolute position embeddings added to the input
    /// (Megatron-Turing NLG).
    Learned,
    /// No positional information (NoPE) — an ablation control.
    None,
}

/// Feedforward variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlpKind {
    /// SwiGLU (PaLM): three `E × F` matrices (gate, up, down).
    SwiGlu,
    /// Classic two-matrix MLP with GELU (Megatron-Turing NLG).
    Gelu,
}

/// A decoder-only Transformer configuration.
///
/// Named constructors provide every model evaluated in the paper; custom
/// configurations can be built directly since all fields are public.
///
/// # Examples
///
/// ```
/// use esti_model::ModelConfig;
///
/// let m = ModelConfig::palm_62b();
/// assert_eq!(m.n_layers, 64);
/// assert_eq!(m.d_ff, 4 * m.d_model);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Number of Transformer layers.
    pub n_layers: usize,
    /// Model (embedding) dimension `E`/`d_model`.
    pub d_model: usize,
    /// Feedforward intermediate dimension `F`/`d_ff`.
    pub d_ff: usize,
    /// Number of query heads `H`.
    pub n_heads: usize,
    /// Dimension per head.
    pub d_head: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Attention variant.
    pub attention: AttentionKind,
    /// Block formulation.
    pub block: BlockKind,
    /// Feedforward variant.
    pub mlp: MlpKind,
    /// Positional-information scheme.
    pub position: PositionKind,
    /// Maximum sequence length (sizes the learned position table; RoPE
    /// models use it only as a serving-time bound).
    pub max_seq: usize,
}

impl ModelConfig {
    /// PaLM 540B (Chowdhery et al. 2022; Table D.1): 118 layers,
    /// `d_model` 18432, `d_ff` 73728, 48 heads of 256, multiquery
    /// attention, parallel blocks, SwiGLU, 256k vocabulary.
    #[must_use]
    pub fn palm_540b() -> Self {
        ModelConfig {
            name: "PaLM 540B".to_owned(),
            n_layers: 118,
            d_model: 18432,
            d_ff: 73728,
            n_heads: 48,
            d_head: 256,
            vocab: 256_000,
            attention: AttentionKind::MultiQuery,
            block: BlockKind::Parallel,
            mlp: MlpKind::SwiGlu,
            position: PositionKind::Rope,
            max_seq: 2048,
        }
    }

    /// PaLM 540B with the head count padded from 48 to 64 so that heads
    /// partition evenly on 64+ chips (Section 4, "Methodology"). Adds ~18B
    /// parameters, as the paper notes.
    #[must_use]
    pub fn palm_540b_padded() -> Self {
        let mut m = ModelConfig::palm_540b();
        m.name = "PaLM 540B (64 heads)".to_owned();
        m.n_heads = 64;
        m
    }

    /// The multihead-attention control variant of Section 4.2: `d_head`
    /// halved to 128 to keep attention parameter count equal.
    #[must_use]
    pub fn palm_540b_multihead() -> Self {
        let mut m = ModelConfig::palm_540b();
        m.name = "PaLM 540B (multihead)".to_owned();
        m.attention = AttentionKind::MultiHead;
        m.d_head = 128;
        m
    }

    /// PaLM 62B: 64 layers, `d_model` 8192, 32 heads of 256.
    #[must_use]
    pub fn palm_62b() -> Self {
        ModelConfig {
            name: "PaLM 62B".to_owned(),
            n_layers: 64,
            d_model: 8192,
            d_ff: 32768,
            n_heads: 32,
            d_head: 256,
            vocab: 256_000,
            attention: AttentionKind::MultiQuery,
            block: BlockKind::Parallel,
            mlp: MlpKind::SwiGlu,
            position: PositionKind::Rope,
            max_seq: 2048,
        }
    }

    /// PaLM 8B: 32 layers, `d_model` 4096, 16 heads of 256.
    #[must_use]
    pub fn palm_8b() -> Self {
        ModelConfig {
            name: "PaLM 8B".to_owned(),
            n_layers: 32,
            d_model: 4096,
            d_ff: 16384,
            n_heads: 16,
            d_head: 256,
            vocab: 256_000,
            attention: AttentionKind::MultiQuery,
            block: BlockKind::Parallel,
            mlp: MlpKind::SwiGlu,
            position: PositionKind::Rope,
            max_seq: 2048,
        }
    }

    /// Megatron-Turing NLG 530B (Smith et al. 2022; Table D.1): 105 layers,
    /// `d_model` 20480, `d_ff` 81920, 128 heads of 160, multihead
    /// attention, serial blocks, two-matrix GELU MLP.
    #[must_use]
    pub fn mt_nlg_530b() -> Self {
        ModelConfig {
            name: "MT-NLG 530B".to_owned(),
            n_layers: 105,
            d_model: 20480,
            d_ff: 81920,
            n_heads: 128,
            d_head: 160,
            vocab: 51_200,
            attention: AttentionKind::MultiHead,
            block: BlockKind::Serial,
            mlp: MlpKind::Gelu,
            position: PositionKind::Learned,
            max_seq: 2048,
        }
    }

    /// All four paper-scale models, for sweeps.
    #[must_use]
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            ModelConfig::palm_8b(),
            ModelConfig::palm_62b(),
            ModelConfig::palm_540b(),
            ModelConfig::mt_nlg_530b(),
        ]
    }

    /// A tiny structurally-PaLM config for functional tests: multiquery,
    /// parallel block, SwiGLU.
    #[must_use]
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny".to_owned(),
            n_layers: 2,
            d_model: 16,
            d_ff: 32,
            n_heads: 4,
            d_head: 8,
            vocab: 41,
            attention: AttentionKind::MultiQuery,
            block: BlockKind::Parallel,
            mlp: MlpKind::SwiGlu,
            position: PositionKind::Rope,
            max_seq: 64,
        }
    }

    /// A tiny structurally-Megatron config: multihead, serial block, GELU.
    #[must_use]
    pub fn tiny_multihead() -> Self {
        ModelConfig {
            name: "tiny-mh".to_owned(),
            n_layers: 2,
            d_model: 16,
            d_ff: 32,
            n_heads: 4,
            d_head: 8,
            vocab: 41,
            attention: AttentionKind::MultiHead,
            block: BlockKind::Serial,
            mlp: MlpKind::Gelu,
            position: PositionKind::Learned,
            max_seq: 64,
        }
    }

    /// Number of key/value heads: `n_heads` for multihead, 1 for multiquery.
    #[must_use]
    pub fn n_kv_heads(&self) -> usize {
        match self.attention {
            AttentionKind::MultiHead => self.n_heads,
            AttentionKind::MultiQuery => 1,
        }
    }

    /// Width of the fused attention output, `n_heads * d_head` (may differ
    /// from `d_model`, e.g. 12288 vs 18432 on PaLM 540B).
    #[must_use]
    pub fn attn_dim(&self) -> usize {
        self.n_heads * self.d_head
    }

    /// Number of `E × F`-shaped matrices in the MLP.
    #[must_use]
    pub fn mlp_matrices(&self) -> usize {
        match self.mlp {
            MlpKind::SwiGlu => 3,
            MlpKind::Gelu => 2,
        }
    }

    /// Parameters in one Transformer layer (attention + MLP + norms).
    #[must_use]
    pub fn params_per_layer(&self) -> u64 {
        let e = self.d_model as u64;
        let f = self.d_ff as u64;
        let qo = 2 * e * self.attn_dim() as u64; // W_Q and W_O
        let kv = 2 * e * (self.n_kv_heads() * self.d_head) as u64; // W_K and W_V
        let mlp = self.mlp_matrices() as u64 * e * f;
        let norms = match self.block {
            BlockKind::Parallel => e,
            BlockKind::Serial => 2 * e,
        };
        qo + kv + mlp + norms
    }

    /// Embedding parameters (input/output embeddings are shared,
    /// PaLM-style), plus the learned position table if the model has one.
    #[must_use]
    pub fn embedding_params(&self) -> u64 {
        let pos = match self.position {
            PositionKind::Rope | PositionKind::None => 0,
            PositionKind::Learned => self.max_seq as u64 * self.d_model as u64,
        };
        self.vocab as u64 * self.d_model as u64 + pos
    }

    /// Total parameter count `N`.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        self.n_layers as u64 * self.params_per_layer()
            + self.embedding_params()
            + self.d_model as u64 // final layernorm
    }

    /// Matmul FLOPs per token, `2N` (Kaplan et al. 2020; Section 2). This is
    /// the numerator of the paper's MFU definition and excludes the
    /// attention dot products.
    #[must_use]
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.param_count() as f64
    }

    /// Attention-einsum FLOPs per token at a given context length: the
    /// `QK^T` and `AV` products, `4 · n_layers · H · d_head · L` (counted
    /// with multiply+add = 2). Excluded from MFU but included in latency.
    #[must_use]
    pub fn attn_flops_per_token(&self, context_len: usize) -> f64 {
        4.0 * self.n_layers as f64
            * self.n_heads as f64
            * self.d_head as f64
            * context_len as f64
    }

    /// Bytes of model weights at a given storage type.
    #[must_use]
    pub fn weight_bytes(&self, dtype: DType) -> f64 {
        self.param_count() as f64 * dtype.bytes_f()
    }

    /// KV-cache bytes for *one token of one sequence* across all layers
    /// (key + value), at the given storage type. Multiply by `B × L` for a
    /// batch. Multiquery attention divides this by `n_heads` relative to
    /// multihead (Section 3.3).
    #[must_use]
    pub fn kv_bytes_per_token(&self, dtype: DType) -> f64 {
        2.0 * self.n_layers as f64
            * (self.n_kv_heads() * self.d_head) as f64
            * dtype.bytes_f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() / b.abs() <= rel
    }

    #[test]
    fn palm_540b_param_count() {
        let n = ModelConfig::palm_540b().param_count() as f64;
        assert!(close(n, 540.35e9, 0.005), "540B params: {n:.3e}");
    }

    #[test]
    fn palm_padding_adds_about_18b() {
        let base = ModelConfig::palm_540b().param_count() as f64;
        let padded = ModelConfig::palm_540b_padded().param_count() as f64;
        let added = padded - base;
        assert!(close(added, 18e9, 0.05), "padding added {added:.3e}");
    }

    #[test]
    fn palm_62b_param_count() {
        let n = ModelConfig::palm_62b().param_count() as f64;
        assert!(close(n, 62.5e9, 0.01), "62B params: {n:.3e}");
    }

    #[test]
    fn palm_8b_param_count() {
        let n = ModelConfig::palm_8b().param_count() as f64;
        assert!(close(n, 8.63e9, 0.01), "8B params: {n:.3e}");
    }

    #[test]
    fn mt_nlg_param_count() {
        let n = ModelConfig::mt_nlg_530b().param_count() as f64;
        assert!(close(n, 530e9, 0.01), "530B params: {n:.3e}");
    }

    #[test]
    fn multihead_variant_keeps_attention_params() {
        // Section 4.2: d_head shrinks 256 -> 128 so that attention parameter
        // count stays constant between the MQ and MH variants.
        let mq = ModelConfig::palm_540b();
        let mh = ModelConfig::palm_540b_multihead();
        let attn = |m: &ModelConfig| {
            2 * m.d_model as u64 * m.attn_dim() as u64
                + 2 * m.d_model as u64 * (m.n_kv_heads() * m.d_head) as u64
        };
        // MH: Q+O = 2*E*48*128, K+V = 2*E*48*128 -> total 4*E*6144
        // MQ: Q+O = 2*E*48*256 = 4*E*6144, K+V = 2*E*256 (small)
        let (a_mq, a_mh) = (attn(&mq) as f64, attn(&mh) as f64);
        assert!(close(a_mh, a_mq, 0.05), "attn params: mq {a_mq:.3e} mh {a_mh:.3e}");
    }

    #[test]
    fn multiquery_kv_cache_is_n_heads_smaller() {
        let mq = ModelConfig::palm_540b();
        let mut mh = mq.clone();
        mh.attention = AttentionKind::MultiHead;
        let ratio = mh.kv_bytes_per_token(DType::Bf16) / mq.kv_bytes_per_token(DType::Bf16);
        assert_eq!(ratio, mq.n_heads as f64);
    }

    #[test]
    fn kv_cache_headline_number() {
        // Section 2.1: for a 500B+ multihead model at batch 512 and context
        // 2048, the KV cache totals ~3TB. Check with the MH variant of PaLM
        // (d_head 128): 2*118*48*128*2B * 512 * 2048 = 3.05e12.
        let mh = ModelConfig::palm_540b_multihead();
        let total = mh.kv_bytes_per_token(DType::Bf16) * 512.0 * 2048.0;
        assert!(close(total, 3e12, 0.1), "KV cache total {total:.3e}");
    }

    #[test]
    fn flops_per_token_is_2n() {
        let m = ModelConfig::palm_8b();
        assert_eq!(m.flops_per_token(), 2.0 * m.param_count() as f64);
    }

    #[test]
    fn attn_flops_scale_with_context() {
        let m = ModelConfig::palm_540b();
        assert_eq!(
            m.attn_flops_per_token(2048),
            2.0 * m.attn_flops_per_token(1024)
        );
        // Attention flops are small relative to matmul flops at ctx 2048.
        assert!(m.attn_flops_per_token(2048) < 0.05 * m.flops_per_token());
    }

    #[test]
    fn weight_bytes_by_dtype() {
        let m = ModelConfig::palm_62b();
        assert_eq!(m.weight_bytes(DType::Int8), m.weight_bytes(DType::Bf16) / 2.0);
        assert_eq!(m.weight_bytes(DType::F32), m.weight_bytes(DType::Bf16) * 2.0);
    }

    #[test]
    fn tiny_configs_are_consistent() {
        for m in [ModelConfig::tiny(), ModelConfig::tiny_multihead()] {
            assert!(m.param_count() > 0);
            assert_eq!(m.attn_dim(), m.n_heads * m.d_head);
            assert!(m.n_kv_heads() <= m.n_heads);
        }
        assert_eq!(ModelConfig::tiny().n_kv_heads(), 1);
        assert_eq!(ModelConfig::tiny_multihead().n_kv_heads(), 4);
    }
}
