//! How a chip stores its weights: the storage format ([`WeightFormat`]) and
//! a stored shard ([`ShardMat`]). The engine cuts the shards from its
//! schedule's specs.

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

/// A stored weight shard, or one source rank's part of an all-gathered one:
/// dense f32/bf16 values, or genuine int8 with per-column scales.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMat {
    /// Dense floating-point storage.
    Dense(Tensor),
    /// int8 weight-only quantization (Section 3.6).
    Int8(QuantizedMatrix),
}

impl ShardMat {
    /// `[B, L, E] × shard` into `out` (`[B, L, D]`), overwriting it,
    /// running the int8 kernel when the shard is quantized.
    pub(crate) fn mm3_into(&self, x: &Tensor, out: &mut Tensor) {
        match self {
            ShardMat::Dense(w) => {
                out.data_mut().fill(0.0);
                ops::matmul_into(x, w, out);
            }
            ShardMat::Int8(q) => q.matmul_into(x, out),
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
        }
    }

    /// The dense floating-point view (dequantizing if int8) — used by the
    /// weight-gathered dataflows, which communicate shards as tensors.
    #[must_use]
    pub fn dense(&self) -> Tensor {
        match self {
            ShardMat::Dense(w) => w.clone(),
            ShardMat::Int8(q) => q.dequantize(),
        }
    }

    /// Stored bytes of this shard: 4 per f32 element, or 1 per int8 value
    /// plus 4 per scale — the asymmetry the memory model charges for.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            ShardMat::Dense(w) => w.numel() * 4,
            ShardMat::Int8(q) => q.storage_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_model::{ModelConfig, Weights};

    #[test]
    fn weight_formats_round() {
        let wq = &Weights::random(&ModelConfig::tiny(), 9).layers[0].wq;
        let [exact, bf16, int8] = [WeightFormat::Exact, WeightFormat::Bf16, WeightFormat::Int8].map(|f| f.apply(wq));
        assert!(bf16.dense().approx_eq(&exact.dense(), 0.02));
        assert!(int8.dense().approx_eq(&exact.dense(), 0.02));
        assert_ne!(bf16.dense(), exact.dense());
        assert_ne!(int8.dense(), exact.dense());
        // int8 stores genuinely quantized values, at ~4x less space than f32.
        assert!(matches!(int8, ShardMat::Int8(_)));
        assert!(int8.storage_bytes() * 3 < exact.storage_bytes());
    }
}
