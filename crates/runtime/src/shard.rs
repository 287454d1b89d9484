//! How a chip stores its weights: the storage format ([`WeightFormat`]).
//! Every format stores a shard once, when the engine cuts it from its
//! schedule's specs, as a [`PackedMatrix`] in panel order — the form the
//! GEMM tile reads and a weight all-gather moves.

use esti_tensor::{bf16, PackedMatrix, Tensor};

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
    /// Builds the stored, packed form of a weight matrix.
    #[must_use]
    pub fn apply(self, w: &Tensor) -> PackedMatrix {
        match self {
            WeightFormat::Exact => PackedMatrix::pack(w),
            WeightFormat::Bf16 => PackedMatrix::pack(&bf16::quantize_tensor(w)),
            WeightFormat::Int8 => PackedMatrix::quantize(w),
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
        assert!(bf16.unpack().approx_eq(&exact.unpack(), 0.02));
        assert!(int8.unpack().approx_eq(&exact.unpack(), 0.02));
        assert_ne!(bf16.unpack(), exact.unpack());
        assert_ne!(int8.unpack(), exact.unpack());
        // int8 stores genuinely quantized values, at ~4x less space than f32.
        assert!(int8.scales().is_some());
        assert!(int8.storage_bytes() * 3 < exact.storage_bytes());
    }
}
