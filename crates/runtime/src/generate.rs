//! The serving loop: chunked prefill + autoregressive generation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_tensor::sample::{sample_tokens, Sampling};
use esti_tensor::Tensor;

use crate::engine::PartitionedEngine;

/// Options for [`PartitionedEngine::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateOptions {
    /// Tokens to generate per sequence.
    pub max_new_tokens: usize,
    /// Sampling method for each decode step.
    pub sampling: Sampling,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
    /// If set, prefill is run in chunks of this many tokens (incremental
    /// prefill, Section 3.5 / FasterTransformer); `None` processes the
    /// whole prompt in one pass.
    pub prefill_chunk: Option<usize>,
    /// Samples generated per prompt (Section 4.4's low-latency recipe:
    /// prefill once, expand the KV cache, decode `n` samples per prompt).
    /// 1 = plain generation.
    pub n_samples: usize,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        GenerateOptions {
            max_new_tokens: 8,
            sampling: Sampling::Greedy,
            seed: 0,
            prefill_chunk: None,
            n_samples: 1,
        }
    }
}

impl PartitionedEngine {
    /// Prefills `prompts` (equal-length sequences) and generates
    /// `opts.max_new_tokens` tokens per sequence, returning only the
    /// generated tokens. With `opts.n_samples > 1`, each prompt is
    /// prefilled once and decoded `n_samples` times via KV-cache expansion
    /// (Section 4.4); the output holds each prompt's samples adjacently.
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged prompts, a chunk size or sample count of
    /// zero, an expanded batch that violates the layout's divisibility
    /// requirements, or an [`crate::EngineError`].
    // Vetted expect: prompts are asserted non-empty above, so at least
    // one prefill chunk always runs.
    #[allow(clippy::expect_used)]
    pub fn generate(&mut self, prompts: &[Vec<usize>], opts: &GenerateOptions) -> Vec<Vec<usize>> {
        assert!(!prompts.is_empty(), "empty prompt batch");
        assert!(opts.n_samples > 0, "n_samples must be positive");
        let len = prompts[0].len();
        assert!(len > 0, "empty prompt");
        assert!(prompts.iter().all(|p| p.len() == len), "ragged prompt batch");
        self.reset();

        // Prefill, optionally in chunks.
        let chunk = opts.prefill_chunk.unwrap_or(len);
        assert!(chunk > 0, "prefill chunk must be positive");
        let mut last_logits: Option<Tensor> = None;
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let chunk_tokens: Vec<Vec<usize>> =
                prompts.iter().map(|p| p[start..end].to_vec()).collect();
            let logits = self
                .try_prefill(&chunk_tokens)
                .unwrap_or_else(|e| panic!("prefill failed: {e}")); // [B, l, V]
            let l = end - start;
            let v = self.config().vocab;
            last_logits =
                Some(logits.slice(1, l - 1, 1).into_reshape(vec![prompts.len(), v]));
            start = end;
        }

        // Optionally expand each prompt into multiple decode streams.
        let mut logits = last_logits.expect("at least one prefill chunk");
        if opts.n_samples > 1 {
            self.expand_batch(opts.n_samples);
            logits = logits.repeat_interleave(0, opts.n_samples);
        }

        // Decode loop.
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); prompts.len() * opts.n_samples];
        for _ in 0..opts.max_new_tokens {
            let next = sample_tokens(&mut rng, &logits, opts.sampling);
            for (out, &t) in outputs.iter_mut().zip(&next) {
                out.push(t);
            }
            logits = self.try_decode_step(&next).unwrap_or_else(|e| panic!("decode step failed: {e}"));
        }
        outputs
    }
}
