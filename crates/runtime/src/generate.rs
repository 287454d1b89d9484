//! The serving loop: one prefill pass + autoregressive generation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_tensor::sample::{sample_tokens, Sampling};

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
    /// Panics on empty or ragged prompts, a sample count of zero, an
    /// expanded batch that violates the layout's divisibility requirements,
    /// or an [`crate::EngineError`].
    pub fn generate(&mut self, prompts: &[Vec<usize>], opts: &GenerateOptions) -> Vec<Vec<usize>> {
        assert!(!prompts.is_empty(), "empty prompt batch");
        assert!(opts.n_samples > 0, "n_samples must be positive");
        let len = prompts[0].len();
        assert!(len > 0, "empty prompt");
        assert!(prompts.iter().all(|p| p.len() == len), "ragged prompt batch");
        self.reset();

        // Prefill the whole prompt in one pass.
        let logits = self.try_prefill(prompts).unwrap_or_else(|e| panic!("prefill failed: {e}")); // [B, l, V]
        let v = self.config().vocab;
        let mut logits = logits.slice(1, len - 1, 1).into_reshape(vec![prompts.len(), v]);

        // Optionally expand each prompt into multiple decode streams.
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
