//! The correctness oracle, run outside every timed section: a single chip.
//!
//! What the system served is teacher-forced through a 1x1x1 mesh of the same
//! weight format: fed the same history, the single chip's greedy pick must be
//! the served token at every checked position. Sums re-associate across
//! meshes, so two meshes cannot be asked to order an exact tie the same way:
//! a served token counts as the single chip's pick when the single chip
//! scores it within `TIE_WIDTH` of its own best. Teacher forcing keeps one
//! such tie from failing the rest of the stream.

use esti_core::layout::{AttnSharding, FfnLayout};
use esti_model::ReferenceModel;
use esti_runtime::{EngineError, PartitionedEngine, WeightFormat};

use crate::common::layout;

const CHUNK: usize = 256;

/// The logit gap below which two picks are the same pick: float
/// re-association moves these logits (O(10), sums over at most 1024 terms) by
/// about 1e-5, a sharding or gather bug by O(1). Every gap observed so far,
/// f32 and int8, is exactly 0.
const TIE_WIDTH: f32 = 1e-3;

pub struct Oracle {
    engine: PartitionedEngine,
    vocab: usize,
}

/// What one check found: positions where the served token is not the single
/// chip's pick, and the largest gap between the two seen anywhere.
pub struct Verdict {
    pub checked: usize,
    pub wrong: usize,
    pub largest_gap: f32,
}

impl Oracle {
    pub fn new(model: &ReferenceModel, fmt: WeightFormat) -> Self {
        let single = layout(FfnLayout::WeightStationary1D, AttnSharding::Head, (1, 1, 1));
        Oracle { engine: PartitionedEngine::new(model, single, fmt), vocab: model.config().vocab }
    }

    /// Feeds `history` to the single chip and checks every `(position,
    /// token)` of `served`: "after consuming `history[..=position]` the
    /// system under test picked `token`".
    pub fn check(
        &mut self,
        history: &[usize],
        served: &[(usize, usize)],
    ) -> Result<Verdict, EngineError> {
        self.engine.reset();
        let v = self.vocab;
        let mut verdict = Verdict { checked: served.len(), wrong: 0, largest_gap: 0.0 };
        for (ci, chunk) in history.chunks(CHUNK).enumerate() {
            let logits = self.engine.try_prefill(&[chunk.to_vec()])?;
            let start = ci * CHUNK;
            for &(pos, tok) in served.iter().filter(|c| (start..start + chunk.len()).contains(&c.0))
            {
                let row = &logits.data()[(pos - start) * v..(pos - start + 1) * v];
                let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let gap = best - row[tok];
                verdict.largest_gap = verdict.largest_gap.max(gap);
                verdict.wrong += usize::from(gap > TIE_WIDTH);
            }
        }
        Ok(verdict)
    }

    /// Checks one served stream: `prompt`, then the tokens generated from it.
    pub fn check_stream(
        &mut self,
        prompt: &[usize],
        generated: &[usize],
    ) -> Result<Verdict, EngineError> {
        let history: Vec<usize> =
            prompt.iter().chain(&generated[..generated.len() - 1]).copied().collect();
        let served: Vec<(usize, usize)> =
            generated.iter().enumerate().map(|(j, &t)| (prompt.len() - 1 + j, t)).collect();
        self.check(&history, &served)
    }
}
