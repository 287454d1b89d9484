//! Partitioning layouts and their communication volumes.
//!
//! Feedforward layouts (Section 3.2):
//!
//! * **1D weight-stationary** — `EF_xyz` / `F_xyz E` (Megatron-style): one
//!   all-gather + reduce-scatter pair of the *full* `BLE` activation per
//!   layer; communication constant in chip count.
//! * **2D weight-stationary** — `E_x F_yz`: activations aggregate
//!   alternately over `x` and `yz`, communication
//!   `2BL(E/X + F/YZ)`, optimal at `X = √(n·E/F)` so time scales as
//!   `1/√n` (Appendix A.2.1).
//! * **Weight-gathered** (X / XY / XYZ): weights start in `E_x F_yz` and are
//!   all-gathered over `N` chips just before each einsum, in exchange for
//!   activation traffic dropping by `N` (Appendix A.2.2, Figure 3).
//!
//! Attention shardings (Section 3.3): head-sharded (the classic layout,
//! matching the feedforward partitioning) or batch-sharded (the paper's
//! optimized multiquery layout, which pays two small all-to-alls to divide
//! the KV cache across chips).

use esti_model::{BlockKind, ModelConfig};

/// Logical mesh factorization `X × Y × Z = n_chips` used by a layout.
///
/// The factors are *logical*: a physically `4×4×4` slice may be viewed as
/// `8×8×1` when a layout calls for it (the torus supports such foldings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshFactors {
    /// Partitions along the logical `x` axis (shards `d_model` in 2D WS).
    pub x: usize,
    /// Partitions along the logical `y` axis.
    pub y: usize,
    /// Partitions along the logical `z` axis.
    pub z: usize,
}

impl MeshFactors {
    /// Creates mesh factors.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    #[must_use]
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "mesh factors must be positive");
        MeshFactors { x, y, z }
    }

    /// Total chips `X·Y·Z`.
    #[must_use]
    pub const fn n_chips(self) -> usize {
        self.x * self.y * self.z
    }

    /// The `Y·Z` product that shards `d_ff` in the 2D layouts.
    #[must_use]
    pub const fn yz(self) -> usize {
        self.y * self.z
    }
}

/// How far weights are gathered in a weight-gathered layout (Section 3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GatherExtent {
    /// all-gather(x): weights gathered over `X` chips.
    X,
    /// all-gather(xy): over `X·Y` chips.
    Xy,
    /// all-gather(xyz): over all chips; activations fully stationary.
    Xyz,
}

impl GatherExtent {
    /// All extents, in increasing gather size.
    pub const ALL: [GatherExtent; 3] = [GatherExtent::X, GatherExtent::Xy, GatherExtent::Xyz];

    /// Number of chips `N` the weights are gathered over.
    #[must_use]
    pub fn n_gather(self, mesh: MeshFactors) -> usize {
        match self {
            GatherExtent::X => mesh.x,
            GatherExtent::Xy => mesh.x * mesh.y,
            GatherExtent::Xyz => mesh.n_chips(),
        }
    }

    /// Number of torus axes the weight all-gather runs over.
    #[must_use]
    pub const fn gather_axes(self) -> u32 {
        match self {
            GatherExtent::X => 1,
            GatherExtent::Xy => 2,
            GatherExtent::Xyz => 3,
        }
    }
}

/// Feedforward-layer partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfnLayout {
    /// 1D weight-stationary (Section 3.2.1).
    WeightStationary1D,
    /// 2D weight-stationary (Section 3.2.2).
    WeightStationary2D,
    /// Weight-gathered over the given extent (Section 3.2.3).
    WeightGathered(GatherExtent),
}

impl FfnLayout {
    /// Short display name matching the paper's tables ("WS 1D", "WS 2D",
    /// "WG X", "WG XY", "WG XYZ").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FfnLayout::WeightStationary1D => "WS 1D",
            FfnLayout::WeightStationary2D => "WS 2D",
            FfnLayout::WeightGathered(GatherExtent::X) => "WG X",
            FfnLayout::WeightGathered(GatherExtent::Xy) => "WG XY",
            FfnLayout::WeightGathered(GatherExtent::Xyz) => "WG XYZ",
        }
    }
}

/// Attention-layer sharding (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttnSharding {
    /// Q/K/V partitioned over the heads dimension (Figure 4a/4b). For
    /// multiquery attention this replicates the single KV head on every
    /// chip (the "baseline multiquery" of Section 4.2).
    Head,
    /// Q/K/V partitioned over the batch dimension (Figure 4c) — the
    /// paper's optimized multiquery layout; costs two all-to-alls.
    Batch,
}

impl AttnSharding {
    /// Display name used in the tables ("Head" / "Batch").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttnSharding::Head => "Head",
            AttnSharding::Batch => "Batch",
        }
    }
}

/// A complete per-phase partitioning: feedforward layout, attention
/// sharding, and the logical mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    /// Feedforward strategy.
    pub ffn: FfnLayout,
    /// Attention sharding.
    pub attn: AttnSharding,
    /// Logical mesh factorization.
    pub mesh: MeshFactors,
}

/// One collective's contribution to a layer's communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommPiece {
    /// What the bytes are for (reporting).
    pub label: &'static str,
    /// Collective kind (determines the time formula).
    pub kind: PieceKind,
    /// Per-chip volume in *elements* (all-gather: output; reduce-scatter:
    /// input; all-to-all: payload) — multiply by dtype width for bytes.
    pub elements: f64,
    /// Torus axes the collective runs over (bandwidth scales with this).
    pub axes: u32,
    /// Group size `K` (the `(K-1)/K` factor; `K = 1` means free).
    pub group: f64,
    /// True if the volume is weights (stored dtype) rather than
    /// activations (bf16).
    pub is_weights: bool,
}

/// Collective kind of a [`CommPiece`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PieceKind {
    /// all-gather / reduce-scatter (same cost formula).
    GatherScatter,
    /// all-to-all (≈4x cheaper per byte on a ring).
    AllToAll,
}

impl Layout {
    /// Optimal 2D weight-stationary mesh for `n_chips` chips and the given
    /// model dimensions: `X ≈ √(n·E/F)` rounded to the best power-of-two
    /// divisor (Appendix A.2.1; for `F = 4E` this is `X = ½√n`).
    #[must_use]
    pub fn ws2d_mesh(n_chips: usize, d_model: usize, d_ff: usize) -> MeshFactors {
        let best_x = (1..=n_chips)
            .filter(|x| n_chips.is_multiple_of(*x))
            .min_by(|&a, &b| {
                let cost = |x: usize| {
                    d_model as f64 / x as f64 + d_ff as f64 / (n_chips / x) as f64
                };
                cost(a).partial_cmp(&cost(b)).expect("finite costs")
            })
            .expect("n_chips >= 1");
        let yz = n_chips / best_x;
        let (y, z) = balanced_split(yz);
        MeshFactors::new(best_x, y, z)
    }

    /// The 1D weight-stationary mesh: everything shards `d_ff`.
    #[must_use]
    pub fn ws1d_mesh(n_chips: usize) -> MeshFactors {
        let (y, z) = balanced_split(n_chips);
        MeshFactors::new(1, y, z)
    }

    /// 2D weight-stationary layout with head-sharded attention — the
    /// paper's default for prefill at small batch.
    #[must_use]
    pub fn ws2d(model: &ModelConfig, n_chips: usize) -> Layout {
        Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: Layout::ws2d_mesh(n_chips, model.d_model, model.d_ff),
        }
    }

    /// Communication pieces for one Transformer layer at `batch_tokens`
    /// (`B·L`) tokens per forward pass.
    ///
    /// The parallel block (Section 3.4) needs one all-gather +
    /// reduce-scatter pair per aggregation axis; the serialized block emits
    /// each activation piece twice. Batch-sharded attention adds its two
    /// all-to-alls (Figure 5b).
    #[must_use]
    pub fn layer_comm(&self, model: &ModelConfig, batch_tokens: f64) -> Vec<CommPiece> {
        let mut pieces = Vec::new();
        let e = model.d_model as f64;
        let f = model.d_ff as f64;
        let n = self.mesh.n_chips() as f64;
        let bl = batch_tokens;
        let serial_factor = match model.block {
            BlockKind::Parallel => 1.0,
            BlockKind::Serial => 2.0,
        };
        match self.ffn {
            FfnLayout::WeightStationary1D => {
                for label in ["acts all-gather", "acts reduce-scatter"] {
                    pieces.push(CommPiece {
                        label,
                        kind: PieceKind::GatherScatter,
                        elements: bl * e * serial_factor,
                        axes: 3,
                        group: n,
                        is_weights: false,
                    });
                }
            }
            FfnLayout::WeightStationary2D => {
                // The 2D flow (Appendix A.2.1): activations sharded E_xyz at
                // layer boundaries; the E/X-sized transfers run over the yz
                // axes (gathering/scattering the d_model shards) and the
                // F/YZ-sized transfers over the x axis (around the hidden
                // activation). The parallel block's fusion halves the
                // d_ff/n_heads-axis pieces only (Section 3.4).
                let x = self.mesh.x as f64;
                let yz = self.mesh.yz() as f64;
                for label in ["acts all-gather(yz)", "acts reduce-scatter(yz)"] {
                    pieces.push(CommPiece {
                        label,
                        kind: PieceKind::GatherScatter,
                        elements: bl * e / x,
                        axes: 2,
                        group: yz,
                        is_weights: false,
                    });
                }
                for label in ["acts all-gather(x)", "acts reduce-scatter(x)"] {
                    pieces.push(CommPiece {
                        label,
                        kind: PieceKind::GatherScatter,
                        elements: bl * f / yz * serial_factor,
                        axes: 1,
                        group: x,
                        is_weights: false,
                    });
                }
            }
            FfnLayout::WeightGathered(extent) => {
                let n_gather = extent.n_gather(self.mesh) as f64;
                // Per-chip weight shard W/n grows to W·N/n after the gather.
                let w_layer = model.params_per_layer() as f64;
                pieces.push(CommPiece {
                    label: "weights all-gather",
                    kind: PieceKind::GatherScatter,
                    elements: w_layer * n_gather / n,
                    axes: extent.gather_axes(),
                    group: n_gather,
                    is_weights: true,
                });
                // One activation pair remains, at volume reduced by N
                // (Appendix A.2.2), over the axes weights were not
                // gathered over.
                let act_axes = 3 - extent.gather_axes();
                let act_group = n / n_gather;
                if act_group > 1.0 {
                    for label in ["acts all-gather", "acts reduce-scatter"] {
                        pieces.push(CommPiece {
                            label,
                            kind: PieceKind::GatherScatter,
                            elements: bl * e / n_gather * serial_factor,
                            axes: act_axes.max(1),
                            group: act_group,
                            is_weights: false,
                        });
                    }
                }
            }
        }
        if self.attn == AttnSharding::Batch {
            // Reshard Q/K/V to batch layout and the attention output back
            // (Figure 5b). Tensors are fully sharded, so per-chip payload is
            // the fused projection width over n chips.
            let qkv = (model.attn_dim() + 2 * model.n_kv_heads() * model.d_head) as f64;
            pieces.push(CommPiece {
                label: "attn qkv all-to-all",
                kind: PieceKind::AllToAll,
                elements: bl * qkv / n,
                axes: 3,
                group: n,
                is_weights: false,
            });
            pieces.push(CommPiece {
                label: "attn out all-to-all",
                kind: PieceKind::AllToAll,
                elements: bl * model.attn_dim() as f64 / n,
                axes: 3,
                group: n,
                is_weights: false,
            });
        }
        pieces
    }

    /// Total per-layer communication volume in elements, the quantity
    /// plotted in Figure 3 (weights and activations summed).
    #[must_use]
    pub fn layer_comm_elements(&self, model: &ModelConfig, batch_tokens: f64) -> f64 {
        self.layer_comm(model, batch_tokens)
            .iter()
            .map(|p| p.elements)
            .sum()
    }

    /// One-line description, e.g. `"WS 2D / Batch on 4x4x4"`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} / {} on {}x{}x{}",
            self.ffn.name(),
            self.attn.name(),
            self.mesh.x,
            self.mesh.y,
            self.mesh.z
        )
    }
}

/// Appendix A.2.1's closed-form optimum for the 2D weight-stationary
/// communication time (elements per layer, both collective pairs):
/// `2·BL·(E/X* + F/(n/X*))` at `X* = √(n·E/F)` — which simplifies to
/// `8·BL·E/√n` when `F = 4E`.
///
/// This is the *continuous* optimum; [`Layout::ws2d_mesh`] rounds `X*` to
/// a feasible divisor, so the realized volume is never below this bound.
#[must_use]
pub fn ws2d_comm_elements_bound(d_model: usize, d_ff: usize, n_chips: usize, batch_tokens: f64) -> f64 {
    let (e, f, n) = (d_model as f64, d_ff as f64, n_chips as f64);
    let x_star = (n * e / f).sqrt();
    2.0 * batch_tokens * (e / x_star + f / (n / x_star))
}

/// Appendix A.2.2's optimal number of chips `N*` to all-gather weights
/// over in a weight-gathered layout: `N* = √(B·L·n / F)`, balancing weight
/// traffic (∝ N) against activation traffic (∝ 1/N).
#[must_use]
pub fn optimal_gather_chips(batch_tokens: f64, n_chips: usize, d_ff: usize) -> f64 {
    (batch_tokens * n_chips as f64 / d_ff as f64).sqrt()
}

/// Appendix A.2.2's closed-form optimum for weight-gathered communication
/// (elements per layer, weights + activations, assuming a plain two-matrix
/// FFN): `4·E·√(B·L·F / n)` per chip... expressed here as the total volume
/// `2·E·F·N/n + 2·B·L·E/N` evaluated at [`optimal_gather_chips`].
#[must_use]
pub fn wg_comm_elements_bound(d_model: usize, d_ff: usize, n_chips: usize, batch_tokens: f64) -> f64 {
    let (e, f, n) = (d_model as f64, d_ff as f64, n_chips as f64);
    let n_star = optimal_gather_chips(batch_tokens, n_chips, d_ff).clamp(1.0, n);
    2.0 * e * f * n_star / n + 2.0 * batch_tokens * e / n_star
}

/// The weight-gathered extent whose gather size is closest (in log space)
/// to the A.2.2 optimum `N*` for this batch — the rule Figure 3 and the
/// prefill planner realize by explicit enumeration.
#[must_use]
pub fn best_gather_extent(mesh: MeshFactors, batch_tokens: f64, d_ff: usize) -> GatherExtent {
    let n_star = optimal_gather_chips(batch_tokens, mesh.n_chips(), d_ff).max(1.0);
    GatherExtent::ALL
        .into_iter()
        .min_by(|a, b| {
            let d = |ext: GatherExtent| {
                (ext.n_gather(mesh) as f64).ln() - n_star.ln()
            };
            d(*a).abs().partial_cmp(&d(*b).abs()).expect("finite")
        })
        .expect("non-empty extent list")
}

/// Splits `n` into two factors as close to `√n` as possible (`y ≥ z`).
fn balanced_split(n: usize) -> (usize, usize) {
    let mut best = (n, 1);
    for z in 1..=n {
        if z * z > n {
            break;
        }
        if n.is_multiple_of(z) {
            best = (n / z, z);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ws2d_mesh_is_half_sqrt_for_4x() {
        // F = 4E, n = 64: X = 0.5·√64 = 4 (Appendix A.2.1).
        let mesh = Layout::ws2d_mesh(64, 16384, 65536);
        assert_eq!(mesh.x, 4);
        assert_eq!(mesh.yz(), 16);
        assert_eq!(mesh.n_chips(), 64);
        // n = 256: X = 8.
        assert_eq!(Layout::ws2d_mesh(256, 16384, 65536).x, 8);
    }

    #[test]
    fn balanced_split_examples() {
        assert_eq!(balanced_split(16), (4, 4));
        assert_eq!(balanced_split(32), (8, 4));
        assert_eq!(balanced_split(1), (1, 1));
        assert_eq!(balanced_split(7), (7, 1));
    }

    fn fig3_model() -> ModelConfig {
        // Figure 3's feedforward-only setting: E=16384, F=65536, plain
        // two-matrix MLP so params_per_layer ≈ 2EF.
        let mut m = ModelConfig::mt_nlg_530b();
        m.d_model = 16384;
        m.d_ff = 65536;
        m.n_heads = 1;
        m.d_head = 1;
        m.block = BlockKind::Parallel;
        m
    }

    #[test]
    fn ws2d_volume_matches_formula() {
        let model = fig3_model();
        let mesh = MeshFactors::new(4, 4, 4);
        let layout = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Head, mesh };
        let bl = 4096.0;
        let expect = 2.0 * bl * (16384.0 / 4.0 + 65536.0 / 16.0);
        assert!((layout.layer_comm_elements(&model, bl) - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn figure3_crossover_structure() {
        // As batch tokens grow, the communication-minimal layout moves
        // WS2D -> WG X -> WG XY -> WG XYZ (Figure 3).
        let model = fig3_model();
        let mesh = MeshFactors::new(4, 4, 4);
        let layouts: Vec<Layout> = [
            FfnLayout::WeightStationary2D,
            FfnLayout::WeightGathered(GatherExtent::X),
            FfnLayout::WeightGathered(GatherExtent::Xy),
            FfnLayout::WeightGathered(GatherExtent::Xyz),
        ]
        .into_iter()
        .map(|ffn| Layout { ffn, attn: AttnSharding::Head, mesh })
        .collect();
        let argmin = |bl: f64| {
            (0..layouts.len())
                .min_by(|&a, &b| {
                    layouts[a]
                        .layer_comm_elements(&model, bl)
                        .partial_cmp(&layouts[b].layer_comm_elements(&model, bl))
                        .unwrap()
                })
                .unwrap()
        };
        let winners: Vec<usize> =
            [2e3, 3e4, 3e5, 8e6].iter().map(|&bl| argmin(bl)).collect();
        assert_eq!(winners, vec![0, 1, 2, 3], "crossover order should be WS2D, X, XY, XYZ");
    }

    #[test]
    fn ws1d_volume_constant_in_chip_count() {
        let model = fig3_model();
        let bl = 1024.0;
        let v = |n: usize| {
            Layout {
                ffn: FfnLayout::WeightStationary1D,
                attn: AttnSharding::Head,
                mesh: Layout::ws1d_mesh(n),
            }
            .layer_comm_elements(&model, bl)
        };
        assert_eq!(v(8), v(256));
    }

    #[test]
    fn ws2d_volume_shrinks_with_chip_count() {
        let model = fig3_model();
        let bl = 1024.0;
        let v = |n: usize| {
            Layout {
                ffn: FfnLayout::WeightStationary2D,
                attn: AttnSharding::Head,
                mesh: Layout::ws2d_mesh(n, model.d_model, model.d_ff),
            }
            .layer_comm_elements(&model, bl)
        };
        // Doubling chips 4x should halve per-chip activation volume.
        let ratio = v(16) / v(256);
        assert!((ratio - 4.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn serial_block_doubles_ffn_axis_comm_only() {
        // Section 3.4: the parallel formulation halves communication over
        // the d_ff/n_heads axis; the d_model-axis pieces are unaffected.
        let mut model = fig3_model();
        let mesh = MeshFactors::new(4, 4, 4);
        let layout = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Head, mesh };
        let parallel = layout.layer_comm_elements(&model, 512.0);
        model.block = BlockKind::Serial;
        let serial = layout.layer_comm_elements(&model, 512.0);
        assert!(serial > parallel);
        assert!(serial < 2.0 * parallel);
        // For 1D weight-stationary (only one aggregation axis), serial
        // exactly doubles the volume.
        let l1 = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: Layout::ws1d_mesh(64),
        };
        let mut par = fig3_model();
        let v_par = l1.layer_comm_elements(&par, 512.0);
        par.block = BlockKind::Serial;
        assert_eq!(l1.layer_comm_elements(&par, 512.0), 2.0 * v_par);
    }

    #[test]
    fn batch_sharded_attention_adds_small_all_to_alls() {
        let model = ModelConfig::palm_540b_padded();
        let mesh = Layout::ws2d_mesh(64, model.d_model, model.d_ff);
        let head = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Head, mesh };
        let batch = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Batch, mesh };
        let bl = 512.0;
        let extra = batch.layer_comm_elements(&model, bl) - head.layer_comm_elements(&model, bl);
        assert!(extra > 0.0);
        // The all-to-alls are on per-token tensors: tiny relative to the
        // activation collectives ("very profitable", Section 3.3).
        assert!(extra < 0.05 * head.layer_comm_elements(&model, bl));
        let a2a: Vec<_> = batch
            .layer_comm(&model, bl)
            .into_iter()
            .filter(|p| p.kind == PieceKind::AllToAll)
            .collect();
        assert_eq!(a2a.len(), 2);
    }

    #[test]
    fn xyz_gathered_has_no_activation_pieces() {
        let model = fig3_model();
        let mesh = MeshFactors::new(4, 4, 4);
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh,
        };
        let pieces = layout.layer_comm(&model, 1e6);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].is_weights);
    }

    #[test]
    fn layout_names() {
        assert_eq!(FfnLayout::WeightStationary2D.name(), "WS 2D");
        assert_eq!(FfnLayout::WeightGathered(GatherExtent::Xyz).name(), "WG XYZ");
        assert_eq!(AttnSharding::Batch.name(), "Batch");
        let l = Layout::ws2d(&ModelConfig::palm_62b(), 16);
        assert!(l.describe().contains("WS 2D"));
    }

    #[test]
    fn ws2d_bound_is_8ble_over_sqrt_n_for_4x() {
        // F = 4E: bound = 8·BL·E/√n (Section 3.2.2).
        let (e, n, bl) = (16384usize, 64usize, 1000.0);
        let bound = ws2d_comm_elements_bound(e, 4 * e, n, bl);
        let expect = 8.0 * bl * e as f64 / (n as f64).sqrt();
        assert!((bound - expect).abs() / expect < 1e-12);
        // The realized mesh (rounded to divisors) is never below the bound.
        let model = fig3_model();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary2D,
            attn: AttnSharding::Head,
            mesh: Layout::ws2d_mesh(n, model.d_model, model.d_ff),
        };
        let realized = layout.layer_comm_elements(&model, bl);
        let model_bound =
            ws2d_comm_elements_bound(model.d_model, model.d_ff, n, bl);
        assert!(realized >= model_bound * 0.999, "{realized} vs bound {model_bound}");
        assert!(realized <= model_bound * 1.3, "rounding slack too large");
    }

    #[test]
    fn optimal_gather_chips_near_enumeration() {
        // The closed-form N* is a continuous optimum; snapping it to the
        // discrete extent grid must land within a small factor of the
        // brute-force best volume (they may differ in label right at a
        // crossover, where the two volumes are nearly equal anyway).
        let model = fig3_model();
        let mesh = MeshFactors::new(4, 4, 4);
        let vol = |ext: GatherExtent, bl: f64| {
            Layout { ffn: FfnLayout::WeightGathered(ext), attn: AttnSharding::Head, mesh }
                .layer_comm_elements(&model, bl)
        };
        for bl in [1e4f64, 1e5, 1e6, 1e7] {
            let best_by_enum = GatherExtent::ALL
                .into_iter()
                .map(|e| vol(e, bl))
                .fold(f64::INFINITY, f64::min);
            let chosen = best_gather_extent(mesh, bl, model.d_ff);
            let achieved = vol(chosen, bl);
            assert!(
                achieved <= 1.35 * best_by_enum,
                "batch {bl}: formula pick {chosen:?} at {achieved:.3e} vs best {best_by_enum:.3e}"
            );
        }
        // Far from any crossover, labels agree exactly.
        assert_eq!(best_gather_extent(mesh, 1e3, model.d_ff), GatherExtent::X);
        assert_eq!(best_gather_extent(mesh, 1e8, model.d_ff), GatherExtent::Xyz);
    }

    #[test]
    fn wg_bound_scales_with_sqrt_batch() {
        // T ∝ √(BL): quadrupling the batch doubles the bound (Section 3.2.3).
        let b1 = wg_comm_elements_bound(16384, 65536, 64, 1e6);
        let b4 = wg_comm_elements_bound(16384, 65536, 64, 4e6);
        assert!((b4 / b1 - 2.0).abs() < 0.01, "ratio {}", b4 / b1);
    }

    proptest! {
        #[test]
        fn prop_ws2d_mesh_divides(n_pow in 0u32..9) {
            let n = 1usize << n_pow;
            let mesh = Layout::ws2d_mesh(n, 8192, 32768);
            prop_assert_eq!(mesh.n_chips(), n);
        }

        #[test]
        fn prop_comm_monotone_in_tokens(bl1 in 1.0f64..1e5, extra in 1.0f64..1e5) {
            let model = fig3_model();
            let mesh = MeshFactors::new(4, 4, 4);
            for ffn in [FfnLayout::WeightStationary1D, FfnLayout::WeightStationary2D,
                        FfnLayout::WeightGathered(GatherExtent::Xy)] {
                let layout = Layout { ffn, attn: AttnSharding::Head, mesh };
                prop_assert!(
                    layout.layer_comm_elements(&model, bl1 + extra)
                        >= layout.layer_comm_elements(&model, bl1)
                );
            }
        }
    }
}
