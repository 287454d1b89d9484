//! Per-chip execution schedules for every built-in layout, in the paper's
//! partitioning algebra (Section 3.2): each step is a collective, an
//! einsum, or a local op ([`LocalOp`]), and names its operands by
//! reference ([`Operand`]): the layer boundary, a stored weight by
//! [`Role`], or an earlier step's output. Each output carries a
//! [`ShardingSpec`] plus a global (unsharded) shape. A [`Schedule`] can be
//! *verified*: every operand must have been produced before it is read,
//! every collective must be legal under the sharding-algebra rewrite rules,
//! every einsum's output sharding must follow from its inputs, and every
//! local shape must divide evenly over the mesh axes it is sharded on.
//!
//! On every layout the schedule *is* the program: a verified schedule
//! compiles into one [`ChipProgram`], which `esti-runtime`'s engine runs on
//! every chip step by step, dispatching each to a kernel or a collective,
//! and whose collectives the static analyzer (`esti-verify`) plays for its
//! SPMD and liveness passes.
//!
//! Schedules are built over the layout's *logical* mesh
//! (`TorusShape::new(mesh.x, mesh.y, mesh.z)`), matching the runtime's
//! rank arithmetic rather than a physical slice shape.

use crate::layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
use crate::sharding::ShardingSpec;
use esti_hal::DType;
use esti_model::{BlockKind, MlpKind, ModelConfig, PositionKind};
use esti_topology::{Axis, AxisSet, ChipCoord, TorusShape};
use std::ops::Range;

/// A tensor known only symbolically: a sharding spec plus the global
/// (logical, unsharded) shape. The per-chip shape is derived on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymTensor {
    /// Sharding layout: one entry per dimension plus partial-sum markers.
    pub spec: ShardingSpec,
    /// Global (unsharded) extent of each dimension, same order as `spec`.
    pub global: Vec<usize>,
}

impl SymTensor {
    /// Fully replicated tensor with the given dimension names and global shape.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `global` lengths differ (a schedule-builder
    /// bug, not a plan property).
    #[must_use]
    pub fn new(names: &str, global: &[usize]) -> Self {
        assert_eq!(
            names.chars().count(),
            global.len(),
            "dimension names and global shape must have equal length"
        );
        SymTensor { spec: ShardingSpec::new(names), global: global.to_vec() }
    }

    /// Builder: shard dimension `name` over `axes`.
    #[must_use]
    pub fn shard(mut self, name: char, axes: AxisSet) -> Self {
        self.spec = self.spec.shard(name, axes);
        self
    }

    /// Builder: mark the tensor as a partial sum over `axes`.
    #[must_use]
    pub fn partial(mut self, axes: AxisSet) -> Self {
        self.spec = self.spec.partial(axes);
        self
    }

    /// Index of dimension `name`, if present.
    #[must_use]
    pub fn dim_index(&self, name: char) -> Option<usize> {
        self.spec.dims().iter().position(|d| d.name == name)
    }

    /// Global size of dimension `name`.
    fn global_of(&self, name: char) -> Option<usize> {
        self.dim_index(name).map(|i| self.global[i])
    }

    /// Mesh axes dimension `name` is sharded over (empty if unsharded).
    fn axes_of(&self, name: char) -> Option<AxisSet> {
        self.dim_index(name).map(|i| self.spec.dims()[i].axes)
    }

    /// Per-chip shape, or an error naming the indivisible dimension.
    ///
    /// Unlike [`ShardingSpec::local_shape`], this does not panic: the whole
    /// point of the symbolic schedule is to report bad plans as values.
    pub fn local_shape(&self, torus: TorusShape) -> Result<Vec<usize>, String> {
        let mut shape = Vec::with_capacity(self.global.len());
        for (dim, &g) in self.spec.dims().iter().zip(&self.global) {
            let parts = torus.group_size(dim.axes);
            if g % parts != 0 {
                return Err(format!(
                    "dimension {} of size {g} not divisible by {parts} partitions (axes {})",
                    dim.name, dim.axes
                ));
            }
            shape.push(g / parts);
        }
        Ok(shape)
    }

    /// Per-chip element count.
    pub fn local_elements(&self, torus: TorusShape) -> Result<usize, String> {
        Ok(self.local_shape(torus)?.iter().product())
    }

    /// Well-formedness: dimension axis sets pairwise disjoint, the partial-sum
    /// axes disjoint from every dimension's axes, and every sharded dimension
    /// divisible by its partition count on `torus`.
    pub fn check(&self, torus: TorusShape) -> Result<(), String> {
        let dims = self.spec.dims();
        for (i, a) in dims.iter().enumerate() {
            for b in &dims[i + 1..] {
                if !a.axes.is_disjoint(b.axes) {
                    return Err(format!(
                        "dimensions {} and {} share mesh axes ({} vs {})",
                        a.name, b.name, a.axes, b.axes
                    ));
                }
            }
            if !a.axes.is_disjoint(self.spec.partial_sum()) {
                return Err(format!(
                    "dimension {} axes {} overlap partial-sum axes {}",
                    a.name,
                    a.axes,
                    self.spec.partial_sum()
                ));
            }
        }
        self.local_shape(torus).map(|_| ())
    }
}

impl std::fmt::Display for SymTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:?}", self.spec, self.global)
    }
}

/// Rebuild a spec from parts, validating what [`ShardingSpec::shard`] would
/// otherwise panic on. Returns `Err` on overlapping axis sets.
fn rebuild_spec(dims: &[(char, AxisSet)], partial: AxisSet) -> Result<ShardingSpec, String> {
    for (i, (na, a)) in dims.iter().enumerate() {
        for (nb, b) in &dims[i + 1..] {
            if !a.is_disjoint(*b) {
                return Err(format!(
                    "dimensions {na} and {nb} would share mesh axes ({a} vs {b})"
                ));
            }
        }
        if !a.is_disjoint(partial) {
            return Err(format!(
                "dimension {na} axes {a} would overlap partial-sum axes {partial}"
            ));
        }
    }
    let names: String = dims.iter().map(|(n, _)| *n).collect();
    let mut spec = ShardingSpec::new(&names);
    for (n, a) in dims {
        if !a.is_empty() {
            spec = spec.shard(*n, *a);
        }
    }
    if !partial.is_empty() {
        spec = spec.partial(partial);
    }
    Ok(spec)
}

/// The collective operations of the partitioning algebra (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOp {
    /// `all-gather(dim)`: removes the given axes from `dim`'s sharding.
    AllGather {
        /// Dimension being gathered.
        dim: char,
    },
    /// `reduce-scatter(dim)`: resolves partial sums over the given axes by
    /// sharding `dim` over them.
    ReduceScatter {
        /// Dimension being scattered.
        dim: char,
    },
    /// `all-reduce`: resolves partial sums over the given axes, leaving the
    /// result replicated over them.
    AllReduce,
    /// `all-to-all`: resharding that moves axes from `concat` to `split`.
    AllToAll {
        /// Dimension that gains the axes (is split).
        split: char,
        /// Dimension that loses the axes (is concatenated).
        concat: char,
    },
}

impl std::fmt::Display for SymOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymOp::AllGather { dim } => write!(f, "all-gather({dim})"),
            SymOp::ReduceScatter { dim } => write!(f, "reduce-scatter({dim})"),
            SymOp::AllReduce => write!(f, "all-reduce"),
            SymOp::AllToAll { split, concat } => {
                write!(f, "all-to-all({split}<-{concat})")
            }
        }
    }
}

/// Apply a collective rewrite rule to a symbolic tensor, producing the
/// post-collective sharding, or an error explaining why the collective is
/// illegal in this position (the static analogue of a runtime deadlock or
/// shape mismatch).
pub(crate) fn apply_op(op: SymOp, axes: AxisSet, input: &SymTensor) -> Result<SymTensor, String> {
    if axes.is_empty() {
        return Err(format!("{op}: empty axis set"));
    }
    let dims: Vec<(char, AxisSet)> =
        input.spec.dims().iter().map(|d| (d.name, d.axes)).collect();
    let partial = input.spec.partial_sum();

    let (new_dims, new_partial) = match op {
        SymOp::AllGather { dim } => {
            let cur = input
                .axes_of(dim)
                .ok_or_else(|| format!("{op}: no dimension {dim} in {input}"))?;
            if !axes.is_subset_of(cur) {
                return Err(format!(
                    "{op} over {axes}: dimension {dim} is only sharded over {cur}"
                ));
            }
            let nd = dims
                .iter()
                .map(|&(n, a)| if n == dim { (n, a.without(axes)) } else { (n, a) })
                .collect::<Vec<_>>();
            (nd, partial)
        }
        SymOp::ReduceScatter { dim } => {
            if input.dim_index(dim).is_none() {
                return Err(format!("{op}: no dimension {dim} in {input}"));
            }
            if !axes.is_subset_of(partial) {
                return Err(format!(
                    "{op} over {axes}: tensor is only a partial sum over {partial}"
                ));
            }
            for &(n, a) in &dims {
                if !a.is_disjoint(axes) {
                    return Err(format!(
                        "{op} over {axes}: axes already used by dimension {n} ({a})"
                    ));
                }
            }
            let nd = dims
                .iter()
                .map(|&(n, a)| if n == dim { (n, a.union(axes)) } else { (n, a) })
                .collect::<Vec<_>>();
            (nd, partial.without(axes))
        }
        SymOp::AllReduce => {
            if !axes.is_subset_of(partial) {
                return Err(format!(
                    "{op} over {axes}: tensor is only a partial sum over {partial}"
                ));
            }
            (dims, partial.without(axes))
        }
        SymOp::AllToAll { split, concat } => {
            if split == concat {
                return Err(format!("{op}: split and concat dimensions are equal"));
            }
            let concat_axes = input
                .axes_of(concat)
                .ok_or_else(|| format!("{op}: no dimension {concat} in {input}"))?;
            let split_axes = input
                .axes_of(split)
                .ok_or_else(|| format!("{op}: no dimension {split} in {input}"))?;
            if !axes.is_subset_of(concat_axes) {
                return Err(format!(
                    "{op} over {axes}: dimension {concat} is only sharded over {concat_axes}"
                ));
            }
            if !split_axes.is_disjoint(axes) {
                return Err(format!(
                    "{op} over {axes}: axes already used by split dimension {split}"
                ));
            }
            if !partial.is_disjoint(axes) {
                return Err(format!(
                    "{op} over {axes}: axes carry an unresolved partial sum"
                ));
            }
            let nd = dims
                .iter()
                .map(|&(n, a)| {
                    if n == concat {
                        (n, a.without(axes))
                    } else if n == split {
                        (n, a.union(axes))
                    } else {
                        (n, a)
                    }
                })
                .collect::<Vec<_>>();
            (nd, partial)
        }
    };

    let spec = rebuild_spec(&new_dims, new_partial)?;
    Ok(SymTensor { spec, global: input.global.clone() })
}

/// Infer the output sharding of an einsum `x · w` contracting over
/// `contract`, with output dimension order `out_names`.
///
/// Rules (Section 3.2): contracted dimensions must agree between operands in
/// both global extent and sharding; each output dimension inherits the axes
/// of whichever operand carries it (and they must agree if both do); the
/// output accumulates the partial-sum markers of both inputs plus the axes
/// of every contracted sharded dimension (a sharded contraction produces a
/// partial sum).
pub(crate) fn expected_einsum(
    x: &SymTensor,
    w: &SymTensor,
    contract: &[char],
    out_names: &str,
) -> Result<SymTensor, String> {
    let mut out_partial = x.spec.partial_sum().union(w.spec.partial_sum());
    for &c in contract {
        let (Some(xa), Some(xg)) = (x.axes_of(c), x.global_of(c)) else {
            return Err(format!("einsum: contracted dimension {c} missing from x ({x})"));
        };
        let (Some(wa), Some(wg)) = (w.axes_of(c), w.global_of(c)) else {
            return Err(format!("einsum: contracted dimension {c} missing from w ({w})"));
        };
        if xg != wg {
            return Err(format!(
                "einsum: contracted dimension {c} has global size {xg} in x but {wg} in w"
            ));
        }
        if xa != wa {
            return Err(format!(
                "einsum: contracted dimension {c} sharded over {xa} in x but {wa} in w"
            ));
        }
        out_partial = out_partial.union(xa);
    }

    let mut dims: Vec<(char, AxisSet)> = Vec::new();
    let mut global = Vec::new();
    for name in out_names.chars() {
        let from_x = x.axes_of(name).zip(x.global_of(name));
        let from_w = w.axes_of(name).zip(w.global_of(name));
        let (axes, g) = match (from_x, from_w) {
            (Some((xa, xg)), Some((wa, wg))) => {
                if xg != wg || xa != wa {
                    return Err(format!(
                        "einsum: batch dimension {name} disagrees between operands"
                    ));
                }
                (xa, xg)
            }
            (Some(v), None) | (None, Some(v)) => v,
            (None, None) => {
                return Err(format!(
                    "einsum: output dimension {name} appears in neither operand"
                ))
            }
        };
        dims.push((name, axes));
        global.push(g);
    }
    // Every non-contracted input dimension must appear in the output.
    for t in [x, w] {
        for d in t.spec.dims() {
            if !contract.contains(&d.name) && !out_names.contains(d.name) {
                return Err(format!(
                    "einsum: dimension {} of an operand is neither contracted nor output",
                    d.name
                ));
            }
        }
    }

    let spec = rebuild_spec(&dims, out_partial)?;
    Ok(SymTensor { spec, global })
}

/// Wire format of a collective's payload.
///
/// Dense payloads are charged at the runtime's dense activation accounting;
/// [`WireFormat::Int8`] marks the quantized weight gathers of Section 3.6,
/// whose wire volume is int8 values plus one f32 scale per column
/// (`esti-collectives`' `quant_wire_bytes`). This is an execution
/// annotation: sharding semantics are identical for both formats, but
/// [`ChipProgram::compile`] accepts it only where the runtime gathers a
/// stored weight's parts, which then travel quantized, and the
/// quant-dataflow pass in `esti-verify` checks their byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Dense activation/weight payload.
    Dense,
    /// Quantized payload: int8 values + per-column f32 scales (Section 3.6).
    Int8,
}

/// A stored weight, by its role in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Query projection.
    Wq,
    /// Key projection.
    Wk,
    /// Value projection.
    Wv,
    /// Attention output projection.
    Wo,
    /// MLP input projection.
    WIn,
    /// SwiGLU gate projection.
    WGate,
    /// MLP output projection.
    WOut,
    /// Transposed embedding: the final logits projection.
    EmbedT,
}

/// What a step reads, by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The residual stream at layer entry (after the stack, for the final
    /// steps).
    Boundary,
    /// A stored weight.
    Weight(Role),
    /// The output of step `i`, numbering [`Schedule::layer`] then
    /// [`Schedule::final_steps`].
    Step(usize),
}

/// Which gain a [`LocalOp::LayerNorm`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gain {
    /// The layer's first layernorm (a parallel block's only one).
    Attn,
    /// A serial block's MLP layernorm.
    Mlp,
    /// The layernorm after the stack.
    Final,
}

/// What a [`Step::Local`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOp {
    /// Layernorm with its gain; over an `E`-sharded stream the second input
    /// is the all-reduced [`LocalOp::Moments`].
    LayerNorm(Gain),
    /// Per-row sum and sum of squares of an `E`-sharded stream.
    Moments,
    /// Causal attention of `q` over the KV cache once `k` and `v` are
    /// appended (inputs `[q, k, v]`, RoPE applied first where the model
    /// uses it).
    Attention,
    /// The chip's rows of the batch: its rank's share in the group over the
    /// axes the batch dimension gains.
    BatchSlice,
    /// `swish(gate) · up` (inputs `[gate, up]`).
    SwiGlu,
    /// GELU.
    Gelu,
    /// Elementwise sum.
    Add,
}

impl LocalOp {
    /// True when every input must be free of partial sums (the op is
    /// nonlinear, e.g. softmax or a layernorm divide).
    #[must_use]
    pub fn needs_full(self) -> bool {
        !matches!(self, LocalOp::Moments | LocalOp::BatchSlice | LocalOp::Add)
    }
}

/// One step of a per-chip schedule.
#[derive(Debug, Clone)]
pub enum Step {
    /// A collective over a mesh-axis group: `input` resharded to `output`.
    Collective {
        /// Human-readable step name for diagnostics.
        label: &'static str,
        /// Which algebra rewrite this collective performs.
        op: SymOp,
        /// Mesh axes the communicating group spans.
        axes: AxisSet,
        /// The tensor resharded.
        input: Operand,
        /// Declared sharding after the collective (checked against the rule).
        output: SymTensor,
        /// Payload wire format (see [`WireFormat`]).
        wire: WireFormat,
    },
    /// A sharded einsum (matmul): `x · w` contracting `contract`.
    Einsum {
        /// Human-readable step name for diagnostics.
        label: &'static str,
        /// Activation operand.
        x: Operand,
        /// Weight operand.
        w: Operand,
        /// Contracted dimension names.
        contract: Vec<char>,
        /// Declared output (checked against the shape the contraction
        /// implies when the schedule is verified).
        output: SymTensor,
    },
    /// A chip-local op. Never communicates; may not resolve partial sums and
    /// may not materialize data the chip does not hold.
    Local {
        /// Human-readable step name for diagnostics.
        label: &'static str,
        /// What the op computes.
        op: LocalOp,
        /// Input tensors (must already be available on-chip).
        inputs: Vec<Operand>,
        /// Declared output.
        output: SymTensor,
    },
}

impl Step {
    /// The declared output tensor of this step.
    #[must_use]
    pub fn output(&self) -> &SymTensor {
        match self {
            Step::Collective { output, .. }
            | Step::Einsum { output, .. }
            | Step::Local { output, .. } => output,
        }
    }

    /// The step's diagnostic label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Step::Collective { label, .. }
            | Step::Einsum { label, .. }
            | Step::Local { label, .. } => label,
        }
    }

    /// The operands the step reads.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (a, b, rest): (_, _, &[Operand]) = match self {
            Step::Collective { input, .. } => (Some(input), None, &[]),
            Step::Einsum { x, w, .. } => (Some(x), Some(w), &[]),
            Step::Local { inputs, .. } => (None, None, inputs),
        };
        a.into_iter().chain(b).chain(rest).copied()
    }
}

/// The dataflow family a layout lowers to: which builder writes its
/// schedule, and over which axes. Nothing outside this module needs it: the
/// schedule's specs say everything a runtime cuts or runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dataflow {
    /// 1D weight-stationary (Section 3.2.1).
    OneD,
    /// 2D weight-stationary (Section 3.2.2).
    TwoD,
    /// Weight-gathered over every axis (XYZ extent, Section 3.2.3): weights
    /// fully gathered, activations batch-stationary.
    WgFull,
    /// Weight-gathered over some axes (X / XY extents, Figure A.2): the batch
    /// sharded and the weights all-gathered over `gather`, and 1D
    /// weight-stationary over `local`.
    WgHybrid {
        /// Axes the weights are gathered (and the batch sharded) over.
        gather: AxisSet,
        /// Axes each gather group runs 1D weight-stationary over.
        local: AxisSet,
    },
}

/// A complete symbolic schedule for one (layout, model, batch, seq)
/// combination: the per-layer step sequence plus the final (post-stack)
/// steps, with the tensors that must be resident at layer entry.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The layout this schedule implements.
    pub layout: Layout,
    /// The logical mesh the schedule runs on (from `layout.mesh`).
    pub torus: TorusShape,
    /// Global batch size the schedule was built for.
    pub batch: usize,
    /// Sequence length the schedule was built for.
    pub seq: usize,
    /// The residual-stream tensor at layer entry (and, by the residual
    /// invariant, at layer exit).
    pub boundary: SymTensor,
    /// Stored weights by role, as held on chip ([`Role::EmbedT`] feeds the
    /// final steps).
    pub weights: Vec<(Role, SymTensor)>,
    /// Steps executed by every layer.
    pub layer: Vec<Step>,
    /// Steps executed once after the layer stack (final layernorm + logits).
    pub final_steps: Vec<Step>,
}

impl Schedule {
    /// Verify the whole schedule: boundary and weights well-formed, every
    /// operand available where it is read, every step's declared output
    /// reproducible from the rewrite rules, every intermediate divisible,
    /// and the layer body closed over the boundary sharding (residual
    /// invariant).
    pub fn verify(&self) -> Result<(), String> {
        self.boundary
            .check(self.torus)
            .map_err(|e| format!("layer boundary: {e}"))?;
        for (_, w) in &self.weights {
            w.check(self.torus).map_err(|e| format!("weight {w}: {e}"))?;
        }
        if let Some(out) = self.walk_steps(&self.layer, 0)? {
            if *out != self.boundary {
                return Err(format!(
                    "residual invariant violated: layer produces {out} but entered with {}",
                    self.boundary
                ));
            }
        }
        self.walk_steps(&self.final_steps, self.layer.len())?;
        Ok(())
    }

    /// The symbolic tensor `r` names: the boundary, a stored weight, or a
    /// step's declared output.
    ///
    /// # Errors
    ///
    /// `r` names a weight or a step the schedule does not have.
    pub fn tensor(&self, r: Operand) -> Result<&SymTensor, String> {
        match r {
            Operand::Boundary => Some(&self.boundary),
            Operand::Weight(role) => self.weights.iter().find(|w| w.0 == role).map(|w| &w.1),
            Operand::Step(i) => self.layer.iter().chain(&self.final_steps).nth(i).map(Step::output),
        }
        .ok_or_else(|| format!("the schedule has no {r:?}"))
    }

    /// The attention step's K input: its batch axes pick the rows a chip's
    /// KV cache holds, and the cut of its `H` dim the heads. Panics if no
    /// layer step attends.
    #[must_use]
    pub fn kv_input(&self) -> &SymTensor {
        let attends = |st: &Step| match st {
            Step::Local { op: LocalOp::Attention, inputs, .. } => self.tensor(inputs[1]).ok(),
            _ => None,
        };
        self.layer.iter().find_map(attends).expect("a layer attends")
    }

    /// Annotate the wire format the runtime uses for this weight storage
    /// dtype: with [`DType::Int8`], every all-gather of a stored weight
    /// moves quantized (int8 values + per-column f32 scales, Section 3.6).
    /// All other dtypes leave the schedule dense.
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> Self {
        if dtype != DType::Int8 {
            return self;
        }
        for step in self.layer.iter_mut().chain(&mut self.final_steps) {
            if let Step::Collective {
                op: SymOp::AllGather { .. }, input: Operand::Weight(_), wire, ..
            } = step
            {
                *wire = WireFormat::Int8;
            }
        }
        self
    }

    /// Walk `steps`, numbered from `base`, verifying each against the
    /// rewrite rules: a step reads the boundary, a stored weight, or a step
    /// of the same list that has already run. Returns the last step's
    /// output (if any steps exist).
    fn walk_steps<'a>(
        &self,
        steps: &'a [Step],
        base: usize,
    ) -> Result<Option<&'a SymTensor>, String> {
        for (i, step) in (base..).zip(steps) {
            let label = step.label();
            let read = |r: Operand| match r {
                Operand::Step(j) if !(base..i).contains(&j) => Err(format!(
                    "{label}: reads step {j}, which has not run on-chip at this point"
                )),
                _ => self.tensor(r).map_err(|e| format!("{label}: {e}")),
            };
            match step {
                Step::Collective { op, axes, input, output, .. } => {
                    let expect =
                        apply_op(*op, *axes, read(*input)?).map_err(|e| format!("{label}: {e}"))?;
                    if expect != *output {
                        return Err(format!(
                            "{label}: declared output {output} but {op} over {axes} yields {expect}"
                        ));
                    }
                }
                Step::Einsum { x, w, contract, output, .. } => {
                    let names: String = output.spec.dims().iter().map(|d| d.name).collect();
                    let expect = expected_einsum(read(*x)?, read(*w)?, contract, &names)
                        .map_err(|e| format!("{label}: {e}"))?;
                    if expect != *output {
                        return Err(format!(
                            "{label}: declared output {output} but einsum yields {expect}"
                        ));
                    }
                }
                Step::Local { op, inputs, output, .. } => {
                    let inputs = inputs.iter().map(|&r| read(r)).collect::<Result<Vec<_>, _>>()?;
                    let mut in_partial = AxisSet::empty();
                    for input in &inputs {
                        if op.needs_full() && !input.spec.partial_sum().is_empty() {
                            return Err(format!(
                                "{label}: nonlinear local op consumes unresolved partial sum {input}"
                            ));
                        }
                        in_partial = in_partial.union(input.spec.partial_sum());
                    }
                    if !in_partial.is_subset_of(output.spec.partial_sum()) {
                        return Err(format!(
                            "{label}: local op silently resolves partial sum over {in_partial}"
                        ));
                    }
                    // A local op may slice (add axes) but never materialize data
                    // the chip does not hold (remove axes) from a same-sized
                    // input dimension.
                    for input in &inputs {
                        for d in output.spec.dims() {
                            if let (Some(in_axes), Some(in_g)) =
                                (input.axes_of(d.name), input.global_of(d.name))
                            {
                                if !in_axes.is_subset_of(d.axes)
                                    && Some(in_g) == output.global_of(d.name)
                                {
                                    return Err(format!(
                                        "{label}: local op materializes dimension {} ({} -> {}) without a collective",
                                        d.name, in_axes, d.axes
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            step.output()
                .check(self.torus)
                .map_err(|e| format!("{label}: output {e}"))?;
        }
        Ok(steps.last().map(Step::output))
    }
}

/// Where every value of a pass over a schedule lives on a chip: slots of
/// buffers, coloured by liveness. Two values share a slot only if their
/// intervals `[k, last_read[k]]` are disjoint; largest first, each takes
/// the first slot it overlaps nothing in, so a slot is as large as its
/// first value and smaller ones fill the gaps. Slots are not split by
/// per-token width: every value's size scales with the pass's `B·L` alike,
/// so one plan by size serves every pass. Steps are numbered
/// [`Schedule::layer`] then [`Schedule::final_steps`].
///
/// A collective moves an input that dies there into its deposit (`moves`)
/// instead of copying it, and lends it the buffer: the chip's next
/// rendezvous on the same group takes the buffer back (the next collective
/// over the same axes; a layer's last one on a group is taken back by the
/// next layer's first), into the value's slot (`back`), which stays
/// reserved until then, so the peak counts the lent buffer.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// Whether each step is an all-gather handing an einsum rank-ordered parts.
    pub parts: Vec<bool>,
    /// Each SwiGLU or add that overwrites its input `inputs[i]` (`Some(i)`).
    pub in_place: Vec<Option<usize>>,
    /// Each step's value's slot; `None` for an all-gather's parts and for
    /// a layer's output, which goes to a residual slot.
    pub value: Vec<Option<usize>>,
    /// Each step's scratch slots: attention's roped `q`, then roped `k`.
    pub scratch: Vec<Vec<usize>>,
    /// The two slots the residual stream alternates between: layer `li`
    /// reads its input from `resid[li % 2]` (or the pass input, borrowed,
    /// where the chip keeps all of it) and writes its output to
    /// `resid[(li + 1) % 2]`.
    pub resid: [usize; 2],
    /// Each slot's size: its largest value's elements at the schedule's
    /// own batch and length.
    pub sizes: Vec<usize>,
    /// The step values each step reads last, whose buffers then go back to
    /// their slots.
    pub dies: Vec<Vec<usize>>,
    /// The slots each step uses last, whose buffers are freed once the step
    /// has run for the last time in a pass.
    pub frees: Vec<Vec<usize>>,
    /// Each collective that moves its input, a step value dying there, into
    /// its deposit, lending the input's buffer.
    pub moves: Vec<bool>,
    /// Each collective's slot for the buffer its completion takes back: the
    /// one the previous collective on its group moved in.
    pub back: Vec<Option<usize>>,
    peak: usize,
}

impl BufferPlan {
    /// Plans the buffers of `s`, a verified schedule of `cfg`; panics if `s`
    /// does not verify.
    #[must_use]
    pub fn new(s: &Schedule, cfg: &ModelConfig) -> Self {
        let steps: Vec<&Step> = s.layer.iter().chain(&s.final_steps).collect();
        let (n, split) = (steps.len(), s.layer.len());
        let tensor = |r: Operand| s.tensor(r).expect("a verified schedule's operands exist");
        let size = |t: &SymTensor| t.local_elements(s.torus).expect("a verified schedule's shapes divide");
        let mut last_read: Vec<usize> = (0..n).collect();
        let mut parts = vec![false; n];
        for (k, step) in steps.iter().enumerate() {
            for r in step.operands() {
                if let Operand::Step(j) = r {
                    last_read[j] = k;
                    parts[j] |= matches!(step, Step::Einsum { .. })
                        && matches!(steps[j], Step::Collective { op: SymOp::AllGather { .. }, .. });
                }
            }
        }

        // Each buffer a pass needs is an item live over steps `[first,
        // last]`, and in a layer also `[0, wrap]` (lent to a deposit and
        // taken back in the next layer): a step value (joined by the value a
        // SwiGLU or add writes over it in place, where it dies there and is
        // shaped like the output), or attention's roped `q` / `k`.
        let (mut items, mut scratch_items) = (Vec::new(), Vec::new());
        let (mut item_of, mut in_place): (Vec<Option<usize>>, _) = (vec![None; n], vec![None; n]);
        for (k, step) in steps.iter().enumerate() {
            let mut over = None;
            if let Step::Local { op, inputs, output, .. } = step {
                if *op == LocalOp::Attention && cfg.position == PositionKind::Rope {
                    for &r in &inputs[..2] {
                        scratch_items.push((k, items.len()));
                        items.push((k, k, size(tensor(r)), None));
                    }
                }
                let dies_here = |r: &Operand| {
                    matches!(*r, Operand::Step(j) if last_read[j] == k)
                        && inputs.iter().filter(|&o| o == r).count() == 1
                        && size(tensor(*r)) == size(output)
                };
                if matches!(op, LocalOp::SwiGlu | LocalOp::Add) && k + 1 != split {
                    in_place[k] = inputs.iter().position(dies_here);
                }
                if let Some(Operand::Step(j)) = in_place[k].map(|i| inputs[i]) {
                    over = item_of[j];
                }
            }
            if parts[k] || k + 1 == split {
                continue;
            }
            let it = over.unwrap_or_else(|| {
                items.push((k, k, 0, None));
                items.len() - 1
            });
            items[it].1 = last_read[k];
            items[it].2 = items[it].2.max(size(step.output()));
            item_of[k] = Some(it);
        }
        // A collective copies its input into a deposit that the last member
        // to read it frees, unless the chip moves in an input dying there
        // and lends its buffer: the chip's next rendezvous on the group (`m`,
        // at or before `k` when it wraps round the layer) takes it back, into
        // the value's slot, which stays reserved until then. A parts
        // gather's buffer comes back whole only if every einsum reading its
        // parts has run by `m`, one wrapping round the layer only if the
        // next layer's value takes the slot after `m`; such inputs are
        // copied. A layer's deposit taken back in the next layer outlives
        // the last layer, to the final steps' first rendezvous on its group
        // or the pass's end (a tail).
        let axes = |k: usize| match steps[k] {
            Step::Collective { axes, .. } => Some(*axes),
            _ => None,
        };
        let (mut moves, mut back_item, mut tails) = (vec![false; n], vec![None; n], Vec::new());
        for (k, step) in steps.iter().enumerate() {
            let Step::Collective { input: Operand::Step(j), axes: a, .. } = step else { continue };
            let Some(it) = item_of[*j].filter(|_| last_read[*j] == k) else { continue };
            let same = |m: &usize| axes(*m) == Some(*a);
            let m = if k < split { (k + 1..split).find(same).or_else(|| (0..split).find(same)) } else { (k + 1..n).find(same) };
            match m {
                Some(m) if m > k && parts[k] && last_read[k] >= m => continue,
                Some(m) if m > k => items[it].1 = items[it].1.max(m),
                Some(m) if m < items[it].0 => {
                    items[it].1 = split - 1;
                    items[it].3 = Some(m);
                    tails.push((it, (split..n).find(same).unwrap_or(n - 1)));
                }
                Some(_) => continue,
                None => items[it].1 = n - 1,
            }
            moves[k] = true;
            if let Some(m) = m {
                back_item[m] = Some(it);
            }
        }
        // Largest first, each item takes the first slot it overlaps nothing
        // in, else a new one. The layer steps and the final steps keep to
        // slots of their own, so the layers' buffers are freed before the
        // final steps take theirs; the residual pair is reserved for the
        // layers.
        let mut sizes = vec![size(&s.boundary); 2];
        let mut held: Vec<Vec<(usize, usize)>> = vec![vec![(0, split.saturating_sub(1))]; 2];
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&it| (std::cmp::Reverse(items[it].2), items[it].0));
        let mut slot_of = vec![0; items.len()];
        for it in order {
            let (first, last, size, wrap) = items[it];
            let spans: Vec<(usize, usize)> = std::iter::once((first, last)).chain(wrap.map(|m| (0, m))).collect();
            let free = |iv: &Vec<(usize, usize)>| {
                spans.iter().all(|&(first, last)| {
                    iv.iter().all(|&(a, b)| (last < a || b < first) && (a < split) == (first < split))
                })
            };
            let slot = (2..held.len()).find(|&s| free(&held[s])).unwrap_or_else(|| {
                sizes.push(size);
                held.push(Vec::new());
                held.len() - 1
            });
            held[slot].extend(spans);
            slot_of[it] = slot;
        }
        let back = back_item.iter().map(|it| it.map(|it| slot_of[it])).collect();
        let value = item_of.iter().map(|it| it.map(|it| slot_of[it])).collect();
        let mut scratch = vec![Vec::new(); n];
        for &(k, it) in &scratch_items {
            scratch[k].push(slot_of[it]);
        }
        // A value dies at its last reader; a layer's output lives on as the
        // residual stream, and the logits as the pass's result.
        let mut dies = vec![Vec::new(); n];
        for j in (0..n).filter(|&j| j + 1 != split && j + 1 != n) {
            dies[last_read[j]].push(j);
        }
        // A slot's buffer is freed after its items' last step. Over a pass,
        // a lane holds it from its first use until then in the last layer (a
        // layer slot) or the final steps; slot 0 holds the residual stream on
        // through the final steps, and a tail its lent buffer from the final
        // steps' start. The peak falls where a buffer is taken.
        let (mut frees, mut spans) = (vec![Vec::new(); n], Vec::new());
        let shift = cfg.n_layers.saturating_sub(1) * split;
        for (slot, iv) in held.iter().enumerate() {
            let (a, b) = (iv.iter().map(|v| v.0).min().unwrap_or(0), iv.iter().map(|v| v.1).max().unwrap_or(0));
            frees[b].push(slot);
            spans.push((if a < split { a } else { shift + a }, shift + if slot == 0 { n - 1 } else { b }, sizes[slot]));
        }
        spans.extend(tails.iter().map(|&(it, tail)| (shift + split, shift + tail, sizes[slot_of[it]])));
        let held_at = |t: usize| spans.iter().filter(|&&(a, b, _)| a <= t && t <= b).map(|v| v.2).sum();
        let peak = spans.iter().map(|v| held_at(v.0)).max().unwrap_or(0);
        BufferPlan { parts, in_place, value, scratch, resid: [0, 1], sizes, dies, frees, moves, back, peak }
    }

    /// The most slot elements one chip's lane holds at once over a pass at
    /// the schedule's own batch and length.
    #[must_use]
    pub fn peak_elements(&self) -> usize {
        self.peak
    }
}

/// How an einsum reads its operands, fixed by which of them arrive as an
/// all-gather's rank-ordered parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mm {
    /// Both whole: one matmul.
    Whole,
    /// The weight's parts split its output columns: each writes its own
    /// column block.
    Cols,
    /// The weight's parts split the contraction: rank `r`'s part against
    /// its window of the activation's columns.
    FoldW,
    /// The activation's parts split the contraction: rank `r`'s part
    /// against its rows of the stored weight.
    FoldX,
}

/// What a collective step posts, its dims resolved for the runtime's
/// `[B, L, ·]` activations (heads and head dims flattened into dim 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// A stored weight, gathered into rank-ordered parts in its wire
    /// format (the one exchange that may move int8), logically along its
    /// matrix dim `dim` ([`matrix_dims`]).
    Weight { role: Role, dim: usize, wire: WireFormat },
    /// An activation an einsum reads as rank-ordered parts.
    Parts,
    /// An all-gather along a dim.
    Gather(usize),
    /// An all-reduce.
    AllReduce,
    /// A reduce-scatter along a dim.
    ReduceScatter(usize),
    /// An all-to-all, splitting dim `split` and concatenating along
    /// `concat`.
    AllToAll { split: usize, concat: usize },
}

/// A compiled collective step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collective {
    /// The schedule step's label.
    pub label: &'static str,
    /// What the chip posts.
    pub send: Exchange,
    /// The value posted.
    pub input: Operand,
    /// The chip's group, an index into [`ChipProgram::group_axes`].
    pub group: usize,
    /// The input's chip-local shape.
    pub shape: Vec<usize>,
    /// The batch axes the output's `B` splits over, whose groups pick the
    /// chip's rows of the pass.
    pub rows: AxisSet,
}

/// One compiled step.
#[derive(Debug, Clone)]
pub enum Instr {
    /// An einsum `x · w`, read as `mm`, writing `[B, L, width]`; `rows` is
    /// the batch axes `x`'s `B` splits over, whose groups pick the chip's
    /// rows of the pass.
    Einsum { x: Operand, w: Operand, mm: Mm, width: usize, rows: AxisSet },
    /// A local op; `gained` is the batch axes its output gains over its
    /// input (over the boundary, for attention's positions), whose groups
    /// pick the chip's rows.
    Local { op: LocalOp, inputs: Vec<Operand>, gained: AxisSet },
    /// A collective on one of the chip's groups.
    Collective(Collective),
}

/// The batch axes of `t`: those its `B` dim shards over.
#[must_use]
pub fn b_axes(t: &SymTensor) -> AxisSet {
    t.spec.dims().iter().find(|d| d.name == 'B').map_or(AxisSet::empty(), |d| d.axes)
}

/// The stored `[rows, cols]` matrix dim each of `spec`'s dims maps onto, in
/// order: a `D` after `H` folds into it (`H·D`, H-major, as the activations
/// flatten them); every other dim starts the next.
pub fn matrix_dims(spec: &ShardingSpec) -> impl Iterator<Item = usize> + '_ {
    let dims = spec.dims();
    (0..dims.len()).scan(0, move |m, i| {
        *m += usize::from(i > 0 && !(dims[i].name == 'D' && dims[i - 1].name == 'H'));
        Some(*m)
    })
}

/// The program every chip runs: a verified schedule compiled once, each
/// step resolved to an instruction and each collective's group to an index
/// into the groups every chip belongs to. The engine runs it; the SPMD and
/// liveness passes play its collectives.
#[derive(Debug, Clone)]
pub struct ChipProgram {
    /// The model the schedule runs.
    pub cfg: ModelConfig,
    /// The schedule's mesh.
    pub torus: TorusShape,
    /// The layer steps, then the final steps.
    pub instrs: Vec<Instr>,
    /// Where the final steps begin.
    pub split: usize,
    /// The axes of the groups every chip belongs to: all chips, then each
    /// axis set a collective names, first use first.
    pub group_axes: Vec<AxisSet>,
    /// Whether the final steps communicate, so that every chip runs them.
    pub talks: bool,
    /// The residual stream's spec, and the one dim of it a chip cuts its
    /// block of the pass input along; the chip's rows are its share over
    /// the spec's batch axes.
    pub boundary: SymTensor,
    /// The boundary's one sharded dim, if any.
    pub cut: Option<usize>,
    /// The group whose rank 0 returns the logits: the one they are
    /// replicated over.
    pub emit: usize,
    /// Where every value lives: slots of a chip's buffers.
    pub plan: BufferPlan,
    /// The axes the batch splits over, outermost first — the order the
    /// schedule shards it in (2D batch attention splits it over yz, then
    /// x).
    nest: Vec<AxisSet>,
    /// The attention's K input ([`Schedule::kv_input`]).
    kv: SymTensor,
    /// The stored weights by role ([`Schedule::weights`]), which a chip
    /// cuts by [`ChipProgram::cut`].
    pub weights: Vec<(Role, SymTensor)>,
}

impl ChipProgram {
    /// Compiles verified schedule `s` of `cfg`.
    ///
    /// # Errors
    ///
    /// A step the engine cannot run, named by its label: an einsum whose
    /// parts split a weight's columns or the contraction, an int8 wire on
    /// anything but a stored weight's gathered parts, or an operand the
    /// schedule lacks; or a residual stream cut along more than one dim.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not verify ([`BufferPlan::new`]).
    pub fn compile(s: &Schedule, cfg: &ModelConfig) -> Result<Self, String> {
        let plan = BufferPlan::new(s, cfg);
        let steps: Vec<&Step> = s.layer.iter().chain(&s.final_steps).collect();
        let mut nest: Vec<AxisSet> = Vec::new();
        for t in std::iter::once(&s.boundary).chain(steps.iter().map(|st| st.output())) {
            let new = b_axes(t).without(nest.iter().fold(AxisSet::empty(), |u, &a| u.union(a)));
            if !new.is_empty() {
                nest.push(new);
            }
        }
        // The dim an operand's rank-ordered parts split, where an all-gather
        // hands them to the einsum reading it.
        let parts = |r: Operand| match r {
            Operand::Step(j) if plan.parts[j] => match steps[j] {
                Step::Collective { op: SymOp::AllGather { dim }, .. } => Some(*dim),
                _ => None,
            },
            _ => None,
        };
        let mut group_axes = vec![AxisSet::all()];
        let mut group = |a: AxisSet| {
            group_axes.iter().position(|&g| g == a).unwrap_or_else(|| {
                group_axes.push(a);
                group_axes.len() - 1
            })
        };
        let mut instrs = Vec::with_capacity(steps.len());
        for (k, step) in steps.iter().enumerate() {
            let at = |e: String| format!("{}: {e}", step.label());
            let instr = match step {
                Step::Einsum { x, w, contract, output, .. } => {
                    let mm = match (parts(*x), parts(*w)) {
                        (None, None) => Mm::Whole,
                        (None, Some(dim)) if !contract.contains(&dim) => Mm::Cols,
                        (None, Some(_)) => Mm::FoldW,
                        (Some(dim), None) if contract.contains(&dim) => Mm::FoldX,
                        _ => return Err(at("parts split a weight's columns or the contraction".into())),
                    };
                    // The output's elements per `B·L` token.
                    let local = output.local_shape(s.torus).map_err(at)?;
                    let dims = output.spec.dims().iter().zip(local);
                    let width = dims.filter(|(d, _)| !matches!(d.name, 'B' | 'L')).map(|(_, w)| w).product();
                    let rows = b_axes(s.tensor(*x).map_err(at)?);
                    Instr::Einsum { x: *x, w: *w, mm, width, rows }
                }
                Step::Local { op, inputs, output, .. } => {
                    let from = if *op == LocalOp::Attention { &s.boundary } else { s.tensor(inputs[0]).map_err(at)? };
                    let gained = b_axes(output).without(b_axes(from));
                    Instr::Local { op: *op, inputs: inputs.clone(), gained }
                }
                Step::Collective { label, op, axes, input, wire, output } => {
                    let t = s.tensor(*input).map_err(at)?;
                    let dim = |c: char| t.dim_index(c).ok_or_else(|| at(format!("{t} has no dim {c}")));
                    let send = match (*op, *input) {
                        (SymOp::AllGather { dim: d }, Operand::Weight(role)) if plan.parts[k] => {
                            let dim = matrix_dims(&t.spec).nth(dim(d)?).unwrap_or_default();
                            Exchange::Weight { role, dim, wire: *wire }
                        }
                        (SymOp::AllGather { .. }, _) if plan.parts[k] => Exchange::Parts,
                        (SymOp::AllGather { dim: d }, _) => Exchange::Gather(dim(d)?.min(2)),
                        (SymOp::AllReduce, _) => Exchange::AllReduce,
                        (SymOp::ReduceScatter { dim: d }, _) => Exchange::ReduceScatter(dim(d)?.min(2)),
                        (SymOp::AllToAll { split, concat }, _) => {
                            Exchange::AllToAll { split: dim(split)?.min(2), concat: dim(concat)?.min(2) }
                        }
                    };
                    if *wire == WireFormat::Int8 && !matches!(send, Exchange::Weight { .. }) {
                        return Err(at(format!(
                            "int8 wire on a {op} that moves dense: only a stored weight's gathered parts travel int8"
                        )));
                    }
                    let shape = t.local_shape(s.torus).map_err(at)?;
                    let rows = b_axes(output);
                    Instr::Collective(Collective { label, send, input: *input, group: group(*axes), shape, rows })
                }
            };
            instrs.push(instr);
        }

        let mut cuts = s.boundary.spec.dims().iter().enumerate().filter(|(_, d)| !d.axes.is_empty());
        let cut = cuts.next().map(|(d, _)| d);
        if cuts.next().is_some() {
            return Err(format!("layer boundary {}: the residual stream is cut along more than one dim", s.boundary));
        }
        let sharded = steps.last().map_or(AxisSet::empty(), |st| b_axes(st.output()));
        let emit = group(AxisSet::all().without(sharded));
        Ok(ChipProgram {
            cfg: cfg.clone(),
            torus: s.torus,
            instrs,
            split: s.layer.len(),
            group_axes,
            talks: s.final_steps.iter().any(|st| matches!(st, Step::Collective { .. })),
            boundary: s.boundary.clone(),
            cut,
            emit,
            plan,
            nest,
            kv: s.kv_input().clone(),
            weights: s.weights.clone(),
        })
    }

    /// The steps a chip runs over `layers` layers and then the final steps,
    /// as `(pass, instruction)`: pass `layers` is the final steps.
    pub fn steps(&self, layers: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..=layers).flat_map(move |li| {
            let run = if li < layers { 0..self.split } else { self.split..self.instrs.len() };
            run.map(move |k| (li, k))
        })
    }

    /// The collectives a chip runs over `layers` layers and then the final
    /// steps, in order.
    pub fn collectives(&self, layers: usize) -> impl Iterator<Item = &Collective> + '_ {
        self.steps(layers).filter_map(|(_, k)| match &self.instrs[k] {
            Instr::Collective(c) => Some(c),
            _ => None,
        })
    }

    /// The slot step `k` of pass `li` writes: a layer's output goes to the
    /// residual slot its input is not in.
    #[must_use]
    pub fn out_slot(&self, li: usize, k: usize) -> Option<usize> {
        let output = li < self.cfg.n_layers && k + 1 == self.split;
        if output { Some(self.plan.resid[(li + 1) % 2]) } else { self.plan.value[k] }
    }

    /// The rows of `n` batch rows chip `coord` keeps when they split over
    /// `axes`: its cut of a batch dim sharded over the nest's sets within
    /// `axes`, in the nest's order.
    #[must_use]
    pub fn share(&self, coord: ChipCoord, n: usize, axes: AxisSet) -> Range<usize> {
        let held = self.nest.iter().filter(|a| a.is_subset_of(axes)).fold(AxisSet::empty(), |u, &a| u.union(a));
        let (start, len) = ShardingSpec::new("B").shard('B', held).local_range(0, n, self.torus, coord, &self.nest);
        start..start + len
    }

    /// The number of spans the batch splits into: the size of the group
    /// over every axis it splits over.
    #[must_use]
    pub fn spans(&self) -> usize {
        self.torus.group_size(self.nest.iter().fold(AxisSet::empty(), |u, &a| u.union(a)))
    }

    /// The batch rows of `b` that chip `coord`'s KV cache holds.
    #[must_use]
    pub fn kv_rows(&self, coord: ChipCoord, b: usize) -> Range<usize> {
        self.share(coord, b, b_axes(&self.kv))
    }

    /// The heads of the canonical `[len, Hkv·dh]` KV row that chip `coord`'s
    /// cache holds: all of a multiquery model's one head.
    #[must_use]
    pub fn kv_heads(&self, coord: ChipCoord) -> Range<usize> {
        let Some(h) = self.kv.dim_index('H') else { return 0..1 };
        let (start, len) = self.kv.spec.local_range(h, self.kv.global[h], self.torus, coord, &[]);
        start..start + len
    }

    /// The axes the program all-gathers stored weight `role` over (none if
    /// it reads the weight where it is stored).
    fn gathered(&self, role: Role) -> AxisSet {
        let over = self.instrs.iter().find_map(|i| match i {
            Instr::Collective(c) if matches!(c.send, Exchange::Weight { role: r, .. } if r == role) => {
                Some(self.group_axes[c.group])
            }
            _ => None,
        });
        over.unwrap_or_default()
    }

    /// Chip `coord`'s cut of the stored weight `t` in [`ChipProgram::weights`],
    /// as `(start, len)` per dim: each dim cut by
    /// [`ShardingSpec::local_range`] with the axes the program gathers the
    /// weight over innermost, so that a gather group's rank-ordered parts
    /// concatenate into the cut over the rest.
    #[must_use]
    pub fn cut(&self, (role, t): &(Role, SymTensor), coord: ChipCoord) -> Vec<(usize, usize)> {
        let inner = [self.gathered(*role)];
        (0..t.global.len()).map(|i| t.spec.local_range(i, t.global[i], self.torus, coord, &inner)).collect()
    }

    /// Whether this program can run on what `stored` stores, each chip
    /// holding one copy: every weight it reads cut alike on every chip
    /// ([`ChipProgram::cut`], each program's gather axes innermost), and
    /// the KV cache cut alike (the same spans, and each chip's
    /// [`ChipProgram::kv_rows`] and [`ChipProgram::kv_heads`]).
    ///
    /// # Errors
    ///
    /// The first cut that differs: the weight's role, the chip, the dim and
    /// both `(start, len)` ranges, `stored`'s first; or the first KV cut
    /// that differs; or a model, mesh or weight spec that differs.
    pub fn runs_on(&self, stored: &ChipProgram) -> Result<(), String> {
        if self.cfg != stored.cfg || self.torus != stored.torus {
            return Err("the programs run different models or meshes".into());
        }
        let chips = || self.torus.chips().enumerate();
        for mine in &self.weights {
            let Some(w) = stored.weights.iter().find(|w| w.0 == mine.0) else {
                return Err(format!("{:?} is read but not stored", mine.0));
            };
            if mine.1 != w.1 {
                return Err(format!("{:?}: stored as {} but read as {}", w.0, w.1, mine.1));
            }
            for (rank, coord) in chips() {
                let (a, b) = (stored.cut(w, coord), self.cut(mine, coord));
                if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
                    let name = w.1.spec.dims()[i].name;
                    return Err(format!("{:?} on chip {rank}, dim {name}: {:?} vs {:?}", w.0, a[i], b[i]));
                }
            }
        }
        let b = self.spans();
        if b != stored.spans() {
            return Err(format!("KV spans: {} vs {b}", stored.spans()));
        }
        for (rank, coord) in chips() {
            let (a, m) = (stored.kv_rows(coord, b), self.kv_rows(coord, b));
            if a != m {
                return Err(format!("KV rows of {b} on chip {rank}: {a:?} vs {m:?}"));
            }
            let (a, m) = (stored.kv_heads(coord), self.kv_heads(coord));
            if a != m {
                return Err(format!("KV heads on chip {rank}: {a:?} vs {m:?}"));
            }
        }
        Ok(())
    }
}

/// The program a weight-gathered layout decodes with: the first 1D
/// weight-stationary layout on its mesh, × Batch then × Head, whose program
/// built for `s`'s batch and sequence runs on what `p`, `s` compiled,
/// stores ([`ChipProgram::runs_on`]). Gathering every weight pays only once
/// a pass carries enough tokens (Section 3.2.3, Figure 7), so the paper
/// prefills weight-gathered and decodes weight-stationary (Tables 2–3).
///
/// `Ok(None)` for every other layout: it decodes on its own program.
///
/// # Errors
///
/// A weight-gathered layout with no such partner, which decodes on its own
/// program too: why the first candidate that builds does not pass.
pub fn decode_partner(s: &Schedule, p: &ChipProgram) -> Result<Option<(Layout, ChipProgram)>, String> {
    if !matches!(s.layout.ffn, FfnLayout::WeightGathered(_)) {
        return Ok(None);
    }
    let mut first = None;
    for attn in [AttnSharding::Batch, AttnSharding::Head] {
        let layout = Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh: s.layout.mesh };
        let built = build_schedule(&p.cfg, &layout, s.batch, s.seq).and_then(|c| c.verify().map(|()| c));
        let Ok(program) = built.and_then(|c| ChipProgram::compile(&c, &p.cfg)) else { continue };
        match program.runs_on(p) {
            Ok(()) => return Ok(Some((layout, program))),
            Err(e) => {
                first.get_or_insert_with(|| format!("{}: {e}", layout.describe()));
            }
        }
    }
    Err(first.unwrap_or_else(|| "no 1D weight-stationary layout builds on its mesh".into()))
}

fn dataflow_of(layout: &Layout) -> Dataflow {
    match layout.ffn {
        FfnLayout::WeightStationary1D => Dataflow::OneD,
        FfnLayout::WeightStationary2D => Dataflow::TwoD,
        FfnLayout::WeightGathered(extent) => {
            if extent.n_gather(layout.mesh) >= layout.mesh.n_chips() {
                Dataflow::WgFull
            } else {
                let gather = match extent {
                    GatherExtent::X => AxisSet::single(Axis::X),
                    GatherExtent::Xy => AxisSet::of(&[Axis::X, Axis::Y]),
                    GatherExtent::Xyz => AxisSet::all(),
                };
                Dataflow::WgHybrid { gather, local: AxisSet::all().without(gather) }
            }
        }
    }
}

/// Schedule builder: the schedule under construction, each step appended
/// to its layer steps, or to its final steps once `finals` is set.
struct Plan {
    s: Schedule,
    finals: bool,
}

impl Plan {
    fn new(layout: &Layout, batch: usize, seq: usize, boundary: SymTensor) -> Self {
        let s = Schedule {
            layout: *layout,
            torus: TorusShape::new(layout.mesh.x, layout.mesh.y, layout.mesh.z),
            batch,
            seq,
            boundary,
            weights: Vec::new(),
            layer: Vec::new(),
            final_steps: Vec::new(),
        };
        Plan { s, finals: false }
    }

    fn push(&mut self, step: Step) -> Result<Operand, String> {
        step.output()
            .check(self.s.torus)
            .map_err(|e| format!("{}: output {e}", step.label()))?;
        let steps = if self.finals { &mut self.s.final_steps } else { &mut self.s.layer };
        steps.push(step);
        Ok(Operand::Step(self.s.layer.len() + self.s.final_steps.len() - 1))
    }

    fn collective(
        &mut self,
        label: &'static str,
        op: SymOp,
        axes: AxisSet,
        input: Operand,
    ) -> Result<Operand, String> {
        let output =
            apply_op(op, axes, self.s.tensor(input)?).map_err(|e| format!("{label}: {e}"))?;
        self.push(Step::Collective { label, op, axes, input, output, wire: WireFormat::Dense })
    }

    fn einsum(
        &mut self,
        label: &'static str,
        x: Operand,
        w: Operand,
        contract: &[char],
        out_names: &str,
    ) -> Result<Operand, String> {
        let output = expected_einsum(self.s.tensor(x)?, self.s.tensor(w)?, contract, out_names)
            .map_err(|e| format!("{label}: {e}"))?;
        self.push(Step::Einsum { label, x, w, contract: contract.to_vec(), output })
    }

    /// A local op whose output is `output`, or shaped like its first input.
    fn local(
        &mut self,
        label: &'static str,
        op: LocalOp,
        inputs: &[Operand],
        output: Option<SymTensor>,
    ) -> Result<Operand, String> {
        let output = match output {
            Some(t) => t,
            None => self.s.tensor(inputs[0])?.clone(),
        };
        self.push(Step::Local { label, op, inputs: inputs.to_vec(), output })
    }

    fn weight(&mut self, role: Role, w: SymTensor) -> Result<Operand, String> {
        w.check(self.s.torus).map_err(|e| format!("weight {w}: {e}"))?;
        self.s.weights.push((role, w));
        Ok(Operand::Weight(role))
    }
}

/// Build the symbolic schedule for `layout` applied to `cfg`, with the
/// given global batch size and sequence length, over the layout's logical
/// mesh.
///
/// Returns `Err` when the plan is invalid: an indivisible shard, an illegal
/// collective, or an unsupported combination (batch-sharded attention
/// without multiquery).
pub fn build_schedule(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
) -> Result<Schedule, String> {
    if layout.attn == AttnSharding::Batch && cfg.n_kv_heads() != 1 {
        return Err(
            "batch-sharded attention requires multiquery attention (Section 3.3)".to_string(),
        );
    }
    match dataflow_of(layout) {
        Dataflow::TwoD => build_2d(cfg, layout, batch, seq),
        Dataflow::OneD | Dataflow::WgHybrid { .. } | Dataflow::WgFull => {
            build_1d(cfg, layout, batch, seq)
        }
    }
}

/// Stores the weights 1D-sharded — heads and `d_ff` over every axis,
/// multiquery K/V replicated. Returns each sharded one's all-gather label,
/// role and sharded dimension.
fn weights_1d(p: &mut Plan, cfg: &ModelConfig) -> Result<Vec<(&'static str, Role, char)>, String> {
    let (e, f, h, d, all) = (cfg.d_model, cfg.d_ff, cfg.n_heads, cfg.d_head, AxisSet::all());
    let kv = if cfg.n_kv_heads() == 1 {
        SymTensor::new("ED", &[e, d])
    } else {
        SymTensor::new("EHD", &[e, h, d]).shard('H', all)
    };
    let mut stored = vec![
        ("wq weight all-gather", Role::Wq, SymTensor::new("EHD", &[e, h, d]).shard('H', all)),
        ("wk weight all-gather", Role::Wk, kv.clone()),
        ("wv weight all-gather", Role::Wv, kv),
        ("wo weight all-gather", Role::Wo, SymTensor::new("HDE", &[h, d, e]).shard('H', all)),
        ("w_in weight all-gather", Role::WIn, SymTensor::new("EF", &[e, f]).shard('F', all)),
        ("w_gate weight all-gather", Role::WGate, SymTensor::new("EF", &[e, f]).shard('F', all)),
        ("w_out weight all-gather", Role::WOut, SymTensor::new("FE", &[f, e]).shard('F', all)),
    ];
    if cfg.mlp != MlpKind::SwiGlu {
        stored.retain(|w| w.1 != Role::WGate);
    }
    let mut sharded = Vec::new();
    for (label, role, w) in stored {
        // Replicated (multiquery K/V) weights have nothing to gather.
        if let Some(dim) = w.spec.dims().iter().find(|dim| !dim.axes.is_empty()) {
            sharded.push((label, role, dim.name));
        }
        p.weight(role, w)?;
    }
    Ok(sharded)
}

/// The 1D weight-stationary family: pure 1D (every axis local), hybrid
/// weight-gathered (the batch sharded and weights gathered over some axes,
/// 1D over the rest) and fully weight-gathered (every axis gathered,
/// nothing local, so no activation collectives at all, Section 3.2.3).
#[allow(clippy::too_many_lines)]
fn build_1d(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
) -> Result<Schedule, String> {
    let (local, gather) = match dataflow_of(layout) {
        Dataflow::WgHybrid { gather, local } => (local, gather),
        Dataflow::WgFull => (AxisSet::empty(), AxisSet::all()),
        Dataflow::OneD | Dataflow::TwoD => (AxisSet::all(), AxisSet::empty()),
    };
    let serial = cfg.block == BlockKind::Serial;

    // Residual stream: replicated in pure 1D; batch-sharded over the gather
    // axes in the weight-gathered flows (each gather group owns a batch
    // slice).
    let boundary = SymTensor::new("BLE", &[batch, seq, cfg.d_model]).shard('B', gather);
    let mut p = Plan::new(layout, batch, seq, boundary);
    let x = Operand::Boundary;
    let sharded = weights_1d(&mut p, cfg)?;
    // Over the gather axes a sharded weight is all-gathered just before the
    // einsum that reads it, so one gathered weight is live at a time.
    let einsum = |p: &mut Plan, label, x, role, contract: &[char], out: &str| {
        let w = match sharded.iter().find(|s| s.1 == role) {
            Some(&(gather_label, _, dim)) if !gather.is_empty() => {
                let op = SymOp::AllGather { dim };
                p.collective(gather_label, op, gather, Operand::Weight(role))?
            }
            _ => Operand::Weight(role),
        };
        p.einsum(label, x, w, contract, out)
    };
    // Partial sums over the local axes resolve by all-reduce (nothing to
    // resolve when no axis is local).
    let reduce = |p: &mut Plan, label: &'static str, t: Operand| {
        if local.is_empty() {
            Ok(t)
        } else {
            p.collective(label, SymOp::AllReduce, local, t)
        }
    };

    // ---- Attention sub-block ----
    let ln1 = p.local("attn layernorm", LocalOp::LayerNorm(Gain::Attn), &[x], None)?;
    let kv = if cfg.n_kv_heads() == 1 { "BLD" } else { "BLHD" };
    let q = einsum(&mut p, "wq einsum", ln1, Role::Wq, &['E'], "BLHD")?;
    let k = einsum(&mut p, "wk einsum", ln1, Role::Wk, &['E'], kv)?;
    let v = einsum(&mut p, "wv einsum", ln1, Role::Wv, &['E'], kv)?;

    let attn_out = if layout.attn == AttnSharding::Batch && !local.is_empty() {
        // Multiquery, batch-sharded attention: all-to-all q from
        // head-sharded to batch-sharded, slice k/v locally, run attention,
        // all-to-all back (Section 3.3).
        let a2a = SymOp::AllToAll { split: 'B', concat: 'H' };
        let q_b = p.collective("attn qkv all-to-all", a2a, local, q)?;
        let kv_b = SymTensor::new("BLD", &[batch, seq, cfg.d_head]).shard('B', gather.union(local));
        let k_b = p.local("k batch slice", LocalOp::BatchSlice, &[k], Some(kv_b.clone()))?;
        let v_b = p.local("v batch slice", LocalOp::BatchSlice, &[v], Some(kv_b))?;
        let attn_b = p.local("attention", LocalOp::Attention, &[q_b, k_b, v_b], None)?;
        let a2a = SymOp::AllToAll { split: 'H', concat: 'B' };
        p.collective("attn out all-to-all", a2a, local, attn_b)?
    } else {
        p.local("attention", LocalOp::Attention, &[q, k, v], None)?
    };

    let a_part = einsum(&mut p, "wo einsum", attn_out, Role::Wo, &['H', 'D'], "BLE")?;

    // ---- MLP sub-block ----
    // A serial block reduces the attention output and adds it to the
    // residual before the MLP runs; so does a block with no local axes,
    // which has no all-reduce for the two branches to share.
    let x_mid = if serial || local.is_empty() {
        let a_full = reduce(&mut p, "attn all-reduce", a_part)?;
        Some(p.local("attn residual add", LocalOp::Add, &[x, a_full], None)?)
    } else {
        None
    };
    let ln2 = match x_mid {
        Some(x_mid) if serial => {
            p.local("mlp layernorm", LocalOp::LayerNorm(Gain::Mlp), &[x_mid], None)?
        }
        _ => ln1,
    };

    let gate = if cfg.mlp == MlpKind::SwiGlu {
        Some(einsum(&mut p, "w_gate einsum", ln2, Role::WGate, &['E'], "BLF")?)
    } else {
        None
    };
    let up = einsum(&mut p, "w_in einsum", ln2, Role::WIn, &['E'], "BLF")?;
    let act = match gate {
        Some(gate) => p.local("swiglu", LocalOp::SwiGlu, &[gate, up], None)?,
        None => p.local("nonlinearity", LocalOp::Gelu, &[up], None)?,
    };
    let m_part = einsum(&mut p, "w_out einsum", act, Role::WOut, &['F'], "BLE")?;

    // ---- Combine + residual ----
    if let Some(x_mid) = x_mid {
        let m_full = reduce(&mut p, "mlp all-reduce", m_part)?;
        p.local("mlp residual add", LocalOp::Add, &[x_mid, m_full], None)?;
    } else {
        let sum = p.local("attn+mlp add", LocalOp::Add, &[a_part, m_part], None)?;
        let full = reduce(&mut p, "block all-reduce", sum)?;
        p.local("residual add", LocalOp::Add, &[x, full], None)?;
    }

    // ---- Final layernorm + logits ----
    // Each chip's logits are those of its own rows, where the batch is
    // split: the chips that hold distinct rows each return theirs.
    p.finals = true;
    let embed_t = p.weight(Role::EmbedT, SymTensor::new("EV", &[cfg.d_model, cfg.vocab]))?;
    let xn = p.local("final layernorm", LocalOp::LayerNorm(Gain::Final), &[x], None)?;
    p.einsum("logits einsum", xn, embed_t, &['E'], "BLV")?;
    Ok(p.s)
}

#[allow(clippy::too_many_lines)]
fn build_2d(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
) -> Result<Schedule, String> {
    let e = cfg.d_model;
    let f = cfg.d_ff;
    let h = cfg.n_heads;
    let d = cfg.d_head;
    let vocab = cfg.vocab;
    let multiquery = cfg.n_kv_heads() == 1;
    let batch_attn = layout.attn == AttnSharding::Batch;
    let serial = cfg.block == BlockKind::Serial;
    let gated = cfg.mlp == MlpKind::SwiGlu;

    let ax = AxisSet::single(Axis::X);
    let ayz = AxisSet::of(&[Axis::Y, Axis::Z]);
    let all = AxisSet::all();

    // Residual stream: d_model sharded over the full mesh (E_xyz).
    let boundary = SymTensor::new("BLE", &[batch, seq, e]).shard('E', all);
    let mut p = Plan::new(layout, batch, seq, boundary);
    let x = Operand::Boundary;

    let wq = p.weight(Role::Wq, SymTensor::new("EHD", &[e, h, d]).shard('E', ax).shard('H', ayz))?;
    let kv = if multiquery {
        SymTensor::new("ED", &[e, d]).shard('E', ax)
    } else {
        SymTensor::new("EHD", &[e, h, d]).shard('E', ax).shard('H', ayz)
    };
    let wk = p.weight(Role::Wk, kv.clone())?;
    let wv = p.weight(Role::Wv, kv)?;
    let wo = p.weight(Role::Wo, SymTensor::new("HDE", &[h, d, e]).shard('H', ayz).shard('E', ax))?;
    let w_in = p.weight(Role::WIn, SymTensor::new("EF", &[e, f]).shard('E', ax).shard('F', ayz))?;
    let w_gate = if gated {
        Some(p.weight(Role::WGate, SymTensor::new("EF", &[e, f]).shard('E', ax).shard('F', ayz))?)
    } else {
        None
    };
    let w_out = p.weight(Role::WOut, SymTensor::new("FE", &[f, e]).shard('F', ayz).shard('E', ax))?;

    // Distributed layernorm over a sharded d_model: local moments, then an
    // all-reduce so every chip can normalize its slice (Section 3.2.2).
    fn layernorm(
        p: &mut Plan,
        src: Operand,
        gain: Gain,
        labels: [&'static str; 3],
    ) -> Result<Operand, String> {
        let (batch, seq) = (p.s.batch, p.s.seq);
        let moments = SymTensor::new("BLM", &[batch, seq, 2]).partial(AxisSet::all());
        let moments = p.local(labels[0], LocalOp::Moments, &[src], Some(moments))?;
        let moments_full = p.collective(labels[1], SymOp::AllReduce, AxisSet::all(), moments)?;
        p.local(labels[2], LocalOp::LayerNorm(gain), &[src, moments_full], None)
    }

    // ---- Attention sub-block ----
    let xn = layernorm(
        &mut p,
        x,
        Gain::Attn,
        ["attn moments", "attn moments all-reduce", "attn layernorm"],
    )?;
    // All-gather over yz gives each chip its x-slice of d_model (E_x).
    let x_i = p.collective("acts all-gather (yz)", SymOp::AllGather { dim: 'E' }, ayz, xn)?;
    let q_part = p.einsum("wq einsum", x_i, wq, &['E'], "BLHD")?;
    let q = p.collective("q all-reduce (x)", SymOp::AllReduce, ax, q_part)?;
    let kv_names = if multiquery { "BLD" } else { "BLHD" };
    let k_part = p.einsum("wk einsum", x_i, wk, &['E'], kv_names)?;
    let k = p.collective("k all-reduce (x)", SymOp::AllReduce, ax, k_part)?;
    let v_part = p.einsum("wv einsum", x_i, wv, &['E'], kv_names)?;
    let v = p.collective("v all-reduce (x)", SymOp::AllReduce, ax, v_part)?;

    let attn_out = if batch_attn {
        // q: B L H_yz D -> all-to-all over yz -> B_yz L H D, then slice the
        // local x-fraction of the batch, attend, and undo both moves.
        let q_b = p.collective(
            "attn qkv all-to-all (yz)",
            SymOp::AllToAll { split: 'B', concat: 'H' },
            ayz,
            q,
        )?;
        let q_bi = p.local(
            "q batch slice (x)",
            LocalOp::BatchSlice,
            &[q_b],
            Some(SymTensor::new("BLHD", &[batch, seq, h, d]).shard('B', all)),
        )?;
        let kv_b = SymTensor::new("BLD", &[batch, seq, d]).shard('B', all);
        let k_b = p.local("k batch slice", LocalOp::BatchSlice, &[k], Some(kv_b.clone()))?;
        let v_b = p.local("v batch slice", LocalOp::BatchSlice, &[v], Some(kv_b))?;
        let attn_bi = p.local("attention", LocalOp::Attention, &[q_bi, k_b, v_b], None)?;
        let attn_b = p.collective(
            "attn batch all-gather (x)",
            SymOp::AllGather { dim: 'B' },
            ax,
            attn_bi,
        )?;
        p.collective(
            "attn out all-to-all (yz)",
            SymOp::AllToAll { split: 'H', concat: 'B' },
            ayz,
            attn_b,
        )?
    } else {
        p.local("attention", LocalOp::Attention, &[q, k, v], None)?
    };

    let a_part = p.einsum("wo einsum", attn_out, wo, &['H', 'D'], "BLE")?;

    // ---- MLP sub-block ----
    let (x_mid, ln2) = if serial {
        let a_loc = p.collective(
            "attn reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            a_part,
        )?;
        let x_mid = p.local("attn residual add", LocalOp::Add, &[x, a_loc], None)?;
        let ln2 = layernorm(
            &mut p,
            x_mid,
            Gain::Mlp,
            ["mlp moments", "mlp moments all-reduce", "mlp layernorm"],
        )?;
        let ln2_i =
            p.collective("mlp acts all-gather (yz)", SymOp::AllGather { dim: 'E' }, ayz, ln2)?;
        (x_mid, ln2_i)
    } else {
        (x, x_i)
    };

    let mut gate_sharded = None;
    if let Some(wg) = w_gate {
        let gate_part = p.einsum("w_gate einsum", ln2, wg, &['E'], "BLF")?;
        gate_sharded = Some(p.collective(
            "gate reduce-scatter (x)",
            SymOp::ReduceScatter { dim: 'F' },
            ax,
            gate_part,
        )?);
    }
    let up_part = p.einsum("w_in einsum", ln2, w_in, &['E'], "BLF")?;
    let up_sharded = p.collective(
        "up reduce-scatter (x)",
        SymOp::ReduceScatter { dim: 'F' },
        ax,
        up_part,
    )?;
    let act = if let Some(g) = gate_sharded {
        p.local("swiglu", LocalOp::SwiGlu, &[g, up_sharded], None)?
    } else {
        p.local("nonlinearity", LocalOp::Gelu, &[up_sharded], None)?
    };
    let act_yz = p.collective("act all-gather (x)", SymOp::AllGather { dim: 'F' }, ax, act)?;
    let m_part = p.einsum("w_out einsum", act_yz, w_out, &['F'], "BLE")?;

    // ---- Combine + residual ----
    if serial {
        let m_loc = p.collective(
            "mlp reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            m_part,
        )?;
        p.local("mlp residual add", LocalOp::Add, &[x_mid, m_loc], None)?;
    } else {
        let sum = p.local("attn+mlp add", LocalOp::Add, &[a_part, m_part], None)?;
        let loc = p.collective(
            "block reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            sum,
        )?;
        p.local("residual add", LocalOp::Add, &[x, loc], None)?;
    }

    // ---- Final layernorm + logits ----
    // The transposed embedding is sharded E_xyz on the contraction dim, so
    // the logits come out as a partial sum over the whole mesh.
    p.finals = true;
    let embed_t = p.weight(Role::EmbedT, SymTensor::new("EV", &[e, vocab]).shard('E', all))?;
    let xn = layernorm(
        &mut p,
        x,
        Gain::Final,
        ["final moments", "final moments all-reduce", "final layernorm"],
    )?;
    let logits_part = p.einsum("logits einsum", xn, embed_t, &['E'], "BLV")?;
    p.collective("logits all-reduce", SymOp::AllReduce, all, logits_part)?;
    Ok(p.s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MeshFactors;

    fn layouts_for(mesh: MeshFactors) -> Vec<Layout> {
        let mut out = Vec::new();
        for ffn in [
            FfnLayout::WeightStationary1D,
            FfnLayout::WeightStationary2D,
            FfnLayout::WeightGathered(GatherExtent::X),
            FfnLayout::WeightGathered(GatherExtent::Xy),
            FfnLayout::WeightGathered(GatherExtent::Xyz),
        ] {
            for attn in [AttnSharding::Head, AttnSharding::Batch] {
                out.push(Layout { ffn, attn, mesh });
            }
        }
        out
    }

    #[test]
    fn tiny_model_all_layouts_verify() {
        let cfg = ModelConfig::tiny();
        for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
            let s = build_schedule(&cfg, &layout, 16, 4)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", layout.describe()));
            s.verify()
                .unwrap_or_else(|e| panic!("{}: verify failed: {e}", layout.describe()));
        }
    }

    #[test]
    fn tiny_multihead_all_layouts_verify() {
        let cfg = ModelConfig::tiny_multihead();
        for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
            if layout.attn == AttnSharding::Batch {
                // Batch-sharded attention requires multiquery.
                let err = build_schedule(&cfg, &layout, 16, 4).unwrap_err();
                assert!(err.contains("multiquery"), "unexpected error: {err}");
                continue;
            }
            let s = build_schedule(&cfg, &layout, 16, 4)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", layout.describe()));
            s.verify()
                .unwrap_or_else(|e| panic!("{}: verify failed: {e}", layout.describe()));
        }
    }

    #[test]
    fn indivisible_heads_reported() {
        // 48 heads over a 64-chip mesh: 1D weight-stationary cannot shard.
        let cfg = ModelConfig::palm_540b();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(4, 4, 4),
        };
        let err = build_schedule(&cfg, &layout, 64, 1).and_then(|s| s.verify()).unwrap_err();
        assert!(err.contains("divisible"), "unexpected error: {err}");
        // Weight-gathered boundaries shard the batch: 3 tokens cannot split
        // over a 4-chip gather group.
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let err = build_schedule(&ModelConfig::tiny(), &layout, 3, 1).unwrap_err();
        assert!(err.contains("B of size 3 not divisible"), "unexpected error: {err}");
        // d_model = 6 on 2x2x1: the 2D boundary BLE_xyz cannot shard E four
        // ways; the 1D boundary BLE leaves E whole, so 1D builds.
        let cfg = ModelConfig { d_model: 6, ..ModelConfig::tiny() };
        let layout = Layout { ffn: FfnLayout::WeightStationary2D, ..layout };
        let err = build_schedule(&cfg, &layout, 16, 1).unwrap_err();
        assert!(err.contains("E of size 6 not divisible by 4"), "unexpected error: {err}");
        let layout = Layout { ffn: FfnLayout::WeightStationary1D, ..layout };
        build_schedule(&cfg, &layout, 16, 1).and_then(|s| s.verify()).unwrap();
    }

    #[test]
    fn shipped_specs_in_paper_notation() {
        // The layer boundary and the stored w_in each layout ships, at PaLM
        // 540B (64 heads) on 64 chips. Weight-gathered layouts store the
        // weights 1D (EF_xyz) and gather them over the batch-sharded axes.
        let cfg = ModelConfig::palm_540b_padded();
        let cases = [
            (FfnLayout::WeightStationary1D, "BLE", "EF_xyz"),
            (FfnLayout::WeightStationary2D, "BLE_xyz", "E_xF_yz"),
            (FfnLayout::WeightGathered(GatherExtent::X), "B_xLE", "EF_xyz"),
            (FfnLayout::WeightGathered(GatherExtent::Xy), "B_xyLE", "EF_xyz"),
            (FfnLayout::WeightGathered(GatherExtent::Xyz), "B_xyzLE", "EF_xyz"),
        ];
        for (ffn, boundary, w_in) in cases {
            let mesh = match ffn {
                FfnLayout::WeightStationary1D => Layout::ws1d_mesh(64),
                _ => Layout::ws2d_mesh(64, cfg.d_model, cfg.d_ff),
            };
            let s = build_schedule(&cfg, &Layout { ffn, attn: AttnSharding::Head, mesh }, 64, 1)
                .unwrap();
            assert_eq!(s.boundary.spec.to_string(), boundary, "{}", ffn.name());
            assert_eq!(s.tensor(Operand::Weight(Role::WIn)).unwrap().spec.to_string(), w_in);
        }
    }

    #[test]
    fn tampered_step_caught() {
        let cfg = ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let built = build_schedule(&cfg, &layout, 16, 4).unwrap();
        let pos = built
            .layer
            .iter()
            .position(|st| st.label() == "wo einsum")
            .expect("wo einsum present");
        // Tamper: claim the wo einsum output is replicated (drops the
        // partial-sum marker without a reduce).
        let mut s = built.clone();
        if let Step::Einsum { output, .. } = &mut s.layer[pos] {
            output.spec = ShardingSpec::new("BLE");
        }
        let err = s.verify().unwrap_err();
        assert!(
            err.contains("wo einsum"),
            "error should name the tampered step: {err}"
        );
        // Tamper: the wo einsum reads its own output, a step that has not
        // run yet.
        let mut s = built;
        if let Step::Einsum { x, .. } = &mut s.layer[pos] {
            *x = Operand::Step(pos);
        }
        let err = s.verify().unwrap_err();
        assert!(
            err.contains("wo einsum") && err.contains("has not run"),
            "error should name the tampered step: {err}"
        );
    }

    #[test]
    fn missing_reduce_caught() {
        // Removing the all-reduce from the 1D layer leaves a partial sum
        // flowing toward the residual add.
        let cfg = ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let mut s = build_schedule(&cfg, &layout, 16, 4).unwrap();
        let pos = s
            .layer
            .iter()
            .position(|st| st.label() == "block all-reduce")
            .expect("block all-reduce present");
        let Step::Collective { input: partial_in, .. } = s.layer.remove(pos) else {
            unreachable!("the block all-reduce is a collective")
        };
        // The residual add followed the reduce; it now reads the partial sum.
        let Step::Local { label: "residual add", inputs, .. } = &mut s.layer[pos] else {
            panic!("the residual add follows the block all-reduce")
        };
        inputs[1] = partial_in;
        let err = s.verify().unwrap_err();
        assert!(
            err.contains("residual add") && err.contains("partial"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn residual_adds_read_the_stream_never_a_layernorm() {
        // Every flow (1D, 2D, fully and hybrid weight-gathered on a 2x2x1
        // mesh) x {parallel, serial}: a residual add's first operand is the
        // layer boundary or the serial block's attention residual add.
        for block in [BlockKind::Parallel, BlockKind::Serial] {
            let cfg = ModelConfig { block, ..ModelConfig::tiny() };
            let mut flows = Vec::new();
            for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
                let s = build_schedule(&cfg, &layout, 16, 4).unwrap();
                s.verify().unwrap_or_else(|e| panic!("{}: {e}", layout.describe()));
                flows.push(dataflow_of(&layout));
                let attn_add = s.layer.iter().position(|st| st.label() == "attn residual add");
                let mut adds = 0;
                for step in &s.layer {
                    let Step::Local { label, op, inputs, .. } = step else { continue };
                    if !label.ends_with("residual add") {
                        continue;
                    }
                    adds += 1;
                    assert_eq!(*op, LocalOp::Add, "{label}");
                    let first = inputs[0];
                    assert!(
                        first == Operand::Boundary || attn_add.map(Operand::Step) == Some(first),
                        "{} {block:?}: {label} adds onto {first:?}",
                        layout.describe()
                    );
                    if let Operand::Step(i) = first {
                        let read = &s.layer[i];
                        assert!(
                            !matches!(read, Step::Local { op: LocalOp::LayerNorm(_), .. }),
                            "{label} adds onto a layernorm output"
                        );
                    }
                }
                // Fully weight-gathered blocks add each branch in turn.
                let turn = block == BlockKind::Serial || dataflow_of(&layout) == Dataflow::WgFull;
                let expect = if turn { 2 } else { 1 };
                assert_eq!(adds, expect, "{} {block:?}", layout.describe());
            }
            for flow in [Dataflow::OneD, Dataflow::TwoD, Dataflow::WgFull] {
                assert!(flows.contains(&flow), "{flow:?} not covered");
            }
            assert!(flows.iter().any(|f| matches!(f, Dataflow::WgHybrid { .. })));
        }
    }

    #[test]
    fn apply_op_rules() {
        let torus = TorusShape::new(2, 2, 1);
        let all = AxisSet::all();
        let ax = AxisSet::single(Axis::X);

        // all-gather removes axes.
        let t = SymTensor::new("BLE", &[8, 2, 32]).shard('E', all);
        let g = apply_op(SymOp::AllGather { dim: 'E' }, all, &t).unwrap();
        assert!(g.spec.axes_of('E').is_empty());
        assert!(g.check(torus).is_ok());

        // all-gather over axes the dim is not sharded on fails.
        let t2 = SymTensor::new("BLE", &[8, 2, 32]).shard('E', ax);
        assert!(apply_op(SymOp::AllGather { dim: 'E' }, all, &t2).is_err());

        // reduce-scatter requires a partial sum.
        let t3 = SymTensor::new("BLE", &[8, 2, 32]);
        assert!(apply_op(SymOp::ReduceScatter { dim: 'E' }, all, &t3).is_err());
        let t4 = t3.clone().partial(all);
        let rs = apply_op(SymOp::ReduceScatter { dim: 'E' }, all, &t4).unwrap();
        assert_eq!(rs.spec.axes_of('E'), all);
        assert!(rs.spec.partial_sum().is_empty());

        // all-reduce clears the marker without sharding anything.
        let ar = apply_op(SymOp::AllReduce, all, &t4).unwrap();
        assert!(ar.spec.partial_sum().is_empty());
        assert!(ar.spec.axes_of('E').is_empty());

        // all-to-all moves axes between dims.
        let t5 = SymTensor::new("BLHD", &[8, 2, 4, 8]).shard('H', all);
        let a2a = apply_op(SymOp::AllToAll { split: 'B', concat: 'H' }, all, &t5).unwrap();
        assert_eq!(a2a.spec.axes_of('B'), all);
        assert!(a2a.spec.axes_of('H').is_empty());
    }

    #[test]
    fn einsum_partial_sum_propagation() {
        let all = AxisSet::all();
        let x = SymTensor::new("BLE", &[8, 2, 32]);
        let w = SymTensor::new("EF", &[32, 64]).shard('F', all);
        let out = expected_einsum(&x, &w, &['E'], "BLF").unwrap();
        assert_eq!(out.spec.axes_of('F'), all);
        assert!(out.spec.partial_sum().is_empty());

        // Contracting a sharded dim yields a partial sum.
        let w2 = SymTensor::new("FE", &[64, 32]).shard('F', all);
        let x2 = SymTensor::new("BLF", &[8, 2, 64]).shard('F', all);
        let out2 = expected_einsum(&x2, &w2, &['F'], "BLE").unwrap();
        assert_eq!(out2.spec.partial_sum(), all);

        // Mismatched contraction sharding is rejected.
        let x3 = SymTensor::new("BLF", &[8, 2, 64]);
        assert!(expected_einsum(&x3, &w2, &['F'], "BLE").is_err());
    }

    #[test]
    fn weight_dtype_marks_exactly_the_weight_gathers() {
        let cfg = ModelConfig::tiny();
        for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
            let s = build_schedule(&cfg, &layout, 16, 4).unwrap().with_weight_dtype(DType::Int8);
            s.verify()
                .unwrap_or_else(|e| panic!("{}: verify after wire marking: {e}", layout.describe()));
            for step in s.layer.iter().chain(&s.final_steps) {
                let Step::Collective { label, op, input, wire, .. } = step else { continue };
                let weight = matches!(input, Operand::Weight(_));
                assert_eq!(weight, label.ends_with("weight all-gather"), "{label}");
                if weight {
                    assert!(matches!(op, SymOp::AllGather { .. }), "{label}");
                    assert_eq!(*wire, WireFormat::Int8, "{label}");
                } else {
                    assert_eq!(*wire, WireFormat::Dense, "{label}");
                }
            }
        }
        // Non-int8 dtypes leave every collective dense.
        let layout = Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let s = build_schedule(&cfg, &layout, 16, 4).unwrap().with_weight_dtype(DType::Bf16);
        for step in s.layer.iter().chain(&s.final_steps) {
            if let Step::Collective { wire, .. } = step {
                assert_eq!(*wire, WireFormat::Dense);
            }
        }
    }

    #[test]
    fn schedule_collectives_nonempty() {
        let cfg = ModelConfig::tiny();
        for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
            let s = build_schedule(&cfg, &layout, 16, 4).unwrap();
            let p = ChipProgram::compile(&s, &cfg).unwrap();
            assert!(p.collectives(1).next().is_some(), "{}: expected at least one collective", layout.describe());
        }
    }

    /// `layout`'s partner for `cfg`, the schedule built as the engine builds
    /// it: one row per chip, one token.
    fn partner_of(cfg: &ModelConfig, layout: &Layout) -> Result<Option<Layout>, String> {
        let s = build_schedule(cfg, layout, layout.mesh.n_chips(), 1).unwrap();
        s.verify().unwrap();
        let p = ChipProgram::compile(&s, cfg).unwrap();
        decode_partner(&s, &p).map(|partner| partner.map(|(l, _)| l))
    }

    #[test]
    fn a_weight_gathered_layout_decodes_on_the_ws1d_layout_that_shares_its_shards() {
        // Eight heads, so that each of four chips holds two.
        let cfg = ModelConfig { n_heads: 8, ..ModelConfig::tiny() };
        let (batch, head) = (AttnSharding::Batch, AttnSharding::Head);
        let wg = FfnLayout::WeightGathered;
        let ws1d = |attn, mesh| Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh };
        let mut paired = Vec::new();
        for (x, y, z) in [(2, 2, 1), (4, 1, 1), (1, 2, 2)] {
            let mesh = MeshFactors::new(x, y, z);
            for attn in [batch, head] {
                paired.push((Layout { ffn: wg(GatherExtent::Xyz), attn, mesh }, ws1d(batch, mesh)));
            }
        }
        let mesh = MeshFactors::new(1, 2, 2);
        paired.push((Layout { ffn: wg(GatherExtent::X), attn: head, mesh }, ws1d(head, mesh)));
        for (layout, partner) in paired {
            let got = partner_of(&cfg, &layout);
            assert_eq!(got, Ok(Some(partner)), "{}", layout.describe());
        }

        // Hybrid gathers put their gather axes innermost, which moves Wq's
        // heads between chips: no partner stores the same cut.
        for (extent, mesh) in [(GatherExtent::X, MeshFactors::new(2, 2, 1)), (GatherExtent::Xy, mesh)] {
            for attn in [batch, head] {
                let layout = Layout { ffn: wg(extent), attn, mesh };
                let err = partner_of(&cfg, &layout).unwrap_err();
                assert!(err.ends_with("Wq on chip 1, dim H: (4, 2) vs (2, 2)"), "{}: {err}", layout.describe());
            }
        }

        // Weight-stationary layouts decode on their own program.
        for layout in layouts_for(MeshFactors::new(2, 2, 1)) {
            if !matches!(layout.ffn, FfnLayout::WeightGathered(_)) {
                assert_eq!(partner_of(&cfg, &layout), Ok(None), "{}", layout.describe());
            }
        }
    }

    #[test]
    fn runs_on_compares_every_weight_cut_and_the_kv_cut() {
        let cfg = ModelConfig::tiny();
        let mesh = MeshFactors::new(2, 2, 1);
        let compile = |ffn, attn| {
            let s = build_schedule(&cfg, &Layout { ffn, attn, mesh }, 4, 1).unwrap();
            ChipProgram::compile(&s, &cfg).unwrap()
        };
        let (batch, head) = (AttnSharding::Batch, AttnSharding::Head);
        let ws1d = compile(FfnLayout::WeightStationary1D, batch);
        for layout in layouts_for(mesh) {
            if let Ok(s) = build_schedule(&cfg, &layout, 4, 1) {
                let p = ChipProgram::compile(&s, &cfg).unwrap();
                assert_eq!(p.runs_on(&p), Ok(()), "{}", layout.describe());
            }
        }
        // The same weights, KV rows split four ways against whole.
        let err = compile(FfnLayout::WeightStationary1D, head).runs_on(&ws1d).unwrap_err();
        assert_eq!(err, "KV spans: 4 vs 1");
        // 2D stores E_x F_yz: the first weight is cut differently.
        let err = ws1d.runs_on(&compile(FfnLayout::WeightStationary2D, batch)).unwrap_err();
        assert!(err.starts_with("Wq: stored as"), "{err}");
    }
}
