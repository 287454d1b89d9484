//! Symbolic per-chip execution schedules for every built-in layout.
//!
//! This module mirrors the dataflows implemented by the partitioned runtime
//! (`esti-runtime`) at the level of the paper's partitioning algebra
//! (Section 3.2): each step is either a collective, an einsum, or a local
//! op, and each intermediate tensor carries a [`ShardingSpec`] plus a
//! global (unsharded) shape. A [`Schedule`] can be *verified* — every
//! collective must be legal under the sharding-algebra rewrite rules,
//! every einsum's output sharding must follow from its inputs, and every
//! local shape must divide evenly over the mesh axes it is sharded on.
//!
//! Schedules are built over the layout's *logical* mesh
//! (`TorusShape::new(mesh.x, mesh.y, mesh.z)`), matching the runtime's
//! rank arithmetic rather than a physical slice shape.
//!
//! The static analyzer (`esti-verify`) consumes these schedules for its
//! SPMD-conformance pass, and [`preflight`] is wired into the runtime
//! engine so an invalid partition plan fails fast with a description of
//! the offending step instead of a shape panic deep inside a worker
//! thread.

use crate::layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
use crate::sharding::ShardingSpec;
use esti_hal::DType;
use esti_model::{BlockKind, MlpKind, ModelConfig};
use esti_topology::{Axis, AxisSet, TorusShape};

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
pub fn apply_op(op: SymOp, axes: AxisSet, input: &SymTensor) -> Result<SymTensor, String> {
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
pub fn expected_einsum(
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
/// annotation: sharding semantics are identical for both formats, but the
/// quant-dataflow pass in `esti-verify` checks byte accounting and scale
/// provenance against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Dense activation/weight payload.
    Dense,
    /// Quantized payload: int8 values + per-column f32 scales (Section 3.6).
    Int8,
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
        /// Sharding before the collective.
        input: SymTensor,
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
        x: SymTensor,
        /// Weight operand.
        w: SymTensor,
        /// Contracted dimension names.
        contract: Vec<char>,
        /// Declared output (checked against [`expected_einsum`]).
        output: SymTensor,
    },
    /// A chip-local op (layernorm, softmax-attention, nonlinearity, residual
    /// add, batch slice, ...). Never communicates; may not resolve partial
    /// sums and may not materialize data the chip does not hold.
    Local {
        /// Human-readable step name for diagnostics.
        label: &'static str,
        /// If true, every input must be partial-sum free (the op is
        /// nonlinear, e.g. softmax or a layernorm divide).
        needs_full: bool,
        /// Input tensors (must already be available on-chip).
        inputs: Vec<SymTensor>,
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
    /// Per-layer weight tensors, as stored on chip.
    pub weights: Vec<SymTensor>,
    /// Steps executed by every layer.
    pub layer: Vec<Step>,
    /// Weights used by the final (post-stack) steps.
    pub final_weights: Vec<SymTensor>,
    /// Steps executed once after the layer stack (final layernorm + logits).
    pub final_steps: Vec<Step>,
}

impl Schedule {
    /// Verify the whole schedule: boundary and weights well-formed, every
    /// step's declared output reproducible from the rewrite rules, every
    /// intermediate divisible, and the layer body closed over the boundary
    /// sharding (residual invariant).
    pub fn verify(&self) -> Result<(), String> {
        self.boundary
            .check(self.torus)
            .map_err(|e| format!("layer boundary: {e}"))?;
        for w in self.weights.iter().chain(&self.final_weights) {
            w.check(self.torus).map_err(|e| format!("weight {w}: {e}"))?;
        }

        let mut avail: Vec<SymTensor> = vec![self.boundary.clone()];
        avail.extend(self.weights.iter().cloned());
        let last = walk_steps(&self.layer, &mut avail, self.torus)?;
        if let Some(out) = last {
            if out != self.boundary {
                return Err(format!(
                    "residual invariant violated: layer produces {out} but entered with {}",
                    self.boundary
                ));
            }
        }

        let mut avail: Vec<SymTensor> = vec![self.boundary.clone()];
        avail.extend(self.final_weights.iter().cloned());
        walk_steps(&self.final_steps, &mut avail, self.torus)?;
        Ok(())
    }

    /// All collective steps: one layer iteration followed by the final
    /// steps, in execution order.
    #[must_use]
    pub fn collectives(&self) -> Vec<&Step> {
        self.layer
            .iter()
            .chain(&self.final_steps)
            .filter(|s| matches!(s, Step::Collective { .. }))
            .collect()
    }

    /// Annotate the wire format the runtime uses for this weight storage
    /// dtype: with [`DType::Int8`], every per-layer weight all-gather moves
    /// quantized (int8 values + per-column f32 scales, Section 3.6) —
    /// exactly the steps the engine's weight gathers quantize, in both the
    /// fully weight-gathered and hybrid dataflows.
    /// All other dtypes leave the schedule dense.
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> Self {
        if dtype != DType::Int8 {
            return self;
        }
        for step in self.layer.iter_mut().chain(&mut self.final_steps) {
            if let Step::Collective { label, op: SymOp::AllGather { .. }, wire, .. } = step {
                if label.ends_with("weight all-gather") {
                    *wire = WireFormat::Int8;
                }
            }
        }
        self
    }
}

/// Walk a step list, verifying each step against the available tensors and
/// the rewrite rules. Returns the last step's output (if any steps exist).
fn walk_steps(
    steps: &[Step],
    avail: &mut Vec<SymTensor>,
    torus: TorusShape,
) -> Result<Option<SymTensor>, String> {
    let mut last: Option<SymTensor> = None;
    for step in steps {
        let label = step.label();
        match step {
            Step::Collective { op, axes, input, output, .. } => {
                require_avail(avail, input, label)?;
                let expect = apply_op(*op, *axes, input).map_err(|e| format!("{label}: {e}"))?;
                if expect != *output {
                    return Err(format!(
                        "{label}: declared output {output} but {op} over {axes} yields {expect}"
                    ));
                }
            }
            Step::Einsum { x, w, contract, output, .. } => {
                require_avail(avail, x, label)?;
                require_avail(avail, w, label)?;
                let names: String = output.spec.dims().iter().map(|d| d.name).collect();
                let expect = expected_einsum(x, w, contract, &names)
                    .map_err(|e| format!("{label}: {e}"))?;
                if expect != *output {
                    return Err(format!(
                        "{label}: declared output {output} but einsum yields {expect}"
                    ));
                }
            }
            Step::Local { needs_full, inputs, output, .. } => {
                let mut in_partial = AxisSet::empty();
                for input in inputs {
                    require_avail(avail, input, label)?;
                    if *needs_full && !input.spec.partial_sum().is_empty() {
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
                for input in inputs {
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
            .check(torus)
            .map_err(|e| format!("{label}: output {e}"))?;
        avail.push(step.output().clone());
        last = Some(step.output().clone());
    }
    Ok(last)
}

fn require_avail(avail: &[SymTensor], t: &SymTensor, label: &str) -> Result<(), String> {
    if avail.contains(t) {
        Ok(())
    } else {
        Err(format!("{label}: input {t} is not available on-chip at this point"))
    }
}

/// Internal dataflow family, mirroring the runtime's private `Dataflow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    OneD,
    TwoD,
    WgFull,
    WgHybrid { gather: AxisSet, local: AxisSet },
}

fn flow_of(layout: &Layout) -> Flow {
    match layout.ffn {
        FfnLayout::WeightStationary1D => Flow::OneD,
        FfnLayout::WeightStationary2D => Flow::TwoD,
        FfnLayout::WeightGathered(extent) => {
            if extent.n_gather(layout.mesh) >= layout.mesh.n_chips() {
                Flow::WgFull
            } else {
                let gather = match extent {
                    GatherExtent::X => AxisSet::single(Axis::X),
                    GatherExtent::Xy => AxisSet::of(&[Axis::X, Axis::Y]),
                    GatherExtent::Xyz => AxisSet::all(),
                };
                Flow::WgHybrid { gather, local: AxisSet::all().without(gather) }
            }
        }
    }
}

/// Error-returning schedule builder state.
struct Plan {
    torus: TorusShape,
    steps: Vec<Step>,
    weights: Vec<SymTensor>,
}

impl Plan {
    fn collective(
        &mut self,
        label: &'static str,
        op: SymOp,
        axes: AxisSet,
        input: &SymTensor,
    ) -> Result<SymTensor, String> {
        let output = apply_op(op, axes, input).map_err(|e| format!("{label}: {e}"))?;
        output
            .check(self.torus)
            .map_err(|e| format!("{label}: output {e}"))?;
        self.steps.push(Step::Collective {
            label,
            op,
            axes,
            input: input.clone(),
            output: output.clone(),
            wire: WireFormat::Dense,
        });
        Ok(output)
    }

    fn einsum(
        &mut self,
        label: &'static str,
        x: &SymTensor,
        w: &SymTensor,
        contract: &[char],
        out_names: &str,
    ) -> Result<SymTensor, String> {
        let output =
            expected_einsum(x, w, contract, out_names).map_err(|e| format!("{label}: {e}"))?;
        output
            .check(self.torus)
            .map_err(|e| format!("{label}: output {e}"))?;
        self.steps.push(Step::Einsum {
            label,
            x: x.clone(),
            w: w.clone(),
            contract: contract.to_vec(),
            output: output.clone(),
        });
        Ok(output)
    }

    fn local(
        &mut self,
        label: &'static str,
        needs_full: bool,
        inputs: &[&SymTensor],
        output: SymTensor,
    ) -> Result<SymTensor, String> {
        output
            .check(self.torus)
            .map_err(|e| format!("{label}: output {e}"))?;
        self.steps.push(Step::Local {
            label,
            needs_full,
            inputs: inputs.iter().map(|t| (*t).clone()).collect(),
            output: output.clone(),
        });
        Ok(output)
    }

    fn weight(&mut self, w: SymTensor) -> Result<SymTensor, String> {
        w.check(self.torus).map_err(|e| format!("weight {w}: {e}"))?;
        self.weights.push(w.clone());
        Ok(w)
    }

    fn take(&mut self) -> Vec<Step> {
        std::mem::take(&mut self.steps)
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
    match flow_of(layout) {
        Flow::OneD => build_1d(cfg, layout, batch, seq, AxisSet::all(), AxisSet::empty()),
        Flow::WgHybrid { gather, local } => build_1d(cfg, layout, batch, seq, local, gather),
        Flow::TwoD => build_2d(cfg, layout, batch, seq),
        Flow::WgFull => build_wg_full(cfg, layout, batch, seq),
    }
}

fn logical_torus(layout: &Layout) -> TorusShape {
    TorusShape::new(layout.mesh.x, layout.mesh.y, layout.mesh.z)
}

#[allow(clippy::too_many_lines)]
fn build_1d(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
    local_axes: AxisSet,
    gather_axes: AxisSet,
) -> Result<Schedule, String> {
    let torus = logical_torus(layout);
    let hybrid = !gather_axes.is_empty();
    let e = cfg.d_model;
    let f = cfg.d_ff;
    let h = cfg.n_heads;
    let d = cfg.d_head;
    let vocab = cfg.vocab;
    let multiquery = cfg.n_kv_heads() == 1;
    let batch_attn = layout.attn == AttnSharding::Batch;
    let serial = cfg.block == BlockKind::Serial;
    let gated = cfg.mlp == MlpKind::SwiGlu;

    let mut p = Plan { torus, steps: Vec::new(), weights: Vec::new() };

    // Residual stream: replicated in pure 1D; batch-sharded over the gather
    // axes in the hybrid weight-gathered flow (each gather group owns a
    // batch slice).
    let x = if hybrid {
        SymTensor::new("BLE", &[batch, seq, e]).shard('B', gather_axes)
    } else {
        SymTensor::new("BLE", &[batch, seq, e])
    };

    // Stored weights: head/ffn dims sharded over ALL axes; in the hybrid
    // flow they are all-gathered over `gather_axes` each layer down to the
    // local axes before use.
    let all = AxisSet::all();
    let wq_stored = p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?;
    let (wk_stored, wv_stored) = if multiquery {
        (
            p.weight(SymTensor::new("ED", &[e, d]))?,
            p.weight(SymTensor::new("ED", &[e, d]))?,
        )
    } else {
        (
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?,
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?,
        )
    };
    let wo_stored = p.weight(SymTensor::new("HDE", &[h, d, e]).shard('H', all))?;
    let w_in_stored = p.weight(SymTensor::new("EF", &[e, f]).shard('F', all))?;
    let w_gate_stored = if gated {
        Some(p.weight(SymTensor::new("EF", &[e, f]).shard('F', all))?)
    } else {
        None
    };
    let w_out_stored = p.weight(SymTensor::new("FE", &[f, e]).shard('F', all))?;

    // Hybrid: all-gather weights over the gather axes at layer entry.
    let (wq, wk, wv, wo, w_in, w_gate, w_out) = if hybrid {
        let wq = p.collective(
            "wq weight all-gather",
            SymOp::AllGather { dim: 'H' },
            gather_axes,
            &wq_stored,
        )?;
        let (wk, wv) = if multiquery {
            (wk_stored.clone(), wv_stored.clone())
        } else {
            (
                p.collective(
                    "wk weight all-gather",
                    SymOp::AllGather { dim: 'H' },
                    gather_axes,
                    &wk_stored,
                )?,
                p.collective(
                    "wv weight all-gather",
                    SymOp::AllGather { dim: 'H' },
                    gather_axes,
                    &wv_stored,
                )?,
            )
        };
        let wo = p.collective(
            "wo weight all-gather",
            SymOp::AllGather { dim: 'H' },
            gather_axes,
            &wo_stored,
        )?;
        let w_in = p.collective(
            "w_in weight all-gather",
            SymOp::AllGather { dim: 'F' },
            gather_axes,
            &w_in_stored,
        )?;
        let w_gate = match &w_gate_stored {
            Some(wg) => Some(p.collective(
                "w_gate weight all-gather",
                SymOp::AllGather { dim: 'F' },
                gather_axes,
                wg,
            )?),
            None => None,
        };
        let w_out = p.collective(
            "w_out weight all-gather",
            SymOp::AllGather { dim: 'F' },
            gather_axes,
            &w_out_stored,
        )?;
        (wq, wk, wv, wo, w_in, w_gate, w_out)
    } else {
        (
            wq_stored,
            wk_stored,
            wv_stored,
            wo_stored,
            w_in_stored,
            w_gate_stored,
            w_out_stored,
        )
    };

    // ---- Attention sub-block ----
    let b_axes = x.axes_of('B').unwrap_or_else(AxisSet::empty);
    let ln1 = p.local("attn layernorm", true, &[&x], x.clone())?;

    let q = p.einsum("wq einsum", &ln1, &wq, &['E'], "BLHD")?;
    let (k, v) = if multiquery {
        (
            p.einsum("wk einsum", &ln1, &wk, &['E'], "BLD")?,
            p.einsum("wv einsum", &ln1, &wv, &['E'], "BLD")?,
        )
    } else {
        (
            p.einsum("wk einsum", &ln1, &wk, &['E'], "BLHD")?,
            p.einsum("wv einsum", &ln1, &wv, &['E'], "BLHD")?,
        )
    };

    let attn_out = if batch_attn {
        // Multiquery, batch-sharded attention: all-to-all q from
        // head-sharded to batch-sharded, slice k/v locally, run attention,
        // all-to-all back (Section 3.3).
        let q_b = p.collective(
            "attn qkv all-to-all",
            SymOp::AllToAll { split: 'B', concat: 'H' },
            local_axes,
            &q,
        )?;
        let full_b = b_axes.union(local_axes);
        let k_b = p.local(
            "k batch slice",
            false,
            &[&k],
            SymTensor::new("BLD", &[batch, seq, d]).shard('B', full_b),
        )?;
        let v_b = p.local(
            "v batch slice",
            false,
            &[&v],
            SymTensor::new("BLD", &[batch, seq, d]).shard('B', full_b),
        )?;
        let attn_b = p.local("attention", true, &[&q_b, &k_b, &v_b], q_b.clone())?;
        p.collective(
            "attn out all-to-all",
            SymOp::AllToAll { split: 'H', concat: 'B' },
            local_axes,
            &attn_b,
        )?
    } else {
        p.local("attention", true, &[&q, &k, &v], q.clone())?
    };

    let a_part = p.einsum("wo einsum", &attn_out, &wo, &['H', 'D'], "BLE")?;

    // ---- MLP sub-block ----
    let ln2_src = if serial {
        // Serial block: attention output is reduced and added to the
        // residual before the MLP runs.
        let a_full = p.collective("attn all-reduce", SymOp::AllReduce, local_axes, &a_part)?;
        let x_mid = p.local("attn residual add", false, &[&x, &a_full], x.clone())?;
        p.local("mlp layernorm", true, &[&x_mid], x_mid.clone())?
    } else {
        ln1.clone()
    };

    let up = p.einsum("w_in einsum", &ln2_src, &w_in, &['E'], "BLF")?;
    let act = if let Some(wg) = &w_gate {
        let gate = p.einsum("w_gate einsum", &ln2_src, wg, &['E'], "BLF")?;
        p.local("swiglu", true, &[&up, &gate], up.clone())?
    } else {
        p.local("nonlinearity", true, &[&up], up.clone())?
    };
    let m_part = p.einsum("w_out einsum", &act, &w_out, &['F'], "BLE")?;

    // ---- Combine + residual ----
    if serial {
        let m_full = p.collective("mlp all-reduce", SymOp::AllReduce, local_axes, &m_part)?;
        p.local("mlp residual add", false, &[&ln2_src, &m_full], x.clone())?;
    } else {
        let sum = p.local("attn+mlp add", false, &[&a_part, &m_part], m_part.clone())?;
        let full = p.collective("block all-reduce", SymOp::AllReduce, local_axes, &sum)?;
        p.local("residual add", false, &[&x, &full], x.clone())?;
    }
    let layer = p.take();
    let weights = std::mem::take(&mut p.weights);

    // ---- Final layernorm + logits ----
    let embed_t = SymTensor::new("EV", &[e, vocab]);
    p.weights.push(embed_t.clone());
    let xn = p.local("final layernorm", true, &[&x], x.clone())?;
    p.einsum("logits einsum", &xn, &embed_t, &['E'], "BLV")?;
    let final_steps = p.take();
    let final_weights = std::mem::take(&mut p.weights);

    Ok(Schedule {
        layout: *layout,
        torus,
        batch,
        seq,
        boundary: x,
        weights,
        layer,
        final_weights,
        final_steps,
    })
}

#[allow(clippy::too_many_lines)]
fn build_2d(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
) -> Result<Schedule, String> {
    let torus = logical_torus(layout);
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

    let mut p = Plan { torus, steps: Vec::new(), weights: Vec::new() };

    // Residual stream: d_model sharded over the full mesh (E_xyz).
    let x = SymTensor::new("BLE", &[batch, seq, e]).shard('E', all);

    let wq = p.weight(SymTensor::new("EHD", &[e, h, d]).shard('E', ax).shard('H', ayz))?;
    let (wk, wv) = if multiquery {
        (
            p.weight(SymTensor::new("ED", &[e, d]).shard('E', ax))?,
            p.weight(SymTensor::new("ED", &[e, d]).shard('E', ax))?,
        )
    } else {
        (
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('E', ax).shard('H', ayz))?,
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('E', ax).shard('H', ayz))?,
        )
    };
    let wo = p.weight(SymTensor::new("HDE", &[h, d, e]).shard('H', ayz).shard('E', ax))?;
    let w_in = p.weight(SymTensor::new("EF", &[e, f]).shard('E', ax).shard('F', ayz))?;
    let w_gate = if gated {
        Some(p.weight(SymTensor::new("EF", &[e, f]).shard('E', ax).shard('F', ayz))?)
    } else {
        None
    };
    let w_out = p.weight(SymTensor::new("FE", &[f, e]).shard('F', ayz).shard('E', ax))?;

    // Distributed layernorm over a sharded d_model: local moments, then an
    // all-reduce so every chip can normalize its slice (Section 3.2.2).
    fn layernorm(
        p: &mut Plan,
        src: &SymTensor,
        batch: usize,
        seq: usize,
        labels: [&'static str; 3],
    ) -> Result<SymTensor, String> {
        let moments = p.local(
            labels[0],
            false,
            &[src],
            SymTensor::new("BLM", &[batch, seq, 2]).partial(AxisSet::all()),
        )?;
        let moments_full = p.collective(labels[1], SymOp::AllReduce, AxisSet::all(), &moments)?;
        p.local(labels[2], true, &[src, &moments_full], src.clone())
    }

    // ---- Attention sub-block ----
    let xn = layernorm(
        &mut p,
        &x,
        batch,
        seq,
        ["attn moments", "attn moments all-reduce", "attn layernorm"],
    )?;
    // All-gather over yz gives each chip its x-slice of d_model (E_x).
    let x_i = p.collective("acts all-gather (yz)", SymOp::AllGather { dim: 'E' }, ayz, &xn)?;
    let q_part = p.einsum("wq einsum", &x_i, &wq, &['E'], "BLHD")?;
    let q = p.collective("q all-reduce (x)", SymOp::AllReduce, ax, &q_part)?;
    let kv_names = if multiquery { "BLD" } else { "BLHD" };
    let k_part = p.einsum("wk einsum", &x_i, &wk, &['E'], kv_names)?;
    let k = p.collective("k all-reduce (x)", SymOp::AllReduce, ax, &k_part)?;
    let v_part = p.einsum("wv einsum", &x_i, &wv, &['E'], kv_names)?;
    let v = p.collective("v all-reduce (x)", SymOp::AllReduce, ax, &v_part)?;

    let attn_out = if batch_attn {
        // q: B L H_yz D -> all-to-all over yz -> B_yz L H D, then slice the
        // local x-fraction of the batch, attend, and undo both moves.
        let q_b = p.collective(
            "attn qkv all-to-all (yz)",
            SymOp::AllToAll { split: 'B', concat: 'H' },
            ayz,
            &q,
        )?;
        let q_bi = p.local(
            "q batch slice (x)",
            false,
            &[&q_b],
            SymTensor::new("BLHD", &[batch, seq, h, d]).shard('B', all),
        )?;
        let k_b = p.local(
            "k batch slice",
            false,
            &[&k],
            SymTensor::new("BLD", &[batch, seq, d]).shard('B', all),
        )?;
        let v_b = p.local(
            "v batch slice",
            false,
            &[&v],
            SymTensor::new("BLD", &[batch, seq, d]).shard('B', all),
        )?;
        let attn_bi = p.local("attention", true, &[&q_bi, &k_b, &v_b], q_bi.clone())?;
        let attn_b = p.collective(
            "attn batch all-gather (x)",
            SymOp::AllGather { dim: 'B' },
            ax,
            &attn_bi,
        )?;
        p.collective(
            "attn out all-to-all (yz)",
            SymOp::AllToAll { split: 'H', concat: 'B' },
            ayz,
            &attn_b,
        )?
    } else {
        p.local("attention", true, &[&q, &k, &v], q.clone())?
    };

    let a_part = p.einsum("wo einsum", &attn_out, &wo, &['H', 'D'], "BLE")?;

    // ---- MLP sub-block ----
    let (x_mid, ln2) = if serial {
        let a_loc = p.collective(
            "attn reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            &a_part,
        )?;
        let x_mid = p.local("attn residual add", false, &[&x, &a_loc], x.clone())?;
        let ln2 = layernorm(
            &mut p,
            &x_mid,
            batch,
            seq,
            ["mlp moments", "mlp moments all-reduce", "mlp layernorm"],
        )?;
        let ln2_i = p.collective(
            "mlp acts all-gather (yz)",
            SymOp::AllGather { dim: 'E' },
            ayz,
            &ln2,
        )?;
        (Some(x_mid), ln2_i)
    } else {
        (None, x_i.clone())
    };

    let mut gate_sharded = None;
    if let Some(wg) = &w_gate {
        let gate_part = p.einsum("w_gate einsum", &ln2, wg, &['E'], "BLF")?;
        gate_sharded = Some(p.collective(
            "gate reduce-scatter (x)",
            SymOp::ReduceScatter { dim: 'F' },
            ax,
            &gate_part,
        )?);
    }
    let up_part = p.einsum("w_in einsum", &ln2, &w_in, &['E'], "BLF")?;
    let up_sharded = p.collective(
        "up reduce-scatter (x)",
        SymOp::ReduceScatter { dim: 'F' },
        ax,
        &up_part,
    )?;
    let act = if let Some(g) = &gate_sharded {
        p.local("swiglu", true, &[&up_sharded, g], up_sharded.clone())?
    } else {
        p.local("nonlinearity", true, &[&up_sharded], up_sharded.clone())?
    };
    let act_yz = p.collective("act all-gather (x)", SymOp::AllGather { dim: 'F' }, ax, &act)?;
    let m_part = p.einsum("w_out einsum", &act_yz, &w_out, &['F'], "BLE")?;

    // ---- Combine + residual ----
    if serial {
        let m_loc = p.collective(
            "mlp reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            &m_part,
        )?;
        let x_mid = x_mid.expect("serial block always has a mid residual");
        p.local("mlp residual add", false, &[&x_mid, &m_loc], x.clone())?;
    } else {
        let sum = p.local("attn+mlp add", false, &[&a_part, &m_part], m_part.clone())?;
        let loc = p.collective(
            "block reduce-scatter (yz)",
            SymOp::ReduceScatter { dim: 'E' },
            ayz,
            &sum,
        )?;
        p.local("residual add", false, &[&x, &loc], x.clone())?;
    }
    let layer = p.take();
    let weights = std::mem::take(&mut p.weights);

    // ---- Final layernorm + logits ----
    // The transposed embedding is sharded E_xyz on the contraction dim, so
    // the logits come out as a partial sum over the whole mesh.
    let embed_t = SymTensor::new("EV", &[e, vocab]).shard('E', all);
    p.weights.push(embed_t.clone());
    let xn = layernorm(
        &mut p,
        &x,
        batch,
        seq,
        ["final moments", "final moments all-reduce", "final layernorm"],
    )?;
    let logits_part = p.einsum("logits einsum", &xn, &embed_t, &['E'], "BLV")?;
    p.collective("logits all-reduce", SymOp::AllReduce, all, &logits_part)?;
    let final_steps = p.take();
    let final_weights = std::mem::take(&mut p.weights);

    Ok(Schedule {
        layout: *layout,
        torus,
        batch,
        seq,
        boundary: x,
        weights,
        layer,
        final_weights,
        final_steps,
    })
}

#[allow(clippy::too_many_lines)]
fn build_wg_full(
    cfg: &ModelConfig,
    layout: &Layout,
    batch: usize,
    seq: usize,
) -> Result<Schedule, String> {
    let torus = logical_torus(layout);
    let e = cfg.d_model;
    let f = cfg.d_ff;
    let h = cfg.n_heads;
    let d = cfg.d_head;
    let vocab = cfg.vocab;
    let multiquery = cfg.n_kv_heads() == 1;
    let serial = cfg.block == BlockKind::Serial;
    let gated = cfg.mlp == MlpKind::SwiGlu;
    let all = AxisSet::all();

    let mut p = Plan { torus, steps: Vec::new(), weights: Vec::new() };

    // Fully weight-gathered: activations batch-sharded over the whole mesh,
    // weights gathered from their stored sharding each layer.
    let x = SymTensor::new("BLE", &[batch, seq, e]).shard('B', all);

    let wq_stored = p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?;
    let (wk_stored, wv_stored) = if multiquery {
        (
            p.weight(SymTensor::new("ED", &[e, d]))?,
            p.weight(SymTensor::new("ED", &[e, d]))?,
        )
    } else {
        (
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?,
            p.weight(SymTensor::new("EHD", &[e, h, d]).shard('H', all))?,
        )
    };
    let wo_stored = p.weight(SymTensor::new("HDE", &[h, d, e]).shard('H', all))?;
    let w_in_stored = p.weight(SymTensor::new("EF", &[e, f]).shard('F', all))?;
    let w_gate_stored = if gated {
        Some(p.weight(SymTensor::new("EF", &[e, f]).shard('F', all))?)
    } else {
        None
    };
    let w_out_stored = p.weight(SymTensor::new("FE", &[f, e]).shard('F', all))?;

    let wq = p.collective(
        "wq weight all-gather",
        SymOp::AllGather { dim: 'H' },
        all,
        &wq_stored,
    )?;
    let (wk, wv) = if multiquery {
        (wk_stored.clone(), wv_stored.clone())
    } else {
        (
            p.collective(
                "wk weight all-gather",
                SymOp::AllGather { dim: 'H' },
                all,
                &wk_stored,
            )?,
            p.collective(
                "wv weight all-gather",
                SymOp::AllGather { dim: 'H' },
                all,
                &wv_stored,
            )?,
        )
    };
    let wo = p.collective(
        "wo weight all-gather",
        SymOp::AllGather { dim: 'H' },
        all,
        &wo_stored,
    )?;
    let w_in = p.collective(
        "w_in weight all-gather",
        SymOp::AllGather { dim: 'F' },
        all,
        &w_in_stored,
    )?;
    let w_gate = match &w_gate_stored {
        Some(wg) => Some(p.collective(
            "w_gate weight all-gather",
            SymOp::AllGather { dim: 'F' },
            all,
            wg,
        )?),
        None => None,
    };
    let w_out = p.collective(
        "w_out weight all-gather",
        SymOp::AllGather { dim: 'F' },
        all,
        &w_out_stored,
    )?;

    // With full weights on chip the whole layer is local over the batch
    // slice — no activation collectives at all (Section 3.2.3).
    let ln1 = p.local("attn layernorm", true, &[&x], x.clone())?;
    let q = p.einsum("wq einsum", &ln1, &wq, &['E'], "BLHD")?;
    let kv_names = if multiquery { "BLD" } else { "BLHD" };
    let k = p.einsum("wk einsum", &ln1, &wk, &['E'], kv_names)?;
    let v = p.einsum("wv einsum", &ln1, &wv, &['E'], kv_names)?;
    let attn_out = p.local("attention", true, &[&q, &k, &v], q.clone())?;
    let a_full = p.einsum("wo einsum", &attn_out, &wo, &['H', 'D'], "BLE")?;

    let ln2_src = if serial {
        let x_mid = p.local("attn residual add", false, &[&x, &a_full], x.clone())?;
        p.local("mlp layernorm", true, &[&x_mid], x_mid.clone())?
    } else {
        ln1.clone()
    };
    let up = p.einsum("w_in einsum", &ln2_src, &w_in, &['E'], "BLF")?;
    let act = if let Some(wg) = &w_gate {
        let gate = p.einsum("w_gate einsum", &ln2_src, wg, &['E'], "BLF")?;
        p.local("swiglu", true, &[&up, &gate], up.clone())?
    } else {
        p.local("nonlinearity", true, &[&up], up.clone())?
    };
    let m_full = p.einsum("w_out einsum", &act, &w_out, &['F'], "BLE")?;

    if serial {
        p.local("mlp residual add", false, &[&ln2_src, &m_full], x.clone())?;
    } else {
        let sum = p.local("attn+mlp add", false, &[&a_full, &m_full], m_full.clone())?;
        p.local("residual add", false, &[&x, &sum], x.clone())?;
    }
    let layer = p.take();
    let weights = std::mem::take(&mut p.weights);

    // ---- Final layernorm + logits, then gather the batch shards ----
    let embed_t = SymTensor::new("EV", &[e, vocab]);
    p.weights.push(embed_t.clone());
    let xn = p.local("final layernorm", true, &[&x], x.clone())?;
    let logits_loc = p.einsum("logits einsum", &xn, &embed_t, &['E'], "BLV")?;
    p.collective(
        "logits batch all-gather",
        SymOp::AllGather { dim: 'B' },
        all,
        &logits_loc,
    )?;
    let final_steps = p.take();
    let final_weights = std::mem::take(&mut p.weights);

    Ok(Schedule {
        layout: *layout,
        torus,
        batch,
        seq,
        boundary: x,
        weights,
        layer,
        final_weights,
        final_steps,
    })
}

/// Build and verify the schedule for `layout` with the smallest batch the
/// runtime itself would accept (`batch = n_chips`, `seq = 1`): any
/// divisibility failure reported here is a property of the plan, not of a
/// particular request size.
pub fn preflight(cfg: &ModelConfig, layout: &Layout) -> Result<(), String> {
    let schedule = build_schedule(cfg, layout, layout.mesh.n_chips(), 1)?;
    schedule.verify()
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
        let err = preflight(&cfg, &layout).unwrap_err();
        assert!(err.contains("divisible"), "unexpected error: {err}");
    }

    #[test]
    fn tampered_step_caught() {
        let cfg = ModelConfig::tiny();
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(2, 2, 1),
        };
        let mut s = build_schedule(&cfg, &layout, 16, 4).unwrap();
        // Tamper: claim the wo einsum output is replicated (drops the
        // partial-sum marker without a reduce).
        let pos = s
            .layer
            .iter()
            .position(|st| st.label() == "wo einsum")
            .expect("wo einsum present");
        if let Step::Einsum { output, .. } = &mut s.layer[pos] {
            output.spec = ShardingSpec::new("BLE");
        }
        let err = s.verify().unwrap_err();
        assert!(
            err.contains("wo einsum"),
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
        let partial_in = s
            .layer
            .iter()
            .find_map(|st| match st {
                Step::Collective { label, input, .. } if *label == "block all-reduce" => {
                    Some(input.clone())
                }
                _ => None,
            })
            .expect("block all-reduce present");
        s.layer.retain(|st| st.label() != "block all-reduce");
        for st in &mut s.layer {
            if let Step::Local { label, inputs, .. } = st {
                if *label == "residual add" {
                    inputs[1] = partial_in.clone();
                }
            }
        }
        let err = s.verify().unwrap_err();
        assert!(err.contains("partial"), "unexpected error: {err}");
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
                let Step::Collective { label, op, wire, .. } = step else { continue };
                if label.ends_with("weight all-gather") {
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
        for step in s.collectives() {
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
            assert!(
                !s.collectives().is_empty(),
                "{}: expected at least one collective",
                layout.describe()
            );
        }
    }
}
