//! The tensor-sharding notation of Section 3.1.
//!
//! The paper writes partitioned tensors as their logical shape with torus
//! axes as subscripts: `BLE_xyz` is a `[B, L, E]` tensor whose last
//! dimension is split over all three axes; `E_x F_yz` is a weight matrix
//! split `X` ways along `d_model` and `Y·Z` ways along `d_ff`. A suffix
//! "partialsum-x" marks a tensor that still needs summation across the `x`
//! axis. This module gives that notation a typed form used by the layout
//! definitions and the partitioned runtime.

use std::fmt;

use esti_topology::{AxisSet, ChipCoord, TorusShape};

/// One logical tensor dimension with its partitioning axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardedDim {
    /// One-letter dimension name from the paper's vocabulary
    /// (`B`, `L`, `E`, `F`, `H`, `Q`, `V`, …).
    pub name: char,
    /// Torus axes this dimension is split over (empty = replicated).
    pub axes: AxisSet,
}

/// A sharding specification: an ordered list of dimensions with their axis
/// subscripts, plus an optional partial-sum marker.
///
/// # Examples
///
/// ```
/// use esti_core::sharding::ShardingSpec;
/// use esti_topology::{Axis, AxisSet, TorusShape};
///
/// // BLE_xyz — activations with d_model fully sharded.
/// let spec = ShardingSpec::new("BLE").shard('E', AxisSet::all());
/// assert_eq!(spec.to_string(), "BLE_xyz");
///
/// let torus = TorusShape::new(2, 2, 2);
/// assert_eq!(spec.local_shape(&[4, 10, 16], torus), vec![4, 10, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardingSpec {
    dims: Vec<ShardedDim>,
    partial_sum: AxisSet,
}

impl ShardingSpec {
    /// Starts a fully-replicated spec from dimension names, e.g. `"BLE"`.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty or contains repeated characters.
    #[must_use]
    pub fn new(names: &str) -> Self {
        assert!(!names.is_empty(), "sharding spec needs at least one dimension");
        let mut dims = Vec::new();
        for c in names.chars() {
            assert!(
                dims.iter().all(|d: &ShardedDim| d.name != c),
                "repeated dimension name {c}"
            );
            dims.push(ShardedDim { name: c, axes: AxisSet::empty() });
        }
        ShardingSpec { dims, partial_sum: AxisSet::empty() }
    }

    /// Returns a copy with dimension `name` sharded over `axes`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown or `axes` overlaps another dimension's
    /// axes (an axis can shard at most one dimension).
    #[must_use]
    pub fn shard(mut self, name: char, axes: AxisSet) -> Self {
        for d in &self.dims {
            if d.name != name {
                assert!(
                    d.axes.is_disjoint(axes),
                    "axis set {axes} already used by dimension {}",
                    d.name
                );
            }
        }
        let dim = self
            .dims
            .iter_mut()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown dimension {name}"));
        dim.axes = axes;
        self
    }

    /// Returns a copy marked as a partial sum over `axes`
    /// ("partialsum-x" in the paper).
    #[must_use]
    pub fn partial(mut self, axes: AxisSet) -> Self {
        self.partial_sum = axes;
        self
    }

    /// The dimensions in order.
    #[must_use]
    pub fn dims(&self) -> &[ShardedDim] {
        &self.dims
    }

    /// Axes this tensor is a partial sum over.
    #[must_use]
    pub fn partial_sum(&self) -> AxisSet {
        self.partial_sum
    }

    /// The sharding axes of dimension `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    #[must_use]
    pub fn axes_of(&self, name: char) -> AxisSet {
        self.dims
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown dimension {name}"))
            .axes
    }

    /// Total number of distinct shards (product of partition counts).
    #[must_use]
    pub fn shard_count(&self, torus: TorusShape) -> usize {
        self.dims.iter().map(|d| torus.group_size(d.axes)).product()
    }

    /// The per-chip (local) shape for a given global shape on `torus`.
    ///
    /// # Panics
    ///
    /// Panics if the rank mismatches or a dimension is not divisible by its
    /// partition count.
    #[must_use]
    pub fn local_shape(&self, global: &[usize], torus: TorusShape) -> Vec<usize> {
        assert_eq!(global.len(), self.dims.len(), "rank mismatch");
        self.dims
            .iter()
            .zip(global)
            .map(|(d, &g)| {
                let parts = torus.group_size(d.axes);
                assert!(
                    g % parts == 0,
                    "dimension {} of size {g} not divisible by {parts} partitions",
                    d.name
                );
                g / parts
            })
            .collect()
    }

    /// The slice `(start, len)` of global dimension `idx` owned by the chip
    /// at `coord`. Shard index is the position of the chip's coordinates
    /// along the dimension's axes, outer to inner: first the axes no set of
    /// `order` names, then each set of `order` in turn, every set in
    /// canonical `x, y, z` order (`order = &[]` is canonical throughout). The
    /// sets are disjoint; those naming none of the dimension's axes are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the dimension is not divisible.
    #[must_use]
    pub fn local_range(
        &self,
        idx: usize,
        global: usize,
        torus: TorusShape,
        coord: ChipCoord,
        order: &[AxisSet],
    ) -> (usize, usize) {
        let d = &self.dims[idx];
        let parts = torus.group_size(d.axes);
        assert!(global.is_multiple_of(parts), "dimension not divisible by partitions");
        let len = global / parts;
        let named = order.iter().fold(AxisSet::empty(), |u, &s| u.union(s));
        let inner = order.iter().map(|s| s.intersection(d.axes));
        let axes = std::iter::once(d.axes.without(named)).chain(inner).flat_map(AxisSet::iter);
        let shard = axes.fold(0, |shard, a| shard * torus.size(a) + coord.along(a));
        (shard * len, len)
    }

    /// Per-chip element count for a global shape — what one chip stores.
    #[must_use]
    pub fn local_elements(&self, global: &[usize], torus: TorusShape) -> usize {
        self.local_shape(global, torus).iter().product()
    }
}

impl std::str::FromStr for ShardingSpec {
    /// Parses the paper's notation, the inverse of this type's `Display`:
    /// dimension letters with optional `_axes` subscripts and an optional
    /// trailing partial-sum marker. Whitespace between dimensions is
    /// tolerated, so both `"E_xF_yz"` and `"E_x F_yz"` (as printed in the
    /// paper) parse to the same spec.
    ///
    /// # Examples
    ///
    /// ```
    /// use esti_core::sharding::ShardingSpec;
    ///
    /// let spec: ShardingSpec = "BLE_yz (partialsum-x)".parse().unwrap();
    /// assert_eq!(spec.to_string(), "BLE_yz (partialsum-x)");
    /// ```
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (body, partial_sum) = match s.split_once(" (partialsum-") {
            Some((body, rest)) => {
                let axes = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unterminated partial-sum marker in {s:?}"))?;
                (body, axes.parse::<AxisSet>()?)
            }
            None => (s, AxisSet::empty()),
        };
        let mut dims: Vec<ShardedDim> = Vec::new();
        let mut chars = body.chars().peekable();
        while let Some(c) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            if c == '_' {
                let Some(last) = dims.last_mut() else {
                    return Err(format!("subscript before any dimension in {s:?}"));
                };
                if !last.axes.is_empty() {
                    return Err(format!("dimension {} has two subscripts", last.name));
                }
                let mut axes = AxisSet::empty();
                while let Some(&a) = chars.peek() {
                    let axis = match a {
                        'x' => esti_topology::Axis::X,
                        'y' => esti_topology::Axis::Y,
                        'z' => esti_topology::Axis::Z,
                        _ => break,
                    };
                    if axes.contains(axis) {
                        return Err(format!("repeated axis {a} in subscript of {}", last.name));
                    }
                    axes = axes.with(axis);
                    chars.next();
                }
                if axes.is_empty() {
                    return Err(format!("empty subscript on dimension {}", last.name));
                }
                last.axes = axes;
            } else if c.is_ascii_uppercase() {
                if dims.iter().any(|d| d.name == c) {
                    return Err(format!("repeated dimension name {c}"));
                }
                dims.push(ShardedDim { name: c, axes: AxisSet::empty() });
            } else {
                return Err(format!("unexpected character {c:?} in sharding spec {s:?}"));
            }
        }
        if dims.is_empty() {
            return Err("sharding spec needs at least one dimension".to_string());
        }
        for (i, d) in dims.iter().enumerate() {
            for e in &dims[i + 1..] {
                if !d.axes.is_disjoint(e.axes) {
                    return Err(format!(
                        "axis set {} of dimension {} overlaps dimension {}",
                        e.axes, e.name, d.name
                    ));
                }
            }
        }
        Ok(ShardingSpec { dims, partial_sum })
    }
}

impl fmt::Display for ShardingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.dims {
            write!(f, "{}", d.name)?;
            if !d.axes.is_empty() {
                write!(f, "_{}", d.axes)?;
            }
        }
        if !self.partial_sum.is_empty() {
            write!(f, " (partialsum-{})", self.partial_sum)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esti_topology::Axis;
    use proptest::prelude::*;

    #[test]
    fn notation_matches_paper() {
        // E_x F_yz: the 2D weight-stationary weight layout.
        let w = ShardingSpec::new("EF")
            .shard('E', AxisSet::single(Axis::X))
            .shard('F', AxisSet::of(&[Axis::Y, Axis::Z]));
        assert_eq!(w.to_string(), "E_xF_yz");

        let partial = ShardingSpec::new("BLE")
            .shard('E', AxisSet::of(&[Axis::Y, Axis::Z]))
            .partial(AxisSet::single(Axis::X));
        assert_eq!(partial.to_string(), "BLE_yz (partialsum-x)");
    }

    #[test]
    fn local_shapes() {
        let torus = TorusShape::new(2, 4, 2);
        let w = ShardingSpec::new("EF")
            .shard('E', AxisSet::single(Axis::X))
            .shard('F', AxisSet::of(&[Axis::Y, Axis::Z]));
        assert_eq!(w.local_shape(&[16, 64], torus), vec![8, 8]);
        assert_eq!(w.shard_count(torus), 16);
        assert_eq!(w.local_elements(&[16, 64], torus), 64);
    }

    #[test]
    fn local_range_covers_dimension() {
        let torus = TorusShape::new(2, 2, 1);
        let spec = ShardingSpec::new("BE").shard('E', AxisSet::of(&[Axis::X, Axis::Y]));
        let mut covered = [false; 16];
        for c in torus.chips() {
            let (start, len) = spec.local_range(1, 16, torus, c, &[]);
            assert_eq!(len, 4);
            for c in covered.iter_mut().skip(start).take(len) {
                *c = true; // chips sharing a shard mark it again
            }
        }
        assert!(covered.iter().all(|&c| c));
        // With x inner the shard index is y-major: chip (x, y) holds shard
        // 2y + x, where canonically it holds 2x + y.
        let x_inner = [AxisSet::single(Axis::X)];
        for c in torus.chips() {
            let (start, _) = spec.local_range(1, 16, torus, c, &x_inner);
            assert_eq!(start, 4 * (2 * c.y + c.x));
            assert_eq!(spec.local_range(1, 16, torus, c, &[]).0, 4 * (2 * c.x + c.y));
        }
    }

    #[test]
    fn replicated_dims_get_full_range() {
        let torus = TorusShape::new(4, 1, 1);
        let spec = ShardingSpec::new("BE").shard('E', AxisSet::single(Axis::X));
        for c in torus.chips() {
            assert_eq!(spec.local_range(0, 8, torus, c, &[]), (0, 8));
        }
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn overlapping_axes_rejected() {
        let _ = ShardingSpec::new("EF")
            .shard('E', AxisSet::single(Axis::X))
            .shard('F', AxisSet::single(Axis::X));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_dimension_rejected() {
        let torus = TorusShape::new(3, 1, 1);
        let spec = ShardingSpec::new("E").shard('E', AxisSet::single(Axis::X));
        let _ = spec.local_shape(&[16], torus);
    }

    #[test]
    #[should_panic(expected = "unknown dimension")]
    fn unknown_dimension_rejected() {
        let _ = ShardingSpec::new("BLE").shard('Q', AxisSet::all());
    }

    #[test]
    fn from_str_parses_paper_notation() {
        let ble: ShardingSpec = "BLE_xyz".parse().unwrap();
        assert_eq!(ble, ShardingSpec::new("BLE").shard('E', AxisSet::all()));

        // The paper writes weight layouts with a space between dimensions.
        let w: ShardingSpec = "E_x F_yz".parse().unwrap();
        assert_eq!(
            w,
            ShardingSpec::new("EF")
                .shard('E', AxisSet::single(Axis::X))
                .shard('F', AxisSet::of(&[Axis::Y, Axis::Z]))
        );
        assert_eq!(w, "E_xF_yz".parse().unwrap());

        let partial: ShardingSpec = "BLE_yz (partialsum-x)".parse().unwrap();
        assert_eq!(partial.partial_sum(), AxisSet::single(Axis::X));
        assert_eq!(partial.axes_of('E'), AxisSet::of(&[Axis::Y, Axis::Z]));
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        let cases: &[(&str, &str)] = &[
            ("", "at least one dimension"),
            ("BB", "repeated dimension"),
            ("E_xx", "repeated axis"),
            ("E_", "empty subscript"),
            ("_x", "subscript before any dimension"),
            ("E_x_y", "two subscripts"),
            ("e", "unexpected character"),
            ("E_xF_x", "overlaps"),
            ("BLE_yz (partialsum-x", "unterminated"),
            ("BLE_yz (partialsum-w)", "unknown torus axis"),
        ];
        for (input, expect) in cases {
            let err = input.parse::<ShardingSpec>().unwrap_err();
            assert!(err.contains(expect), "{input:?}: got {err:?}");
        }
    }

    #[test]
    fn parsed_spec_enforces_divisibility_like_built_ones() {
        let torus = TorusShape::new(2, 2, 1);
        let spec: ShardingSpec = "BE_xy".parse().unwrap();
        assert_eq!(spec.local_shape(&[3, 8], torus), vec![3, 2]);
        let indivisible = std::panic::catch_unwind(|| spec.local_shape(&[3, 6], torus));
        assert!(indivisible.is_err(), "6 is not divisible by 4 partitions");
    }

    proptest! {
        #[test]
        fn prop_display_round_trips_through_from_str(
            n_dims in 1usize..5,
            axis_assignment in prop::collection::vec(0usize..5, 4..5),
            partial_x in 0usize..2,
        ) {
            // Assign disjoint axis subsets to dimensions: each axis goes to
            // at most one dimension (or none).
            const NAMES: [char; 4] = ['B', 'L', 'E', 'F'];
            const CHOICES: [&[Axis]; 5] =
                [&[], &[Axis::X], &[Axis::Y], &[Axis::Z], &[Axis::Y, Axis::Z]];
            let mut spec = ShardingSpec::new(&NAMES[..n_dims].iter().collect::<String>());
            let mut used = AxisSet::empty();
            for (i, &choice) in axis_assignment.iter().take(n_dims).enumerate() {
                let axes = AxisSet::of(CHOICES[choice]);
                if axes.is_disjoint(used) {
                    used = used.union(axes);
                    spec = spec.shard(NAMES[i], axes);
                }
            }
            if partial_x == 1 && !used.contains(Axis::X) {
                spec = spec.partial(AxisSet::single(Axis::X));
            }
            let reparsed: ShardingSpec = spec.to_string().parse().unwrap();
            prop_assert_eq!(reparsed, spec);
        }

        #[test]
        fn prop_local_elements_times_shards_is_global(
            x in 1usize..4, y in 1usize..4, z in 1usize..4,
            scale in 1usize..4,
        ) {
            let torus = TorusShape::new(x, y, z);
            let spec = ShardingSpec::new("EF")
                .shard('E', AxisSet::single(Axis::X))
                .shard('F', AxisSet::of(&[Axis::Y, Axis::Z]));
            let global = [x * scale * 2, y * z * scale * 3];
            let local = spec.local_elements(&global, torus);
            prop_assert_eq!(
                local * spec.shard_count(torus),
                global[0] * global[1]
            );
        }

        #[test]
        fn prop_ranges_tile_dimension(x in 1usize..5, y in 1usize..5) {
            let torus = TorusShape::new(x, y, 1);
            let spec = ShardingSpec::new("E").shard('E', AxisSet::of(&[Axis::X, Axis::Y]));
            let global = x * y * 2;
            // Canonically, and with x inner (y-major).
            for order in [&[][..], &[AxisSet::single(Axis::X)]] {
                let mut hits = vec![0usize; global];
                for c in torus.chips() {
                    let (s, l) = spec.local_range(0, global, torus, c, order);
                    for h in hits.iter_mut().skip(s).take(l) {
                        *h += 1;
                    }
                }
                // Every element owned exactly once.
                prop_assert!(hits.iter().all(|&h| h == 1));
            }
        }
    }
}
