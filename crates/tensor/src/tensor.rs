//! The dense row-major `f32` tensor.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use rand::distributions::Distribution;
use rand::Rng;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are dynamic (`Vec<usize>`); rank 0 through 4 are exercised in
/// practice. The last dimension is contiguous.
///
/// # Examples
///
/// ```
/// use esti_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.shape(), &[2, 2]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    #[must_use]
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// An all-zeros tensor.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Tensor { shape, data: vec![0.0; numel] }
    }

    /// An all-ones tensor.
    #[must_use]
    pub fn ones(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Tensor { shape, data: vec![1.0; numel] }
    }

    /// A tensor filled with a constant.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor { shape, data: vec![value; numel] }
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor of i.i.d. normal samples with the given standard deviation.
    #[must_use]
    pub fn randn<R: Rng>(rng: &mut R, shape: Vec<usize>, std: f32) -> Self {
        let normal = rand::distributions::Standard;
        let numel: usize = shape.iter().product();
        // Box-Muller on uniform samples keeps us independent of rand_distr.
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = normal.sample(rng);
            let u2: f32 = normal.sample(rng);
            let r = (-2.0 * (u1.max(1e-10)).ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    #[must_use]
    pub fn dim(&self, dim: usize) -> usize {
        self.shape[dim]
    }

    /// Immutable view of the backing data, row-major.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of range.
    #[must_use]
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        for (i, (&ix, &sz)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < sz, "index {ix} out of bounds for dim {i} of size {sz}");
            off = off * sz + ix;
        }
        off
    }

    /// Element at a multi-index.
    #[must_use]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    #[must_use]
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Consuming reshape that avoids copying the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    #[must_use]
    pub fn into_reshape(self, shape: Vec<usize>) -> Tensor {
        Tensor::from_vec(shape, self.data)
    }

    /// Extracts the contiguous sub-tensor `[start, start+len)` along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension size.
    #[must_use]
    pub fn slice(&self, dim: usize, start: usize, len: usize) -> Tensor {
        self.slice_into(dim, start, len, Vec::new())
    }

    /// [`Tensor::slice`] written into `out`'s storage, which is grown if
    /// short; its old contents are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension size.
    #[must_use]
    pub fn slice_into(&self, dim: usize, start: usize, len: usize, mut out: Vec<f32>) -> Tensor {
        assert!(dim < self.rank(), "slice dim out of range");
        assert!(start + len <= self.shape[dim], "slice range out of bounds");
        let outer: usize = self.shape[..dim].iter().product();
        let inner: usize = self.shape[dim + 1..].iter().product();
        out.clear();
        out.reserve_exact(outer * len * inner);
        let stride = self.shape[dim] * inner;
        for o in 0..outer {
            let base = o * stride + start * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut shape = self.shape.clone();
        shape[dim] = len;
        Tensor::from_vec(shape, out)
    }

    /// Concatenates tensors along `dim`. All other dimensions must agree.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree off-`dim`.
    #[must_use]
    pub fn concat(parts: &[&Tensor], dim: usize) -> Tensor {
        Tensor::concat_into(parts, dim, Vec::new())
    }

    /// [`Tensor::concat`] written into `out`'s storage, which is grown if
    /// short; its old contents are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree off-`dim`.
    #[must_use]
    pub fn concat_into(parts: &[&Tensor], dim: usize, mut out: Vec<f32>) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let first = parts[0];
        let rank = first.rank();
        assert!(dim < rank, "concat dim out of range");
        for p in parts {
            assert_eq!(p.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != dim {
                    assert_eq!(p.shape[d], first.shape[d], "concat shape mismatch at dim {d}");
                }
            }
        }
        let outer: usize = first.shape[..dim].iter().product();
        let inner: usize = first.shape[dim + 1..].iter().product();
        let total_dim: usize = parts.iter().map(|p| p.shape[dim]).sum();
        out.clear();
        out.reserve_exact(outer * total_dim * inner);
        for o in 0..outer {
            for p in parts {
                let stride = p.shape[dim] * inner;
                let base = o * stride;
                out.extend_from_slice(&p.data[base..base + stride]);
            }
        }
        let mut shape = first.shape.clone();
        shape[dim] = total_dim;
        Tensor::from_vec(shape, out)
    }

    /// Splits the tensor into `n` equal parts along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is not divisible by `n`.
    #[must_use]
    pub fn split(&self, dim: usize, n: usize) -> Vec<Tensor> {
        assert!(n > 0 && self.shape[dim].is_multiple_of(n), "dim {} of size {} not divisible by {n}", dim, self.shape[dim]);
        let part = self.shape[dim] / n;
        (0..n).map(|i| self.slice(dim, i * part, part)).collect()
    }

    /// Repeats each index of dimension `dim` `k` times in place
    /// (`[a, b] → [a, a, b, b]` for `k = 2`), growing that dimension by a
    /// factor of `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `dim` is out of range.
    #[must_use]
    pub fn repeat_interleave(&self, dim: usize, k: usize) -> Tensor {
        assert!(k > 0, "repeat factor must be positive");
        assert!(dim < self.rank(), "repeat dim out of range");
        if k == 1 {
            return self.clone();
        }
        let parts: Vec<Tensor> = (0..self.shape[dim])
            .flat_map(|i| std::iter::repeat_n(i, k))
            .map(|i| self.slice(dim, i, 1))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, dim)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    #[must_use]
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Maximum absolute difference between two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether every element differs from `other` by at most `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Applies `f` element-wise, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise binary combination with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_with");
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Scales every element by a constant.
    #[must_use]
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{} elements]", self.numel())?;
        }
        write!(f, ")")
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.shape.clone());
        crate::ops::add_into(self, rhs, &mut out);
        out
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_checks_bounds() {
        let t = Tensor::zeros(vec![2, 2]);
        let _ = t.at(&[0, 2]);
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn slice_middle_dim() {
        let t = Tensor::from_vec(vec![2, 4, 2], (0..16).map(|v| v as f32).collect());
        let s = t.slice(1, 1, 2);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 1]), t.at(&[1, 2, 1]));
    }

    #[test]
    fn split_then_concat_roundtrips() {
        let t = Tensor::from_vec(vec![2, 6], (0..12).map(|v| v as f32).collect());
        for dim in 0..2 {
            let parts = t.split(dim, 2);
            let refs: Vec<&Tensor> = parts.iter().collect();
            assert_eq!(Tensor::concat(&refs, dim), t);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_requires_divisibility() {
        let _ = Tensor::zeros(vec![2, 3]).split(1, 2);
    }

    #[test]
    fn repeat_interleave_orders_copies_adjacently() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.repeat_interleave(0, 2);
        assert_eq!(r.shape(), &[4, 2]);
        assert_eq!(r.data(), &[1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]);
        assert_eq!(t.repeat_interleave(1, 1), t);
        let c = t.repeat_interleave(1, 2);
        assert_eq!(c.data(), &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&mut rng, vec![3, 5], 1.0);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().at(&[4, 2]), t.at(&[2, 4]));
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, vec![10_000], 2.0);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![3.0, 4.0]);
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&b - &a).data(), &[2.0, 2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![1.0, 2.0 + 1e-4]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("100"));
    }

    proptest! {
        #[test]
        fn prop_split_concat_identity(
            rows in 1usize..5,
            cols_half in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Tensor::randn(&mut rng, vec![rows, cols_half * 2], 1.0);
            let parts = t.split(1, 2);
            let refs: Vec<&Tensor> = parts.iter().collect();
            prop_assert_eq!(Tensor::concat(&refs, 1), t);
        }

        #[test]
        fn prop_offset_bijective(dims in proptest::collection::vec(1usize..4, 1..4)) {
            let t = Tensor::zeros(dims.clone());
            let mut seen = std::collections::HashSet::new();
            // enumerate all indices
            let mut idx = vec![0usize; dims.len()];
            loop {
                prop_assert!(seen.insert(t.offset(&idx)));
                // increment odometer
                let mut d = dims.len();
                loop {
                    if d == 0 { break; }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < dims[d] { break; }
                    idx[d] = 0;
                    if d == 0 { break; }
                }
                if idx.iter().all(|&v| v == 0) { break; }
            }
            prop_assert_eq!(seen.len(), t.numel());
        }
    }
}
