//! The attention key/value cache.
//!
//! The KV cache is the second-largest tensor group in generative inference
//! (Section 2, "Memory costs"): keys and values of every layer must persist
//! for the whole decode. [`KvCache`] is one store: a pool of fixed-size
//! pages (`page_size` positions each, holding every layer's K and V for
//! those positions) addressed through a per-row block table, so a decode
//! step writes in place and a row holds only the pages its valid positions
//! need. Pages are refcounted: [`KvCache::insert_row_shared`] maps
//! prompt-prefix pages already resident (keyed by the exact token prefix
//! they cache) instead of rewriting them, and any in-place write to a page
//! referenced by more than one row first copies it out (copy-on-write).
//! Eviction is page-granular: a shared page returns to the free list only
//! when its last reference drops.
//!
//! The one option is the page size ([`KvCache::paged`]; [`KvCache::new`]
//! takes [`DEFAULT_KV_PAGE_SIZE`]). It decides how many runs a row is split
//! into and how much of a prompt can be shared, never a value: every read
//! goes through [`KvCache::row_runs`] — a row's pages as borrowed `(kᵀ, v)`
//! runs in ascending order — and the attention kernel walks the runs in
//! place. A page at least as long as every row is the dense layout (one run
//! per row), reached through the same code.
//!
//! A page stores its layer's V row-major, `[page_size, Hkv·d_head]`, and
//! its K **transposed**, `[Hkv·d_head, page_size]`: feature `f` of position
//! `p` sits at `f·page_size + p`, so KV head `g`'s keys for the page form a
//! `d_head × n` panel at row stride `page_size`, keys along the row. The
//! attention kernel scores a page as one call of the GEMM register tile
//! (`Q·Kᵀ`, keys on the vector lanes) and sums it as another (`P·V`, head
//! dims on the lanes), both over the page where it lies. The layout is
//! private to the page: writes ([`KvCache::append_rows`],
//! [`KvCache::insert_row_shared`]) transpose positions in, copy-on-write
//! and [`KvCache::repeat_batch`] move or share whole pages, and
//! [`KvCache::read_slot`] hands a row back as `[len, Hkv·d_head]`.
//!
//! Determinism makes prefix sharing exact rather than approximate: causal
//! attention means K/V at position `p` depend only on tokens `0..=p`, and
//! every kernel in this workspace is bit-deterministic, so a page keyed by
//! a token prefix holds *bitwise* the same values any other request with
//! that prefix would have written. Skipping the write on a registry hit is
//! therefore invisible in the token streams (proven by the paged
//! conformance suite).

use std::collections::HashMap;

use esti_tensor::Tensor;

/// Positions per page when nothing chooses otherwise: small enough that a
/// short shared system prompt still spans whole pages, large enough that
/// block tables stay short at this workspace's context lengths.
pub const DEFAULT_KV_PAGE_SIZE: usize = 16;

/// One pool page: `page_size` positions of K and V for *every* layer
/// (`k[layer]`/`v[layer]` are `page_size · width` scratch-initialized
/// buffers, `k` transposed: `[width, page_size]`, see the module docs).
/// Keeping all layers in one page means block tables, refcounts, and prefix
/// keys exist once per page rather than once per layer.
#[derive(Debug, Clone)]
struct Page {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Page {
    fn new(n_layers: usize, elems: usize) -> Self {
        Page { k: vec![vec![0.0; elems]; n_layers], v: vec![vec![0.0; elems]; n_layers] }
    }
}

/// Pool occupancy counters (see [`KvCache::page_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageStats {
    /// Positions per page.
    pub page_size: usize,
    /// Pages ever allocated (live + free-listed).
    pub pages_allocated: usize,
    /// Pages currently referenced by at least one row.
    pub pages_live: usize,
    /// Pages on the free list, reusable without allocation.
    pub pages_free: usize,
    /// Live pages referenced by more than one row (shared prefixes).
    pub pages_shared: usize,
}

/// Per-layer key/value storage for a batch of sequences: page pool +
/// refcounts + prefix registry + block tables (see the module docs).
///
/// # Examples
///
/// ```
/// use esti_model::KvCache;
/// use esti_tensor::Tensor;
///
/// let mut cache = KvCache::new(1);
/// cache.append(0, &Tensor::zeros(vec![2, 3, 8]), &Tensor::zeros(vec![2, 3, 8]));
/// assert_eq!(cache.len(), 3);
/// cache.append(0, &Tensor::zeros(vec![2, 1, 8]), &Tensor::zeros(vec![2, 1, 8]));
/// assert_eq!(cache.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct KvCache {
    n_layers: usize,
    page_size: usize,
    /// Feature width `Hkv·d_head`, fixed by the first write (0 until then).
    width: usize,
    pages: Vec<Page>,
    refs: Vec<usize>,
    /// The token prefix a page caches, when it was admitted via
    /// [`KvCache::insert_row_shared`] and is still bit-exact for that
    /// prefix (cleared on any in-place write).
    keys: Vec<Option<Vec<usize>>>,
    free: Vec<usize>,
    /// Exact token prefix → page id. A key of length `e` always maps the
    /// page covering positions `(⌈e/S⌉−1)·S .. e`, so keys double as page
    /// indices.
    registry: HashMap<Vec<usize>, usize>,
    /// Per-row block table: `tables[r][i]` is the page holding positions
    /// `i·S .. (i+1)·S` of row `r`. One per batch row, fixed by the first
    /// write (empty until then).
    tables: Vec<Vec<usize>>,
    /// Valid positions per layer per row (`lens[layer][row]`); layers
    /// disagree transiently inside one forward pass, where the layers
    /// before the current one have already appended the new chunk.
    lens: Vec<Vec<usize>>,
}

impl Default for KvCache {
    fn default() -> Self {
        KvCache::new(0)
    }
}

impl KvCache {
    /// Creates an empty cache for a model with `n_layers` layers, at
    /// [`DEFAULT_KV_PAGE_SIZE`] positions per page.
    #[must_use]
    pub fn new(n_layers: usize) -> Self {
        KvCache::paged(n_layers, DEFAULT_KV_PAGE_SIZE)
    }

    /// Creates an empty cache with `page_size` positions per page for a
    /// model with `n_layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn paged(n_layers: usize, page_size: usize) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        KvCache {
            n_layers,
            page_size,
            width: 0,
            pages: Vec::new(),
            refs: Vec::new(),
            keys: Vec::new(),
            free: Vec::new(),
            registry: HashMap::new(),
            tables: Vec::new(),
            lens: vec![Vec::new(); n_layers],
        }
    }

    fn ensure_shape(&mut self, batch: usize, width: usize) {
        if self.tables.is_empty() {
            if width != self.width {
                // A cleared pool's pages are sized for its old width.
                self.pages.clear();
                self.refs.clear();
                self.keys.clear();
                self.free.clear();
            }
            self.tables = vec![Vec::new(); batch];
            self.lens.iter_mut().for_each(|l| *l = vec![0; batch]);
            self.width = width;
        }
        assert_eq!(self.tables.len(), batch, "batch dim disagrees with cached contents");
        assert_eq!(self.width, width, "feature dim disagrees with cached contents");
    }

    /// Pops a free page or grows the pool; the page starts private
    /// (refcount 1, no key).
    fn alloc_page(&mut self) -> usize {
        if let Some(id) = self.free.pop() {
            self.refs[id] = 1;
            self.keys[id] = None;
            id
        } else {
            self.pages.push(Page::new(self.n_layers, self.page_size * self.width));
            self.refs.push(1);
            self.keys.push(None);
            self.pages.len() - 1
        }
    }

    /// Drops one reference; the last reference deregisters the page's
    /// prefix key and returns it to the free list.
    fn unref_page(&mut self, id: usize) {
        assert!(self.refs[id] > 0, "page {id} double-freed");
        self.refs[id] -= 1;
        if self.refs[id] == 0 {
            if let Some(key) = self.keys[id].take() {
                self.registry.remove(&key);
            }
            self.free.push(id);
        }
    }

    /// Drops row `r`'s reference to every page it maps, leaving its block
    /// table empty.
    fn release_row(&mut self, r: usize) {
        for pid in std::mem::take(&mut self.tables[r]) {
            self.unref_page(pid);
        }
    }

    /// Grows row `r`'s block table until it covers `need` positions.
    fn ensure_pages(&mut self, r: usize, need: usize) {
        while self.tables[r].len() * self.page_size < need {
            let id = self.alloc_page();
            self.tables[r].push(id);
        }
    }

    /// Makes page index `pi` of row `r` safely writable and returns its
    /// page id: a page shared with other rows is copied out first
    /// (copy-on-write; the original keeps its key and remaining refs), and
    /// a private page's prefix key is deregistered because the write is
    /// about to invalidate it.
    fn prepare_write(&mut self, r: usize, pi: usize) -> usize {
        let pid = self.tables[r][pi];
        if self.refs[pid] > 1 {
            // A referenced page is never on the free list, so `nid != pid`.
            let nid = self.alloc_page();
            let (lo, hi) = self.pages.split_at_mut(pid.max(nid));
            let (src, dst) =
                if pid < nid { (&lo[pid], &mut hi[0]) } else { (&hi[0], &mut lo[nid]) };
            for (d, s) in dst.k.iter_mut().zip(&src.k).chain(dst.v.iter_mut().zip(&src.v)) {
                d.copy_from_slice(s);
            }
            self.refs[pid] -= 1;
            self.tables[r][pi] = nid;
            nid
        } else {
            if let Some(key) = self.keys[pid].take() {
                self.registry.remove(&key);
            }
            pid
        }
    }

    /// Writes `len·d` contiguous values per tensor into row `r` starting at
    /// position `at`, allocating / copying-out pages as needed.
    fn write_span(&mut self, layer: usize, r: usize, at: usize, k_src: &[f32], v_src: &[f32]) {
        let (s, d) = (self.page_size, self.width);
        let len = k_src.len() / d;
        self.ensure_pages(r, at + len);
        let mut p = 0; // positions written so far
        while p < len {
            let pos = at + p;
            let (pi, off) = (pos / s, pos % s);
            let run = (s - off).min(len - p);
            let pid = self.prepare_write(r, pi);
            let src = p * d..(p + run) * d;
            write_kt(&mut self.pages[pid].k[layer], s, off, &k_src[src.clone()], d);
            self.pages[pid].v[layer][off * d..(off + run) * d].copy_from_slice(&v_src[src]);
            p += run;
        }
    }

    /// Positions per page.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pool occupancy counters.
    #[must_use]
    pub fn page_stats(&self) -> PageStats {
        PageStats {
            page_size: self.page_size,
            pages_allocated: self.pages.len(),
            pages_live: self.pages.len() - self.free.len(),
            pages_free: self.free.len(),
            pages_shared: self.refs.iter().filter(|&&r| r > 1).count(),
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Number of cached token positions (0 if nothing appended yet) — for
    /// ragged batches, the longest row. All layers hold the same lengths
    /// between forward passes.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.n_layers == 0 {
            return 0;
        }
        self.len_of(0)
    }

    /// Whether the cache holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached positions for one specific layer (longest row). During a
    /// forward pass, layers before the current one have already appended
    /// the new chunk, so per-layer lengths are what positional encodings
    /// must use.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn len_of(&self, layer: usize) -> usize {
        self.lens[layer].iter().copied().max().unwrap_or(0)
    }

    /// Valid positions per batch row for `layer` (empty if nothing cached).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn row_lens(&self, layer: usize) -> &[usize] {
        &self.lens[layer]
    }

    /// Appends new key/value tensors (`[B, L_new, Hkv·dh]`) for `layer` to
    /// every row: [`KvCache::append_rows`] with tensor row `r` going to cache
    /// row `r` of `B`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or batch/feature dims disagree
    /// with existing contents.
    pub fn append(&mut self, layer: usize, k: &Tensor, v: &Tensor) {
        let rows: Vec<usize> = (0..k.dim(0)).collect();
        self.append_rows(layer, &rows, rows.len(), k, v);
    }

    /// Appends new key/value tensors (`[R, L_new, Hkv·dh]`) for `layer` to
    /// the cache rows a step runs — tensor row `r` goes to cache row
    /// `rows[r]` of `batch` — writing in place at each of those rows' current
    /// length and leaving every other row as it is. Which rows a step runs is
    /// the caller's to say, call by call; the cache keeps no notion of it. A
    /// write into a shared page copies it out first (copy-on-write), so
    /// appending never perturbs other rows mapping the same prefix. Creates
    /// storage for `batch` rows if none exists yet.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range, `rows` is not one row below `batch`
    /// per tensor row, or batch/feature dims disagree with existing contents.
    pub fn append_rows(&mut self, layer: usize, rows: &[usize], batch: usize, k: &Tensor, v: &Tensor) {
        assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
        assert_eq!(k.rank(), 3, "KV tensors must be [B, L, Hkv*dh]");
        let (l, d) = (k.dim(1), k.dim(2));
        assert_eq!(rows.len(), k.dim(0), "one cache row per KV tensor row");
        self.ensure_shape(batch, d);
        for (src, &r) in rows.iter().enumerate() {
            assert!(r < batch, "row {r} out of range for batch {batch}");
            let at = self.lens[layer][r];
            let src = src * l * d..(src + 1) * l * d;
            self.write_span(layer, r, at, &k.data()[src.clone()], &v.data()[src]);
            self.lens[layer][r] = at + l;
        }
    }

    /// Inserts a full request (every layer's `[l, Hkv·dh]` K/V, plus the
    /// `l` prompt tokens that produced it) into one row, sharing
    /// prompt-prefix pages with already-resident requests.
    ///
    /// Each page-aligned token prefix is looked up in the pool's registry:
    /// a hit maps the existing page (refcount bump, no write — bit-exact
    /// because K/V at a position are a deterministic function of the token
    /// prefix and the position), a miss allocates, writes, and registers
    /// the page for future requests.
    ///
    /// # Panics
    ///
    /// Panics if `layers` does not cover every layer, shapes disagree, or
    /// `tokens.len()` differs from the K/V length.
    pub fn insert_row_shared(
        &mut self,
        row: usize,
        batch: usize,
        layers: &[(Tensor, Tensor)],
        tokens: &[usize],
    ) {
        assert_eq!(layers.len(), self.n_layers, "one (K, V) pair per layer");
        assert!(row < batch, "row {row} out of range for batch {batch}");
        for (k, v) in layers {
            assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
            assert_eq!(k.rank(), 2, "slot KV tensors must be [l, Hkv*dh]");
            assert_eq!(k.dim(0), tokens.len(), "one token per cached position");
        }
        let l = tokens.len();
        let d = layers.first().map_or(0, |(k, _)| k.dim(1));
        self.ensure_shape(batch, d);
        // Release whatever the row held before (slots are inserted into
        // evicted rows; this keeps reuse safe regardless).
        self.release_row(row);
        let s = self.page_size;
        for pi in 0..l.div_ceil(s) {
            let end = ((pi + 1) * s).min(l);
            let key = tokens[..end].to_vec();
            if let Some(&pid) = self.registry.get(&key) {
                self.refs[pid] += 1;
                self.tables[row].push(pid);
            } else {
                let pid = self.alloc_page();
                let (lo, span) = (pi * s, end - pi * s);
                for (li, (k, v)) in layers.iter().enumerate() {
                    let src = lo * d..(lo + span) * d;
                    write_kt(&mut self.pages[pid].k[li], s, 0, &k.data()[src.clone()], d);
                    self.pages[pid].v[li][..span * d].copy_from_slice(&v.data()[src]);
                }
                self.keys[pid] = Some(key.clone());
                self.registry.insert(key, pid);
                self.tables[row].push(pid);
            }
        }
        for lens in &mut self.lens {
            lens[row] = l;
        }
    }

    /// Feature width `Hkv·d_head` of the cached rows (0 before the first
    /// write).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `row`'s pages of `layer` as borrowed `(kᵀ, v)` runs in ascending
    /// position order — the one block-table traversal every read goes
    /// through: one run per block-table entry holding a valid position. `v`
    /// is the run's `n` valid positions, row-major (`n · width` floats, `n`
    /// = `page_size` but for a partial last page); `kᵀ` is the page's whole
    /// transposed K, `[width, page_size]`, of which columns `0..n` are
    /// valid (feature `f` of position `p` at `f · page_size + p`). A page
    /// shared with other rows (or copied out of one) reads like any other.
    /// An empty row, or a layer nothing was written to, yields no run.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range, or `row` is out of range for a
    /// cache that holds contents.
    pub fn row_runs(&self, layer: usize, row: usize) -> impl Iterator<Item = (&[f32], &[f32])> {
        let (s, d) = (self.page_size, self.width);
        // Before the first write there are no block tables to index.
        let (table, len) = if self.tables.is_empty() {
            (&[][..], 0)
        } else {
            (&self.tables[row][..], self.lens[layer][row])
        };
        table.iter().take(len.div_ceil(s)).enumerate().map(move |(pi, &pid)| {
            let n = (len - pi * s).min(s) * d;
            (&self.pages[pid].k[layer][..], &self.pages[pid].v[layer][..n])
        })
    }

    /// Reads one batch row of `layer` back as `([l, D], [l, D])` tensors —
    /// the extraction half of slot management: the concatenation of
    /// [`KvCache::row_runs`], K transposed back to row-major, so the bytes
    /// do not depend on the page size.
    ///
    /// # Panics
    ///
    /// Panics if `layer` has no contents or `row` is out of range.
    #[must_use]
    pub fn read_slot(&self, layer: usize, row: usize) -> (Tensor, Tensor) {
        let (len, d, s) = (self.row_lens(layer)[row], self.width(), self.page_size);
        let mut kd = vec![0.0; len * d];
        let mut vd = Vec::with_capacity(len * d);
        for (kt, v) in self.row_runs(layer, row) {
            let at = vd.len();
            for (p, dst) in kd[at..at + v.len()].chunks_exact_mut(d).enumerate() {
                for (x, col) in dst.iter_mut().zip(kt.chunks_exact(s)) {
                    *x = col[p];
                }
            }
            vd.extend_from_slice(v);
        }
        (Tensor::from_vec(vec![len, d], kd), Tensor::from_vec(vec![len, d], vd))
    }

    /// Marks one batch row empty in every layer (eviction): drops one
    /// reference per mapped page, returning pages whose last reference this
    /// was to the free pool.
    pub fn clear_slot(&mut self, row: usize) {
        if self.tables.is_empty() {
            return;
        }
        self.release_row(row);
        for lens in &mut self.lens {
            lens[row] = 0;
        }
    }

    /// Total *valid* elements held (keys + values across all layers), the
    /// quantity the memory model charges per decode step. The unwritten
    /// tail of a page is not counted, and a page shared by several rows is
    /// charged **once** (its widest referencing row), so occupancy reflects
    /// physical memory rather than the sum of logical sequence lengths.
    #[must_use]
    pub fn total_elements(&self) -> usize {
        let (s, d) = (self.page_size, self.width);
        // valid[page][layer] = widest valid span any referencing row holds
        // in that page.
        let mut valid = vec![0usize; self.pages.len() * self.n_layers];
        for (r, table) in self.tables.iter().enumerate() {
            for (pi, &pid) in table.iter().enumerate() {
                for (li, lens) in self.lens.iter().enumerate() {
                    let span = lens[r].saturating_sub(pi * s).min(s);
                    let cell = &mut valid[pid * self.n_layers + li];
                    *cell = (*cell).max(span);
                }
            }
        }
        2 * d * valid.iter().sum::<usize>()
    }

    /// Replicates each of the first `rows` cached sequences `k` times along
    /// the batch dimension, and keeps the rows past them once, after the
    /// replicas (`[s0, s1, t] → [s0, s0, s1, s1, t]` for `k = 2`,
    /// `rows = 2`) — the mechanism behind the paper's low-latency recipe of
    /// combining a batch-1 prefill with a batch-64 decode by "generating
    /// multiple samples from the same input text" (Section 4.4). Replicas
    /// share the originals' pages (copy-on-write on later divergence)
    /// instead of duplicating them. A cache nothing was written to has no
    /// rows yet and stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `rows` exceeds the cached row count.
    pub fn repeat_batch(&mut self, k: usize, rows: usize) {
        assert!(k > 0, "repeat factor must be positive");
        if self.tables.is_empty() {
            return;
        }
        let kept = self.tables.split_off(rows);
        let mut tables = Vec::with_capacity(rows * k + kept.len());
        for table in &self.tables {
            for copy in 0..k {
                if copy > 0 {
                    for &pid in table {
                        self.refs[pid] += 1;
                    }
                }
                tables.push(table.clone());
            }
        }
        tables.extend(kept);
        self.tables = tables;
        for lens in &mut self.lens {
            let kept = lens.split_off(rows);
            *lens = lens.iter().flat_map(|&l| std::iter::repeat_n(l, k)).chain(kept).collect();
        }
    }

    /// Drops all cached tokens: every page goes back on the free list, and
    /// the prefix registry, page keys, refcounts and block tables reset. The
    /// pages keep their buffers, so refilling the cache to the same shape
    /// allocates no page.
    pub fn clear(&mut self) {
        self.refs.fill(0);
        self.keys.fill(None);
        self.free.clear();
        self.free.extend((0..self.pages.len()).rev());
        self.registry.clear();
        self.tables.clear();
        self.lens.iter_mut().for_each(Vec::clear);
    }
}

/// Writes `src`'s positions (row-major, `width` floats each) into a page's
/// transposed K, `[width, page_size]`, from column `at` on.
fn write_kt(kt: &mut [f32], page_size: usize, at: usize, src: &[f32], width: usize) {
    for (p, pos) in src.chunks_exact(width).enumerate() {
        for (col, &x) in kt.chunks_exact_mut(page_size).zip(pos) {
            col[at + p] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache() {
        let c = KvCache::new(3);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.n_layers(), 3);
        assert_eq!(c.page_size(), DEFAULT_KV_PAGE_SIZE);
        assert_eq!(c.total_elements(), 0);
    }

    #[test]
    fn append_grows_sequence_dim() {
        let mut c = KvCache::new(1);
        let k1 = Tensor::full(vec![2, 2, 4], 1.0);
        c.append(0, &k1, &k1);
        let k2 = Tensor::full(vec![2, 1, 4], 2.0);
        c.append(0, &k2, &k2);
        assert_eq!(c.len(), 3);
        for row in 0..2 {
            let (k, _) = c.read_slot(0, row);
            assert_eq!(k.shape(), &[3, 4]);
            assert_eq!(k.at(&[0, 0]), 1.0);
            assert_eq!(k.at(&[2, 0]), 2.0);
        }
    }

    #[test]
    fn one_token_appends_fill_one_page_in_place() {
        // Decode writes in place: 64 one-token appends at page 64 never
        // allocate a second page, and only valid positions are counted.
        let mut c = KvCache::paged(1, 64);
        let step = |v: f32| Tensor::full(vec![1, 1, 2], v);
        for i in 0..64 {
            c.append(0, &step(i as f32), &step(-(i as f32)));
            assert_eq!(c.page_stats().pages_allocated, 1);
            assert_eq!(c.total_elements(), 2 * (i + 1) * 2, "only valid positions are counted");
        }
        assert_eq!(c.len(), 64);
        let (k, v) = c.read_slot(0, 0);
        for i in 0..64 {
            assert_eq!(k.at(&[i, 0]), i as f32);
            assert_eq!(v.at(&[i, 1]), -(i as f32));
        }
    }

    #[test]
    fn total_elements_counts_k_and_v() {
        let mut c = KvCache::new(2);
        let t = Tensor::zeros(vec![1, 4, 8]);
        c.append(0, &t, &t);
        c.append(1, &t, &t);
        assert_eq!(c.total_elements(), 4 * (4 * 8));
    }

    #[test]
    fn repeat_batch_replicates_sequences() {
        // Rows 0 and 1 replicate; row 2 is kept once, after the replicas.
        let mut c = KvCache::new(1);
        let k = Tensor::from_vec(vec![3, 1, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        c.append(0, &k, &k);
        c.repeat_batch(3, 2);
        assert_eq!(c.row_lens(0).len(), 7);
        assert_eq!(c.read_slot(0, 0).0.data(), &[1.0, 2.0]);
        assert_eq!(c.read_slot(0, 2).0.data(), &[1.0, 2.0]);
        assert_eq!(c.read_slot(0, 3).0.data(), &[3.0, 4.0]);
        assert_eq!(c.read_slot(0, 6).0.data(), &[5.0, 6.0]);
        assert_eq!(c.len(), 1); // sequence length unchanged
        let mut empty = KvCache::new(1);
        empty.repeat_batch(2, 1);
        assert_eq!(empty.row_lens(0).len(), 0, "nothing written: no rows to repeat");
    }

    #[test]
    fn slots_insert_read_and_evict() {
        let mut c = KvCache::new(2);
        let ka = Tensor::from_vec(vec![3, 2], (0..6).map(|i| i as f32).collect());
        let va = ka.scale(10.0);
        c.insert_row_shared(1, 4, &[(ka.clone(), va.clone()), (ka.clone(), va.clone())], &[1, 2, 3]);
        assert_eq!(c.row_lens(0), &[0, 3, 0, 0]);
        let (k, v) = c.read_slot(0, 1);
        assert_eq!(k.data(), ka.data());
        assert_eq!(v.data(), va.data());
        assert_eq!(c.read_slot(1, 0).0.dim(0), 0, "untouched rows are empty");
        // Replace with a shorter sequence, then evict.
        let kb = Tensor::from_vec(vec![1, 2], vec![7.0, 8.0]);
        c.insert_row_shared(1, 4, &[(kb.clone(), kb.clone()), (kb.clone(), kb.clone())], &[9]);
        assert_eq!(c.row_lens(0), &[0, 1, 0, 0]);
        assert_eq!(c.read_slot(0, 1).0.data(), &[7.0, 8.0]);
        c.clear_slot(1);
        assert_eq!(c.row_lens(0), &[0, 0, 0, 0]);
        assert_eq!(c.row_lens(1), &[0, 0, 0, 0]);
    }

    #[test]
    fn ragged_rows_append_independently() {
        let mut c = KvCache::new(1);
        let ka = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        c.insert_row_shared(0, 2, &[(ka.clone(), ka)], &[1, 2]);
        let step = Tensor::full(vec![2, 1, 2], 9.0);
        c.append(0, &step, &step);
        assert_eq!(c.row_lens(0), &[3, 1]);
        assert_eq!(c.read_slot(0, 0).0.data(), &[1.0, 2.0, 3.0, 4.0, 9.0, 9.0]);
        assert_eq!(c.read_slot(0, 1).0.data(), &[9.0, 9.0]);
    }

    #[test]
    fn append_rows_grows_only_the_rows_it_names() {
        // A live-row step: tensor rows 0 and 1 land in cache rows 2 and 0;
        // rows 1 and 3 are not part of the step and keep length, table and
        // bytes. On an empty cache the call still shapes all four rows.
        let mut c = KvCache::paged(1, 2);
        let step = |a: f32, b: f32| Tensor::from_vec(vec![2, 1, 2], vec![a, a, b, b]);
        c.append_rows(0, &[2, 0], 4, &step(1.0, 2.0), &step(-1.0, -2.0));
        assert_eq!(c.row_lens(0), &[1, 0, 1, 0]);
        let parked = Tensor::from_vec(vec![3, 2], vec![7.0; 6]);
        c.insert_row_shared(1, 4, &[(parked.clone(), parked.clone())], &[7, 7, 7]);
        let live_before = c.page_stats().pages_live;
        c.append_rows(0, &[2, 0], 4, &step(3.0, 4.0), &step(-3.0, -4.0));
        assert_eq!(c.row_lens(0), &[2, 3, 2, 0]);
        assert_eq!(c.read_slot(0, 2).0.data(), &[1.0, 1.0, 3.0, 3.0]);
        assert_eq!(c.read_slot(0, 0).1.data(), &[-2.0, -2.0, -4.0, -4.0]);
        assert_eq!(c.read_slot(0, 1).0.data(), parked.data());
        assert_eq!(c.page_stats().pages_live, live_before, "second positions fit the first pages");
        assert_eq!(c.row_runs(0, 3).count(), 0, "a row outside the step stays empty");
    }

    #[test]
    fn clear_resets() {
        let mut c = KvCache::new(1);
        let t = Tensor::zeros(vec![1, 1, 2]);
        c.append(0, &t, &t);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.n_layers(), 1);
    }

    #[test]
    fn clear_keeps_the_page_pool_for_a_refill() {
        // Three rows of six positions at page 4: two pages a row. Clearing
        // frees all six; refilling to the same shape takes them back off the
        // free list, and the refill reads its own values.
        let mut c = KvCache::paged(2, 4);
        let fill = |c: &mut KvCache, v: f32| {
            let t = Tensor::full(vec![3, 6, 2], v);
            for layer in 0..2 {
                c.append(layer, &t, &t.scale(-1.0));
            }
        };
        fill(&mut c, 1.0);
        let full = c.page_stats().pages_allocated;
        assert_eq!(full, 6);
        c.clear();
        let st = c.page_stats();
        assert!(c.is_empty());
        assert_eq!((st.pages_live, st.pages_free, st.pages_allocated), (0, full, full));
        fill(&mut c, 2.0);
        let st = c.page_stats();
        assert_eq!((st.pages_live, st.pages_allocated), (full, full), "the refill reuses the pool");
        assert_eq!(c.read_slot(1, 2).1.data(), &[-2.0; 12]);
        // A prompt registered before a clear is forgotten with it.
        let kv = layer_kv(2, 0.0, 4, 2);
        c.clear();
        c.insert_row_shared(0, 2, &kv, &[1, 2, 3, 4]);
        c.clear();
        c.insert_row_shared(1, 2, &kv, &[1, 2, 3, 4]);
        assert_eq!(c.page_stats().pages_shared, 0);
    }

    #[test]
    #[should_panic(expected = "matching shapes")]
    fn mismatched_kv_rejected() {
        let mut c = KvCache::new(1);
        c.append(0, &Tensor::zeros(vec![1, 1, 2]), &Tensor::zeros(vec![1, 1, 3]));
    }

    /// `[l, d]` tensor whose position `p`, feature `f` value is
    /// `tag + p + f/10` — distinguishable per position and per tensor.
    fn seq(tag: f32, l: usize, d: usize) -> Tensor {
        let data = (0..l * d).map(|i| tag + (i / d) as f32 + (i % d) as f32 / 10.0).collect();
        Tensor::from_vec(vec![l, d], data)
    }

    /// Shared-insert helper: one (K, V) pair per layer from `seq`.
    fn layer_kv(n_layers: usize, tag: f32, l: usize, d: usize) -> Vec<(Tensor, Tensor)> {
        (0..n_layers)
            .map(|li| {
                let t = seq(tag + 100.0 * li as f32, l, d);
                (t.clone(), t.scale(-1.0))
            })
            .collect()
    }

    /// The dense oracle for block-table / copy-on-write bookkeeping: every
    /// row of every layer is its own `Vec` (`[layer][row] -> (k, v)`), no
    /// pages, nothing shared.
    struct Shadow(Vec<Vec<(Vec<f32>, Vec<f32>)>>);

    impl Shadow {
        fn set_row(&mut self, layer: usize, row: usize, k: &Tensor, v: &Tensor) {
            self.0[layer][row] = (k.data().to_vec(), v.data().to_vec());
        }

        fn append(&mut self, layer: usize, k: &Tensor, v: &Tensor) {
            let n = k.dim(1) * k.dim(2);
            for (r, (rk, rv)) in self.0[layer].iter_mut().enumerate() {
                rk.extend_from_slice(&k.data()[r * n..(r + 1) * n]);
                rv.extend_from_slice(&v.data()[r * n..(r + 1) * n]);
            }
        }

        fn assert_matches(&self, c: &KvCache, ctx: &str) {
            for (layer, rows) in self.0.iter().enumerate() {
                for (row, (k, v)) in rows.iter().enumerate() {
                    let (ck, cv) = c.read_slot(layer, row);
                    assert_eq!(ck.data(), &k[..], "{ctx} layer={layer} row={row}");
                    assert_eq!(cv.data(), &v[..], "{ctx} layer={layer} row={row}");
                }
            }
        }
    }

    #[test]
    fn block_tables_match_a_shadow_store_of_rows() {
        let (d, l) = (4, 7);
        // 64 ≥ every row: one run per row, the dense layout.
        for page_size in [1, 3, 4, 16, 64] {
            let mut c = KvCache::paged(2, page_size);
            let mut shadow = Shadow(vec![vec![(vec![], vec![]); 3]; 2]);
            let insert = |c: &mut KvCache, sh: &mut Shadow, row, kv: &[(Tensor, Tensor)], toks| {
                c.insert_row_shared(row, 3, kv, toks);
                for (li, (k, v)) in kv.iter().enumerate() {
                    sh.set_row(li, row, k, v);
                }
            };
            let append = |c: &mut KvCache, sh: &mut Shadow, tag: f32, step: &str| {
                let t = seq(tag, 3, d).into_reshape(vec![3, 1, d]);
                for layer in 0..2 {
                    c.append(layer, &t, &t.scale(-1.0));
                    sh.append(layer, &t, &t.scale(-1.0));
                }
                sh.assert_matches(c, &format!("S={page_size} after {step}"));
            };
            // A private append to one empty row, then every row grows by one
            // position.
            let (k, v) = (seq(1.0, l, d), seq(2.0, l, d));
            for (layer, (k, v)) in [(&k, &v), (&v, &k)].into_iter().enumerate() {
                c.append_rows(layer, &[1], 3, &k.reshape(vec![1, l, d]), &v.reshape(vec![1, l, d]));
                shadow.set_row(layer, 1, k, v);
            }
            append(&mut c, &mut shadow, 9.0, "append_rows + append");
            // Rows 0 and 2 admit one prompt (their pages are shared), then
            // every row appends into its tail page: rows 0/2 copy out.
            let prompt = layer_kv(2, 20.0, l, d);
            let tokens: Vec<usize> = (0..l).collect();
            insert(&mut c, &mut shadow, 0, &prompt, &tokens);
            insert(&mut c, &mut shadow, 2, &prompt, &tokens);
            shadow.assert_matches(&c, &format!("S={page_size} after shared insert"));
            append(&mut c, &mut shadow, 30.0, "append into shared pages");
            // Evicting a sharer leaves the other row's bytes alone; its slot
            // is re-admitted with a prompt that diverges after 4 tokens.
            c.clear_slot(0);
            let mut tokens2 = tokens.clone();
            tokens2[4..].iter_mut().for_each(|t| *t += 100);
            let mut prompt2 = prompt.clone();
            for (k, v) in &mut prompt2 {
                k.data_mut()[4 * d..].iter_mut().for_each(|x| *x += 0.5);
                v.data_mut()[4 * d..].iter_mut().for_each(|x| *x -= 0.5);
            }
            insert(&mut c, &mut shadow, 0, &prompt2, &tokens2);
            append(&mut c, &mut shadow, 50.0, "evict + re-admit + append");
            // Every reference is accounted for: evicting all rows frees all.
            (0..3).for_each(|row| c.clear_slot(row));
            let st = c.page_stats();
            assert_eq!((st.pages_live, st.pages_shared), (0, 0), "S={page_size}");
            assert_eq!(st.pages_free, st.pages_allocated, "S={page_size}");
        }
    }

    /// The row-major K of `runs`: each run's first `v.len() / d` columns of
    /// its `[d, s]` transposed page, position by position.
    fn k_of<'a>(runs: impl IntoIterator<Item = (&'a [f32], &'a [f32])>, s: usize, d: usize) -> Vec<f32> {
        let mut k = Vec::new();
        for (kt, v) in runs {
            for p in 0..v.len() / d {
                k.extend((0..d).map(|f| kt[f * s + p]));
            }
        }
        k
    }

    #[test]
    fn row_runs_concatenate_to_the_row_at_every_page_size() {
        let (d, l) = (4, 7);
        // 16 ≥ every row here: the whole row is one run; 128 holds it with
        // most of the page unwritten.
        for s in [1, 3, 16, 128] {
            let mut c = KvCache::paged(2, s);
            // Rows 0 and 1 admit the same prompt (shared pages), row 2 stays
            // empty; then every row appends two positions, rows 0/1 into
            // what was their shared tail page.
            let kv = layer_kv(2, 1.0, l, d);
            let tokens: Vec<usize> = (0..l).collect();
            c.insert_row_shared(0, 3, &kv, &tokens);
            c.insert_row_shared(1, 3, &kv, &tokens);
            let step = seq(50.0, 3 * 2, d).into_reshape(vec![3, 2, d]);
            c.append(0, &step, &step.scale(-1.0));
            // Mid-forward: layer 1 has not appended yet, so its runs stop at
            // its own length though the block table already covers more.
            assert_eq!(k_of(c.row_runs(1, 0), s, d).len(), l * d);
            assert_eq!(c.row_runs(1, 2).count(), 0, "empty row yields no run");
            c.append(1, &step, &step.scale(-1.0));
            for (li, (prompt_k, _)) in kv.iter().enumerate() {
                assert_eq!(c.row_lens(li), &[l + 2, l + 2, 2]);
                for row in 0..3 {
                    let prompt = if row < 2 { prompt_k.data() } else { &[] };
                    let want_k = [prompt, &step.data()[row * 2 * d..(row + 1) * 2 * d]].concat();
                    let want_v: Vec<f32> = want_k.iter().map(|x| -x).collect();
                    let runs: Vec<_> = c.row_runs(li, row).collect();
                    assert_eq!(k_of(runs.iter().copied(), s, d), want_k);
                    assert_eq!(runs.iter().flat_map(|r| r.1).copied().collect::<Vec<_>>(), want_v);
                    let (k, v) = c.read_slot(li, row);
                    assert_eq!((k.shape(), k.data()), (&[want_k.len() / d, d][..], &want_k[..]));
                    assert_eq!(v.data(), want_v);
                    // Whole pages, then the partial tail; each run's Kᵀ is
                    // its whole transposed page.
                    assert_eq!(runs.len(), (want_k.len() / d).div_ceil(s), "page={s}");
                    assert!(runs.iter().all(|r| r.0.len() == s * d));
                    assert!(runs.iter().rev().skip(1).all(|r| r.1.len() == s * d));
                }
            }
        }
    }

    #[test]
    fn shared_prefix_pages_are_mapped_not_copied() {
        let (s, d, l) = (4, 2, 10); // 10 positions = 2 full pages + 1 partial
        let mut c = KvCache::paged(2, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(2, 1.0, l, d);
        c.insert_row_shared(0, 3, &kv, &tokens);
        let base = c.page_stats();
        assert_eq!(base.pages_live, 3);
        assert_eq!(base.pages_shared, 0);
        // Same prompt again: all three pages map, nothing new allocates.
        c.insert_row_shared(1, 3, &kv, &tokens);
        let st = c.page_stats();
        assert_eq!(st.pages_live, 3, "identical prompt allocates nothing");
        assert_eq!(st.pages_shared, 3);
        // Same 8-token prefix, different tail: shares the 2 full pages.
        let mut tokens2 = tokens.clone();
        tokens2[9] = 99;
        let mut kv2 = layer_kv(2, 1.0, l, d);
        kv2[1].0.data_mut()[19] = -5.0; // the divergent tail position
        c.insert_row_shared(2, 3, &kv2, &tokens2);
        let st = c.page_stats();
        assert_eq!(st.pages_live, 4, "only the divergent partial page allocates");
        // Contents still correct per row.
        assert_eq!(c.read_slot(0, 0).0.data(), kv[0].0.data());
        assert_eq!(c.read_slot(1, 2).0.data(), kv2[1].0.data());
        assert_eq!(c.read_slot(1, 1).0.data(), kv[1].0.data());
    }

    #[test]
    fn append_to_shared_page_copies_on_write() {
        let (s, d, l) = (4, 2, 6); // final page holds positions 4..6, partial
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 1.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.insert_row_shared(1, 2, &kv, &tokens);
        assert_eq!(c.page_stats().pages_shared, 2);
        // Row 0 appends one token into its shared partial tail page: that
        // page copies out, the full page stays shared, and row 1's view is
        // untouched.
        let step = Tensor::full(vec![1, 1, d], 7.0);
        c.append_rows(0, &[0], 2, &step, &step.scale(-1.0));
        let st = c.page_stats();
        assert_eq!((st.pages_live, st.pages_shared), (3, 1), "COW copies the one written page");
        let (k1, v1) = c.read_slot(0, 1);
        assert_eq!(k1.data(), kv[0].0.data(), "sharer's bytes unchanged by COW");
        assert_eq!(v1.data(), kv[0].1.data());
        let (k0, v0) = c.read_slot(0, 0);
        assert_eq!(k0.data(), [kv[0].0.data(), &[7.0; 2]].concat());
        assert_eq!(v0.data(), [kv[0].1.data(), &[-7.0; 2]].concat());
    }

    #[test]
    fn eviction_frees_shared_pages_at_last_reference() {
        let (s, d, l) = (4, 2, 8);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 3.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.insert_row_shared(1, 2, &kv, &tokens);
        c.clear_slot(0);
        let st = c.page_stats();
        assert_eq!(st.pages_live, 2, "sharer keeps the pages alive");
        assert_eq!(st.pages_free, 0);
        assert_eq!(c.read_slot(0, 1).0.data(), kv[0].0.data());
        c.clear_slot(1);
        let st = c.page_stats();
        assert_eq!(st.pages_live, 0);
        assert_eq!(st.pages_free, 2, "last reference returns pages to the pool");
        // Freed pages are deregistered: a re-insert re-allocates from the
        // free list rather than aliasing stale registry entries.
        c.insert_row_shared(0, 2, &kv, &tokens);
        let st = c.page_stats();
        assert_eq!(st.pages_live, 2);
        assert_eq!(st.pages_allocated, 2, "free-listed pages are reused");
    }

    #[test]
    fn total_elements_charges_shared_pages_once() {
        let (s, d, l) = (4, 2, 8);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 0.0, l, d);
        c.insert_row_shared(0, 3, &kv, &tokens);
        let solo = c.total_elements();
        assert_eq!(solo, 2 * l * d);
        c.insert_row_shared(1, 3, &kv, &tokens);
        assert_eq!(c.total_elements(), solo, "a fully shared duplicate is free");
        let mut tokens2 = tokens.clone();
        tokens2[7] = 42;
        c.insert_row_shared(2, 3, &layer_kv(1, 0.5, l, d), &tokens2);
        assert_eq!(c.total_elements(), solo + 2 * s * d, "one divergent page charged");
    }

    #[test]
    fn paged_repeat_batch_shares_pages() {
        let (s, d, l) = (2, 2, 4);
        let mut c = KvCache::paged(1, s);
        let k = seq(1.0, l, d).into_reshape(vec![1, l, d]);
        c.append(0, &k, &k);
        let before = c.page_stats().pages_live;
        c.repeat_batch(3, 1);
        let st = c.page_stats();
        assert_eq!(st.pages_live, before, "replicas map the original pages");
        assert_eq!(st.pages_shared, before);
        for r in 0..3 {
            assert_eq!(c.read_slot(0, r).0.data(), k.data());
        }
        assert_eq!(c.len(), l);
    }

    #[test]
    fn stale_prefix_keys_never_alias() {
        // A row that decodes into its registered partial page must drop the
        // key: a later request with the same prompt would otherwise map a
        // page that now contains generated tokens.
        let (s, d, l) = (4, 2, 6);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 2.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        // Row 0 generates one token in place (refcount 1 → no COW, key must drop).
        let step = Tensor::full(vec![1, 1, d], 5.0);
        let mut batch_step = Tensor::zeros(vec![2, 1, d]);
        batch_step.data_mut()[..d].copy_from_slice(step.data());
        // Only row 0 has content; appending a [2,1,d] batch would also extend
        // row 1 from 0, which is fine for this check.
        c.append(0, &batch_step, &batch_step);
        // Same original prompt arrives: the partial page must NOT map.
        c.insert_row_shared(1, 2, &kv, &tokens);
        let (k1, _) = c.read_slot(0, 1);
        assert_eq!(k1.data(), kv[0].0.data(), "fresh insert sees prompt bytes, not generated ones");
    }

    #[test]
    #[should_panic(expected = "one token per cached position")]
    fn shared_insert_token_length_mismatch_rejected() {
        let mut c = KvCache::paged(1, 4);
        let kv = layer_kv(1, 0.0, 4, 2);
        c.insert_row_shared(0, 1, &kv, &[1, 2, 3]);
    }
}
