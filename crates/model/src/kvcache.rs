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
//! they cache) instead of rewriting them, [`KvCache::register_row`] keys a
//! prefilled row's prompt pages where they lie, and any in-place write to a
//! page referenced by more than one row first copies it out
//! (copy-on-write). Eviction is page-granular: a shared page returns to the
//! free list only when its last reference drops.
//!
//! The one option is the page size ([`KvCache::paged`]; [`KvCache::new`]
//! takes [`DEFAULT_KV_PAGE_SIZE`]). It decides how much of a prompt can be
//! shared, never a value: every read goes through [`KvCache::row_runs`] — a
//! row's keys and values as borrowed [`KvRun`]s in ascending order — and the
//! attention kernel walks the runs in place.
//!
//! **Blocks.** The pool's storage is a list of *blocks*, each `B`
//! consecutive page ids covering about 256 positions (`B = ⌊256 /
//! page_size⌋`, at least one page: 16 pages at the default page). A
//! block's storage exists once its first page is handed out, and holds per
//! layer its `B·page_size` positions' V row-major, `[B·S, Hkv·d_head]`, and
//! its K **transposed in panels** of [`KT_PANEL`] (32) keys, the GEMM
//! register tile's width: `[⌈B·S/32⌉][Hkv·d_head][32]`.
//!
//! **The panel map.** Feature `f` of block position `p` sits at `(p/32)·32·
//! width + f·32 + p%32`, so KV head `g`'s keys for one panel are one
//! contiguous `d_head × 32` tile panel at row stride 32, keys along the row;
//! page `i` of a block holds block positions `(i % B)·S ..`. The layout is
//! private to the cache: writes ([`KvCache::append_rows`],
//! [`KvCache::insert_row_shared`]) transpose positions in, copy-on-write
//! moves a page's positions, [`KvCache::repeat_batch`] shares whole pages,
//! and [`KvCache::read_slot`] hands a row back as `[len, Hkv·d_head]`.
//!
//! **Runs.** [`KvCache::row_runs`] yields a row's *maximal runs*:
//! consecutive block-table entries whose page ids are consecutive inside
//! one block, so their positions are consecutive in its storage. A run's V
//! is one row-major slice, and its `Kᵀ` is a few whole tile panels (a
//! piece at either end when the run starts or stops inside one). A row
//! whose pages were handed out in order is one run per block whatever the
//! page size. A page out of order (a short row's decode pages interleaved
//! with other rows', a free page reused), a copied-on-write page or a block
//! end breaks a run, never a value. The attention kernel scores a run one
//! panel piece at a time (`Q·Kᵀ`, keys on the vector lanes) and sums it
//! with one `P·V` call (head dims on the lanes); it reads rows through
//! [`KvCache::row_runs_in`] (the runs cut to a range of keys), a group of
//! rows' common pages ([`KvCache::shared_prefix`]) once for all of them.
//!
//! **Allocation** is *block-affine* (the rule is on the `free` field):
//! long rows that step together each fill blocks of their own, read as
//! whole runs, instead of taking pages in turn, while short rows keep the
//! footprint page-id order gives them.
//!
//! Determinism makes prefix sharing exact rather than approximate: causal
//! attention means K/V at position `p` depend only on tokens `0..=p`, and
//! every kernel in this workspace is bit-deterministic, so a page keyed by
//! a token prefix holds *bitwise* the same values any other request with
//! that prefix would have written. Skipping the write on a registry hit is
//! therefore invisible in the token streams (proven by the paged
//! conformance suite).

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use esti_tensor::Tensor;

/// Positions per page when nothing chooses otherwise: small enough that a
/// short shared system prompt still spans whole pages, large enough that
/// block tables stay short at this workspace's context lengths.
pub const DEFAULT_KV_PAGE_SIZE: usize = 16;

/// Keys per stored `Kᵀ` panel: the GEMM register tile's width, so one
/// panel's keys are scored by one tile call on its two-vector path.
pub const KT_PANEL: usize = 32;

/// Positions a block of pages covers, rounded down to whole pages.
const BLOCK_POSITIONS: usize = 256;

/// The storage of one block of pages, every layer's (see the module docs):
/// `kt` is `[layer][panel][width][KT_PANEL]`, `v` is `[layer][position]
/// [width]`, both zero-initialized.
#[derive(Debug, Clone)]
struct Block {
    kt: Vec<f32>,
    v: Vec<f32>,
}

/// One run of a row's cached positions in one layer (see
/// [`KvCache::row_runs`]): positions consecutive in the row and in one
/// block's storage.
#[derive(Debug, Clone, Copy)]
pub struct KvRun<'a> {
    /// The block's whole `Kᵀ` for the layer, `[panel][width][KT_PANEL]`.
    kt: &'a [f32],
    /// Block position of the run's first key.
    at: usize,
    width: usize,
    /// The run's values, row-major.
    v: &'a [f32],
}

impl<'a> KvRun<'a> {
    /// Positions (keys) in the run.
    #[must_use]
    pub fn keys(&self) -> usize {
        self.v.len() / self.width
    }

    /// The run's values, row-major: `[keys, Hkv·d_head]`.
    #[must_use]
    pub fn v(&self) -> &'a [f32] {
        self.v
    }

    /// The run's keys as tile panels, in ascending order: `(first, n,
    /// panel)` for each piece of the run inside one [`KT_PANEL`]-key panel
    /// of its block — whole panels, but a piece at either end where the
    /// run starts or stops inside one. The piece holds the run's keys
    /// `first..first + n`, feature `f` of key `first + i` at `panel[f ·
    /// KT_PANEL + i]`, so KV head `g`'s keys are the `d_head × n` panel
    /// from `panel[g · d_head · KT_PANEL]` on at row stride [`KT_PANEL`].
    pub fn kt_panels(&self) -> impl Iterator<Item = (usize, usize, &'a [f32])> + 'a {
        let (kt, at, w, n) = (self.kt, self.at, self.width, self.keys());
        let mut j = 0;
        std::iter::from_fn(move || {
            (j < n).then(|| {
                let p = at + j;
                let piece = (KT_PANEL - p % KT_PANEL).min(n - j);
                let panel_end = (p / KT_PANEL + 1) * KT_PANEL * w;
                let item = (j, piece, &kt[kt_at(p, w)..panel_end]);
                j += piece;
                item
            })
        })
    }

    /// Writes the run's keys row-major, `[keys, Hkv·d_head]`, into `dst`.
    fn read_k(&self, dst: &mut [f32]) {
        for (p, row) in dst.chunks_exact_mut(self.width).enumerate() {
            let src = self.kt[kt_at(self.at + p, self.width)..].iter().step_by(KT_PANEL);
            row.iter_mut().zip(src).for_each(|(x, &y)| *x = y);
        }
    }
}

/// Index of feature 0 of block position `p` in a layer's panel-major `Kᵀ`
/// of row width `width`; feature `f` is `f · KT_PANEL` further on.
fn kt_at(p: usize, width: usize) -> usize {
    p / KT_PANEL * KT_PANEL * width + p % KT_PANEL
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

/// Per-layer key/value storage for a batch of sequences: block storage +
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
    /// Pages per block, `B`.
    block_pages: usize,
    /// Feature width `Hkv·d_head`, fixed by the first write (0 until then).
    width: usize,
    /// `blocks[i]` stores pages `i·B .. (i+1)·B`.
    blocks: Vec<Block>,
    /// Per page id: references; its length is every block's pages.
    refs: Vec<usize>,
    /// The token prefix a page caches, when it was admitted via
    /// [`KvCache::insert_row_shared`] or keyed by [`KvCache::register_row`]
    /// and is still bit-exact for that prefix (cleared on any in-place
    /// write).
    keys: Vec<Option<Vec<usize>>>,
    /// Page ids handed out before and now unreferenced. The allocation rule
    /// is block-affine: a row's next page is the page after its last when
    /// that page is free (here or untouched) and in the same block; a row
    /// that already holds a block's worth of pages starts its next block on
    /// the lowest wholly free block, or on a new one. Every other page — a
    /// row's first, a short row's next when its neighbour is taken, a
    /// copy-on-write copy — is the lowest free page, else the lowest
    /// untouched one, so pages freed together come back in order and short
    /// rows use as many blocks as they would in page-id order. Long rows
    /// stepping together so each hold whole blocks, read as whole runs.
    free: BTreeSet<usize>,
    /// Pages of a block that were never handed out (neither live nor free:
    /// [`PageStats`] counts pages handed out).
    untouched: BTreeSet<usize>,
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
            block_pages: (BLOCK_POSITIONS / page_size).max(1),
            width: 0,
            blocks: Vec::new(),
            refs: Vec::new(),
            keys: Vec::new(),
            free: BTreeSet::new(),
            untouched: BTreeSet::new(),
            registry: HashMap::new(),
            tables: Vec::new(),
            lens: vec![Vec::new(); n_layers],
        }
    }

    fn ensure_shape(&mut self, batch: usize, width: usize) {
        if self.tables.is_empty() {
            if width != self.width {
                // A cleared pool's blocks are sized for its old width.
                self.blocks.clear();
                self.refs.clear();
                self.keys.clear();
                self.free.clear();
                self.untouched.clear();
            }
            self.tables = vec![Vec::new(); batch];
            self.lens.iter_mut().for_each(|l| *l = vec![0; batch]);
            self.width = width;
        }
        assert_eq!(self.tables.len(), batch, "batch dim disagrees with cached contents");
        assert_eq!(self.width, width, "feature dim disagrees with cached contents");
    }

    /// Floats of one layer's `Kᵀ` and of its V in a block.
    fn layer_lens(&self) -> (usize, usize) {
        let positions = self.block_pages * self.page_size;
        (positions.div_ceil(KT_PANEL) * KT_PANEL * self.width, positions * self.width)
    }

    /// Appends a block with its storage, its pages untouched; returns its
    /// index.
    fn new_block(&mut self) -> usize {
        let (kl, vl) = self.layer_lens();
        self.blocks.push(Block { kt: vec![0.0; self.n_layers * kl], v: vec![0.0; self.n_layers * vl] });
        let pages = self.refs.len()..self.refs.len() + self.block_pages;
        self.refs.resize(pages.end, 0);
        self.keys.resize(pages.end, None);
        self.untouched.extend(pages);
        self.blocks.len() - 1
    }

    /// Hands out page `id`, free or untouched: it starts private (refcount
    /// 1, no key).
    fn take_page(&mut self, id: usize) -> usize {
        if !self.free.remove(&id) {
            assert!(self.untouched.remove(&id), "page {id} is not free");
        }
        self.refs[id] = 1;
        self.keys[id] = None;
        id
    }

    /// The lowest-free rule: the lowest free page, else the lowest untouched
    /// one, else the first page of a new block.
    fn alloc_page(&mut self) -> usize {
        let id = match self.free.first().or(self.untouched.first()) {
            Some(&id) => id,
            None => self.new_block() * self.block_pages,
        };
        self.take_page(id)
    }

    /// Hands out row `r`'s next block-table page by the block-affine rule
    /// (see `free`): the page after its last when that one is free in the
    /// same block; for a row holding a block's worth of pages, the first
    /// page of the lowest wholly free block or of a new one; else
    /// [`KvCache::alloc_page`]'s.
    fn next_page(&mut self, r: usize) -> usize {
        let (table, bp) = (&self.tables[r], self.block_pages);
        if let Some(&last) = table.last() {
            let next = last + 1;
            if !next.is_multiple_of(bp) && self.refs[next] == 0 {
                return self.take_page(next);
            }
            if table.len() >= bp {
                let block = self.refs.chunks(bp).position(|b| b.iter().all(|&n| n == 0));
                let block = block.unwrap_or_else(|| self.new_block());
                return self.take_page(block * bp);
            }
        }
        self.alloc_page()
    }

    /// Writes `k` and `v` (row-major, `width` floats per position) into
    /// `layer` of page `pid` from position `off` of the page on.
    fn put(&mut self, layer: usize, pid: usize, off: usize, k: &[f32], v: &[f32]) {
        let ((kl, vl), d) = (self.layer_lens(), self.width);
        let at = pid % self.block_pages * self.page_size + off;
        let block = &mut self.blocks[pid / self.block_pages];
        block.v[layer * vl + at * d..][..v.len()].copy_from_slice(v);
        let kt = &mut block.kt[layer * kl..][..kl];
        for (p, pos) in k.chunks_exact(d).enumerate() {
            let dst = kt[kt_at(at + p, d)..].iter_mut().step_by(KT_PANEL);
            dst.zip(pos).for_each(|(x, &y)| *x = y);
        }
    }

    /// Page `pid`'s `layer` as a run of `n` positions from position `off`
    /// of the page on.
    fn page_run(&self, layer: usize, pid: usize, off: usize, n: usize) -> KvRun<'_> {
        let ((kl, vl), d) = (self.layer_lens(), self.width);
        let at = pid % self.block_pages * self.page_size + off;
        let block = &self.blocks[pid / self.block_pages];
        KvRun { kt: &block.kt[layer * kl..][..kl], at, width: d, v: &block.v[layer * vl + at * d..][..n * d] }
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
            self.free.insert(id);
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
            let id = self.next_page(r);
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
            let n = self.page_size * self.width;
            let (mut k, mut v) = (vec![0.0; n], vec![0.0; n]);
            for layer in 0..self.n_layers {
                let src = self.page_run(layer, pid, 0, self.page_size);
                src.read_k(&mut k);
                v.copy_from_slice(src.v);
                self.put(layer, nid, 0, &k, &v);
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
            self.put(layer, pid, off, &k_src[src.clone()], &v_src[src]);
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
        let allocated = self.refs.len() - self.untouched.len();
        PageStats {
            page_size: self.page_size,
            pages_allocated: allocated,
            pages_live: allocated - self.free.len(),
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
        self.append_ragged(layer, rows, &vec![k.dim(1); rows.len()], batch, k, v);
    }

    /// [`KvCache::append_rows`] of only the first `lens[r]` positions of
    /// tensor row `r`: cache row `rows[r]` grows by `lens[r]`, and a row
    /// given no positions is not touched (no page is taken for it).
    ///
    /// # Panics
    ///
    /// As [`KvCache::append_rows`], or if `lens` does not give each tensor
    /// row at most `L_new` positions.
    pub fn append_ragged(&mut self, layer: usize, rows: &[usize], lens: &[usize], batch: usize, k: &Tensor, v: &Tensor) {
        assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
        assert_eq!(k.rank(), 3, "KV tensors must be [B, L, Hkv*dh]");
        let (l, d) = (k.dim(1), k.dim(2));
        assert_eq!(rows.len(), k.dim(0), "one cache row per KV tensor row");
        assert_eq!(lens.len(), rows.len(), "one length per KV tensor row");
        self.ensure_shape(batch, d);
        for (src, (&r, &n)) in rows.iter().zip(lens).enumerate() {
            assert!(r < batch, "row {r} out of range for batch {batch}");
            assert!(n <= l, "row {r} given {n} of {l} positions");
            if n == 0 {
                continue;
            }
            let at = self.lens[layer][r];
            let src = src * l * d..(src * l + n) * d;
            self.write_span(layer, r, at, &k.data()[src.clone()], &v.data()[src]);
            self.lens[layer][r] = at + n;
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
                let pid = self.next_page(row);
                let src = pi * s * d..end * d;
                for (li, (k, v)) in layers.iter().enumerate() {
                    self.put(li, pid, 0, &k.data()[src.clone()], &v.data()[src.clone()]);
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

    /// Settles a prefilled row in place: keys each of row `row`'s pages by
    /// the token prefix of `tokens` it caches, as
    /// [`KvCache::insert_row_shared`] would have keyed a copy of them. A
    /// page whose key is already registered to another page is dropped and
    /// that page mapped instead; a page shared with another row is copied
    /// out before it is keyed. No position is rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or does not hold exactly
    /// `tokens.len()` positions in every layer.
    pub fn register_row(&mut self, row: usize, tokens: &[usize]) {
        let l = tokens.len();
        for lens in &self.lens {
            assert_eq!(lens[row], l, "row {row} holds {} positions, not its {l} tokens", lens[row]);
        }
        for pi in 0..self.tables[row].len() {
            let key = &tokens[..((pi + 1) * self.page_size).min(l)];
            let pid = self.tables[row][pi];
            match self.registry.get(key) {
                Some(&hit) if hit == pid => {}
                Some(&hit) => {
                    self.refs[hit] += 1;
                    self.tables[row][pi] = hit;
                    self.unref_page(pid);
                }
                None => {
                    let pid = self.prepare_write(row, pi);
                    self.keys[pid] = Some(key.to_vec());
                    self.registry.insert(key.to_vec(), pid);
                }
            }
        }
    }

    /// Feature width `Hkv·d_head` of the cached rows (0 before the first
    /// write).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `row`'s positions of `layer` as borrowed [`KvRun`]s in ascending
    /// position order — the one block-table traversal every read goes
    /// through. A run is a maximal stretch of block-table entries whose
    /// page ids are consecutive inside one block (see the module docs), cut
    /// at the layer's valid length: its V is the run's valid positions,
    /// row-major, and its `Kᵀ` is read as the block's tile panels
    /// ([`KvRun::kt_panels`]). A page shared with other rows (or copied out
    /// of one) reads like any other. An empty row, or a layer nothing was
    /// written to, yields no run.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range, or `row` is out of range for a
    /// cache that holds contents.
    pub fn row_runs(&self, layer: usize, row: usize) -> impl Iterator<Item = KvRun<'_>> {
        // Before the first write there are no block tables to index.
        let len = if self.tables.is_empty() { 0 } else { self.lens[layer][row] };
        self.row_runs_in(layer, row, 0..len).map(|(_, run)| run)
    }

    /// Row `row`'s keys `keys` of `layer` as `(first key, run)` pairs in
    /// ascending order: [`KvCache::row_runs`] cut at the range's two ends,
    /// which need not be page-aligned. The attention kernel reads a row's
    /// shared prefix ([`KvCache::shared_prefix`]) and its own keys as two
    /// such ranges.
    ///
    /// # Panics
    ///
    /// Panics if `keys` ends past the row's valid length in `layer`, or as
    /// [`KvCache::row_runs`].
    pub fn row_runs_in(
        &self,
        layer: usize,
        row: usize,
        keys: Range<usize>,
    ) -> impl Iterator<Item = (usize, KvRun<'_>)> {
        let (s, bp, end) = (self.page_size, self.block_pages, keys.end);
        assert!(end <= self.lens[layer].get(row).copied().unwrap_or(0), "keys {keys:?} past row {row}'s length");
        let table = if end == 0 { &[][..] } else { &self.tables[row][..end.div_ceil(s)] };
        let mut j = keys.start;
        std::iter::from_fn(move || {
            (j < end).then(|| {
                let pi = j / s;
                let first = table[pi];
                let stop = (pi + 1..table.len())
                    .find(|&e| table[e] != first + (e - pi) || table[e].is_multiple_of(bp))
                    .unwrap_or(table.len());
                let n = (stop * s).min(end) - j;
                let item = (j, self.page_run(layer, first, j % s, n));
                j += n;
                item
            })
        })
    }

    /// Leading positions of `layer` that every row of `rows` reads from the
    /// same pages: their block tables' common prefix of page ids, in whole
    /// pages, cut at the shortest row's valid length (0 for fewer than two
    /// rows). Rows repeated by [`KvCache::repeat_batch`] or admitted with
    /// one prompt by [`KvCache::insert_row_shared`] share theirs; the
    /// attention kernel scores such rows' common keys once.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or a row is out of range for a cache that holds
    /// contents.
    #[must_use]
    pub fn shared_prefix(&self, layer: usize, rows: &[usize]) -> usize {
        let Some((&r0, rest)) = rows.split_first() else { return 0 };
        if self.tables.is_empty() || rest.is_empty() {
            return 0;
        }
        let t0 = &self.tables[r0];
        let pages = rest.iter().map(|&r| t0.iter().zip(&self.tables[r]).take_while(|(a, b)| a == b).count()).min();
        let shortest = rows.iter().map(|&r| self.lens[layer][r]).min().unwrap_or(0);
        (pages.unwrap_or(0) * self.page_size).min(shortest)
    }

    /// Reads one batch row of `layer` back as `([l, D], [l, D])` tensors —
    /// the extraction half of slot management: the concatenation of
    /// [`KvCache::row_runs`], K transposed back to row-major, so the bytes
    /// do not depend on the page size or the block layout.
    ///
    /// # Panics
    ///
    /// Panics if `layer` has no contents or `row` is out of range.
    #[must_use]
    pub fn read_slot(&self, layer: usize, row: usize) -> (Tensor, Tensor) {
        let (len, d) = (self.row_lens(layer)[row], self.width());
        let mut kd = vec![0.0; len * d];
        let mut vd = Vec::with_capacity(len * d);
        for run in self.row_runs(layer, row) {
            let at = vd.len();
            run.read_k(&mut kd[at..at + run.v.len()]);
            vd.extend_from_slice(run.v);
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
        let mut valid = vec![0usize; self.refs.len() * self.n_layers];
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
    /// blocks keep their storage, so refilling the cache to the same shape
    /// allocates nothing.
    pub fn clear(&mut self) {
        self.refs.fill(0);
        self.keys.fill(None);
        self.free = (0..self.refs.len()).filter(|id| !self.untouched.contains(id)).collect();
        self.registry.clear();
        self.tables.clear();
        self.lens.iter_mut().for_each(Vec::clear);
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

    /// The row-major K of `runs`, read off each run's tile panels position
    /// by position.
    fn k_of<'a>(runs: impl IntoIterator<Item = KvRun<'a>>, d: usize) -> Vec<f32> {
        let mut k = Vec::new();
        for run in runs {
            for (_, n, kt) in run.kt_panels() {
                for p in 0..n {
                    k.extend((0..d).map(|f| kt[f * KT_PANEL + p]));
                }
            }
        }
        k
    }

    /// `run`'s panel pieces as `(first, n)`, checking they tile the run.
    fn pieces(run: KvRun<'_>) -> Vec<(usize, usize)> {
        let pieces: Vec<(usize, usize)> = run.kt_panels().map(|(j, n, _)| (j, n)).collect();
        let mut next = 0;
        for &(j, n) in &pieces {
            assert_eq!(j, next, "pieces are contiguous");
            assert!(0 < n && n <= KT_PANEL, "a piece is one panel at most");
            next += n;
        }
        assert_eq!(next, run.keys(), "pieces cover the run");
        pieces
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
            assert_eq!(k_of(c.row_runs(1, 0), d).len(), l * d);
            assert_eq!(c.row_runs(1, 2).count(), 0, "empty row yields no run");
            c.append(1, &step, &step.scale(-1.0));
            for (li, (prompt_k, _)) in kv.iter().enumerate() {
                assert_eq!(c.row_lens(li), &[l + 2, l + 2, 2]);
                for row in 0..3 {
                    let prompt = if row < 2 { prompt_k.data() } else { &[] };
                    let want_k = [prompt, &step.data()[row * 2 * d..(row + 1) * 2 * d]].concat();
                    let want_v: Vec<f32> = want_k.iter().map(|x| -x).collect();
                    let runs: Vec<_> = c.row_runs(li, row).collect();
                    assert_eq!(k_of(runs.iter().copied(), d), want_k);
                    assert_eq!(runs.iter().flat_map(KvRun::v).copied().collect::<Vec<_>>(), want_v);
                    let (k, v) = c.read_slot(li, row);
                    assert_eq!((k.shape(), k.data()), (&[want_k.len() / d, d][..], &want_k[..]));
                    assert_eq!(v.data(), want_v);
                    // At most one run per page; a run's panel pieces tile
                    // it, whole panels but at its two ends.
                    assert!(runs.len() <= (want_k.len() / d).div_ceil(s), "page={s}");
                    for run in &runs {
                        let pieces = pieces(*run);
                        let inner = pieces.len().saturating_sub(2);
                        assert!(pieces.iter().skip(1).take(inner).all(|p| p.1 == KT_PANEL), "page={s}");
                    }
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

    /// Keys per run of `row` in `layer`.
    fn run_keys(c: &KvCache, layer: usize, row: usize) -> Vec<usize> {
        c.row_runs(layer, row).map(|r| r.keys()).collect()
    }

    #[test]
    fn runs_break_at_block_ends_reused_pages_and_copy_on_write() {
        // Page 16: a block is 16 pages, 256 positions.
        let d = 4;
        let rows = |tag: f32, n: usize, l: usize| seq(tag, n * l, d).into_reshape(vec![n, l, d]);
        let mut c = KvCache::paged(1, 16);
        // Row 0's 300 positions take pages 0..=18 in order: a run per block.
        c.append_rows(0, &[0], 4, &rows(1.0, 1, 300), &rows(2.0, 1, 300));
        assert_eq!(run_keys(&c, 0, 0), [256, 44]);
        // Row 1 takes pages 19 and 20, row 2 page 21, row 3 page 22.
        // Evicting row 1 frees 19 and 20; the page after row 2's is taken, so
        // its next 32 positions reuse them, and its run breaks after page 21
        // however the free list orders them.
        c.append_rows(0, &[1], 4, &rows(3.0, 1, 32), &rows(4.0, 1, 32));
        c.append_rows(0, &[2], 4, &rows(5.0, 1, 16), &rows(6.0, 1, 16));
        c.append_rows(0, &[3], 4, &rows(5.5, 1, 16), &rows(6.5, 1, 16));
        assert_eq!(run_keys(&c, 0, 1), [32]);
        c.clear_slot(1);
        c.append_rows(0, &[2], 4, &rows(7.0, 1, 32), &rows(8.0, 1, 32));
        let keys = run_keys(&c, 0, 2);
        assert_eq!((keys[0], keys.iter().sum::<usize>()), (16, 48), "{keys:?}");
        assert_eq!(c.page_stats().pages_allocated, 23, "the evicted pages were reused");
        // One-position steps over two rows interleave their pages: every
        // page is its own run.
        let mut c = KvCache::paged(1, 16);
        for step in 0..64 {
            c.append(0, &rows(step as f32, 2, 1), &rows(-(step as f32), 2, 1));
        }
        assert_eq!(run_keys(&c, 0, 0), [16; 4]);
        // Two rows map one 24-position prompt (pages 0 and 1: one run); an
        // append copies row 0's shared tail page out, breaking its run.
        let mut c = KvCache::paged(1, 16);
        let kv = layer_kv(1, 1.0, 24, d);
        let tokens: Vec<usize> = (0..24).collect();
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.insert_row_shared(1, 2, &kv, &tokens);
        assert_eq!((run_keys(&c, 0, 0), run_keys(&c, 0, 1)), (vec![24], vec![24]));
        c.append_rows(0, &[0], 2, &rows(9.0, 1, 1), &rows(9.0, 1, 1));
        assert_eq!((run_keys(&c, 0, 0), run_keys(&c, 0, 1)), (vec![16, 9], vec![24]));
        assert_eq!(c.read_slot(0, 1).0.data(), kv[0].0.data());
    }

    #[test]
    fn kt_panels_tile_every_page_size() {
        let d = 8;
        for s in [1, 3, 16, 40, 128] {
            // Row 0 takes a first page; row 1's 300 positions start on the
            // page after it and run past the block's end.
            let mut c = KvCache::paged(2, s);
            let (k0, k1) = (seq(1.0, s, d), seq(500.0, 300, d));
            for layer in 0..2 {
                c.append_rows(layer, &[0], 2, &k0.reshape(vec![1, s, d]), &k0.scale(-1.0).reshape(vec![1, s, d]));
                c.append_rows(layer, &[1], 2, &k1.reshape(vec![1, 300, d]), &k1.scale(-1.0).reshape(vec![1, 300, d]));
            }
            let block = (256 / s).max(1) * s;
            for layer in 0..2 {
                let runs: Vec<KvRun<'_>> = c.row_runs(layer, 1).collect();
                assert_eq!(k_of(runs.iter().copied(), d), k1.data(), "S={s}");
                assert_eq!(runs.iter().flat_map(KvRun::v).copied().collect::<Vec<_>>(), k1.scale(-1.0).data());
                // Every block here holds two pages or more: row 1 starts one
                // page into block 0, and its runs end at block ends.
                assert_eq!(runs[0].keys(), block - s, "S={s}");
                assert!(runs.iter().rev().skip(1).all(|r| r.keys() % s == 0), "S={s}");
                let first_pieces = pieces(runs[0]);
                let row0 = pieces(c.row_runs(layer, 0).next().expect("row 0 has a run"));
                match s {
                    // A 40-position page straddles two panels: page 0 is
                    // panel 0 and 8 keys of panel 1; row 1's run starts 40
                    // positions in, 24 keys before panel 2.
                    40 => {
                        assert_eq!(row0, [(0, 32), (32, 8)]);
                        assert_eq!(&first_pieces[..2], [(0, 24), (24, 32)]);
                    }
                    // A 128-position page spans four whole panels.
                    128 => {
                        assert_eq!(row0, [(0, 32), (32, 32), (64, 32), (96, 32)]);
                        assert_eq!(first_pieces, row0);
                    }
                    _ => assert!(first_pieces.iter().skip(1).all(|p| p.1 == KT_PANEL || p.0 + p.1 == runs[0].keys())),
                }
                for run in &runs {
                    pieces(*run);
                }
            }
        }
    }

    #[test]
    fn long_rows_stepping_together_keep_their_pages_in_blocks() {
        // Four rows prefill 300 positions each, then step together one
        // position at a time, 300 times. Every break in a row's block table
        // lands on a block's first page, so past its first run a row reads
        // whole blocks; the values and counters are the page pool's.
        let (d, n, len) = (4, 4, 600usize);
        for s in [1, 3, 16, 40] {
            let mut c = KvCache::paged(1, s);
            let mut shadow = Shadow(vec![vec![(vec![], vec![]); n]]);
            for row in 0..n {
                let (k, v) = (seq(row as f32, 300, d), seq(-(row as f32), 300, d));
                c.append_rows(0, &[row], n, &k.reshape(vec![1, 300, d]), &v.reshape(vec![1, 300, d]));
                shadow.set_row(0, row, &k, &v);
            }
            for step in 0..300 {
                let t = seq(1000.0 + step as f32, n, d).into_reshape(vec![n, 1, d]);
                c.append(0, &t, &t.scale(0.5));
                shadow.append(0, &t, &t.scale(0.5));
            }
            shadow.assert_matches(&c, &format!("S={s}"));
            let bp = (256 / s).max(1);
            for (row, table) in c.tables.iter().enumerate() {
                for w in table.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    assert!(b == a + 1 || b.is_multiple_of(bp), "S={s} row {row}: page {b} after {a}");
                }
            }
            let pages = n * len.div_ceil(s);
            let want = PageStats {
                page_size: s,
                pages_allocated: pages,
                pages_live: pages,
                pages_free: 0,
                pages_shared: 0,
            };
            assert_eq!(c.page_stats(), want, "S={s}");
            // At the default page a 600-position row is four runs at most:
            // a block's worth each but where a row's prefill stopped inside
            // one; a run's panel pieces are whole panels but at its ends.
            for row in (0..n).filter(|_| s == DEFAULT_KV_PAGE_SIZE) {
                let runs: Vec<KvRun<'_>> = c.row_runs(0, row).collect();
                assert!(runs.len() <= len.div_ceil(256) + 1, "row {row}: {:?}", run_keys(&c, 0, row));
                for run in runs {
                    let pieces = pieces(run);
                    let inner = pieces.len().saturating_sub(2);
                    assert!(pieces.iter().skip(1).take(inner).all(|p| p.1 == KT_PANEL), "row {row}: {pieces:?}");
                }
            }
        }
    }

    #[test]
    fn row_runs_in_cuts_the_row_and_shared_prefix_finds_common_pages() {
        let (d, s) = (4, 16);
        let mut c = KvCache::paged(2, s);
        let kv = layer_kv(2, 1.0, 40, d);
        let tokens: Vec<usize> = (0..40).collect();
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.repeat_batch(2, 1);
        // Rows 0 and 1 map the same three pages; row 1 appends 5 positions
        // (its tail page copied out), row 2 stays empty.
        let step = seq(70.0, 5, d).into_reshape(vec![1, 5, d]);
        for layer in 0..2 {
            c.append_rows(layer, &[1], 3, &step, &step);
        }
        assert_eq!(c.shared_prefix(0, &[0, 1]), 32, "two whole pages");
        assert_eq!(c.shared_prefix(0, &[0]), 0);
        assert_eq!(c.shared_prefix(0, &[0, 1, 2]), 0, "the empty row shares nothing");
        let row1 = c.read_slot(0, 1).0;
        for keys in [0..45, 0..32, 32..45, 7..9, 13..40, 45..45] {
            let runs: Vec<(usize, KvRun<'_>)> = c.row_runs_in(0, 1, keys.clone()).collect();
            let mut next = keys.start;
            for (j, run) in &runs {
                assert_eq!(*j, next, "{keys:?}");
                next += run.keys();
            }
            assert_eq!(next, keys.end, "{keys:?}");
            assert_eq!(k_of(runs.into_iter().map(|r| r.1), d), row1.data()[keys.start * d..keys.end * d], "{keys:?}");
        }
    }

    #[test]
    fn reads_and_counters_are_the_page_pools_at_every_page_size() {
        // What the cache reports does not depend on how pages are stored:
        // rows read back as written, valid positions are counted once per
        // physical page, and the counters count pages.
        let (d, n_layers) = (4, 2);
        for s in [1, 3, 16, 40, 128] {
            let mut c = KvCache::paged(n_layers, s);
            let mut shadow = Shadow(vec![vec![(vec![], vec![]); 3]; n_layers]);
            // Ragged chunks, then interleaved one-position steps.
            for (row, l) in [(0, 270), (1, 37), (2, 5)] {
                for layer in 0..n_layers {
                    let (k, v) = (seq(row as f32, l, d), seq(-(row as f32), l, d));
                    c.append_rows(layer, &[row], 3, &k.reshape(vec![1, l, d]), &v.reshape(vec![1, l, d]));
                    shadow.set_row(layer, row, &k, &v);
                }
            }
            for step in 0..20 {
                let t = seq(1000.0 + step as f32, 3, d).into_reshape(vec![3, 1, d]);
                for layer in 0..n_layers {
                    c.append(layer, &t, &t.scale(0.5));
                    shadow.append(layer, &t, &t.scale(0.5));
                }
            }
            shadow.assert_matches(&c, &format!("S={s}"));
            let lens: [usize; 3] = [290, 57, 25];
            let pages: usize = lens.iter().map(|l| l.div_ceil(s)).sum();
            assert_eq!(c.total_elements(), 2 * d * n_layers * lens.iter().sum::<usize>(), "S={s}");
            let want = PageStats { page_size: s, pages_allocated: pages, pages_live: pages, pages_free: 0, pages_shared: 0 };
            assert_eq!(c.page_stats(), want, "S={s}");
            c.clear_slot(1);
            let st = c.page_stats();
            assert_eq!((st.pages_live, st.pages_free), (pages - 57usize.div_ceil(s), 57usize.div_ceil(s)), "S={s}");
        }
    }

    #[test]
    fn register_row_keys_a_prefilled_row_in_place() {
        // A row prefilled from a right-padded pass, its padding never
        // appended, settled in place, reads and counts as the same row
        // copied out and inserted with its prompt would: prompt pages keyed
        // for the next sharer, and a page whose key another page already
        // holds swapped for that page.
        let (s, d, l) = (4, 2, 10);
        for settle_in_place in [false, true] {
            let mut c = KvCache::paged(2, s);
            let tokens: Vec<usize> = (0..l).collect();
            // Row 0 holds the prompt's first 8 tokens, registered.
            let kv = layer_kv(2, 1.0, l, d);
            let head: Vec<(Tensor, Tensor)> = kv.iter().map(|(k, v)| (k.slice(0, 0, 8), v.slice(0, 0, 8))).collect();
            c.insert_row_shared(0, 3, &head, &tokens[..8]);
            // Row 1 is prefilled privately from the prompt plus 3 padding
            // positions, of which it appends the prompt's.
            for (li, (k, v)) in kv.iter().enumerate() {
                let pad = Tensor::full(vec![3, d], 99.0);
                let k = Tensor::concat(&[k, &pad], 0).into_reshape(vec![1, l + 3, d]);
                let v = Tensor::concat(&[v, &pad], 0).into_reshape(vec![1, l + 3, d]);
                c.append_ragged(li, &[1], &[l], 3, &k, &v);
            }
            assert_eq!(c.page_stats().pages_live, 2 + 3);
            if settle_in_place {
                c.register_row(1, &tokens);
            } else {
                let copy: Vec<(Tensor, Tensor)> = (0..2)
                    .map(|li| {
                        let (k, v) = c.read_slot(li, 1);
                        (k.slice(0, 0, l), v.slice(0, 0, l))
                    })
                    .collect();
                c.insert_row_shared(1, 3, &copy, &tokens);
            }
            let ctx = format!("in place: {settle_in_place}");
            assert_eq!(c.row_lens(0), &[8, l, 0], "{ctx}");
            assert_eq!(c.row_lens(1), &[8, l, 0], "{ctx}");
            // Pages 0 and 1 are row 0's; row 1's partial page is its own.
            let st = c.page_stats();
            assert_eq!((st.pages_live, st.pages_shared), (3, 2), "{ctx}");
            for (li, (k, v)) in kv.iter().enumerate() {
                assert_eq!(c.read_slot(li, 1).0.data(), k.data(), "{ctx}");
                assert_eq!(c.read_slot(li, 1).1.data(), v.data(), "{ctx}");
            }
            // The whole prompt is now registered: a third row maps every page.
            c.insert_row_shared(2, 3, &kv, &tokens);
            assert_eq!(c.page_stats().pages_live, 3, "{ctx}");
            assert_eq!(c.total_elements(), 2 * 2 * l * d, "{ctx}");
        }
    }
}
