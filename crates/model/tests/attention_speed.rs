// Release-mode timings of the fused attention kernel (ignored by default) at
// the shapes one simulated chip runs in the serving benchmark's workloads
// (`palm-micro`: multiquery, 8 heads of 32; four chips), warm and, for the
// decode shapes, over a cache built and left cold the way the engine's is.
//
//   cargo test --release -p esti-model --test attention_speed -- --ignored --nocapture
use esti_model::reference::{attention_over_rows_into, AttentionScratch};
use esti_model::KvCache;
use esti_tensor::Tensor;
use std::time::Instant;

const D_HEAD: usize = 32;
/// Layers of the in-engine rows' cache (`palm-micro`'s).
const LAYERS: usize = 4;
/// Conversations of the in-engine rows' cache, each then held twice, as
/// `longctx_decode` holds a chip's share of its conversations (one each
/// on its four chips) after `expand_batch(2)`: `CACHE_ROWS` rows.
const CONVERSATIONS: usize = 2;
const CACHE_ROWS: usize = 2 * CONVERSATIONS;
/// `longctx_decode`'s prefill chunk and chunk-prefilled context.
const CHUNK: usize = 256;
const CONTEXT: usize = 2048;
/// Bytes written between two in-engine calls, so a call finds the cache
/// as cold as the rest of a step leaves it.
const CLOBBER: usize = 16 << 20;

fn fill(shape: Vec<usize>, salt: usize) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|i| 0.05 * (((i * 7 + salt) % 29) as f32 - 14.0)).collect();
    Tensor::from_vec(shape, data)
}

/// A `LAYERS`-layer cache of `CACHE_ROWS` rows of `keys` positions, built
/// the way `longctx_decode` builds its own: 256-position chunks over each
/// conversation up to its 2048-position context, each conversation's pages
/// then mapped by two adjacent rows (a sample pair), then one position per
/// row per step, so the rows step together past their shared context.
fn engine_like_cache(keys: usize) -> KvCache {
    let mut cache = KvCache::new(LAYERS);
    let chunked = keys.min(CONTEXT) / CHUNK * CHUNK;
    let mut at = 0;
    while at < keys {
        let (n, rows) = if at < chunked { (CHUNK, CONVERSATIONS) } else { (1, CACHE_ROWS) };
        for layer in 0..LAYERS {
            let salt = 2 * (at * LAYERS + layer);
            cache.append(layer, &fill(vec![rows, n, D_HEAD], salt), &fill(vec![rows, n, D_HEAD], salt + 1));
        }
        at += n;
        if at == chunked {
            cache.repeat_batch(2, CONVERSATIONS);
        }
    }
    cache
}

/// This thread's CPU time in ns, from `/proc/thread-self/schedstat`, or
/// `None` where that file cannot be read. The kernel folds a running
/// thread's time into the file only at a tick or a switch (every 4 ms at
/// `HZ=250`), so the read yields first: the switch folds it.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat").ok()?.split_whitespace().next()?.parse().ok()
}

/// Median wall µs and median per-thread CPU µs of `reps` calls of
/// `attention_over_rows_into` of `q` over rows `0..q.dim(0)` of `cache`,
/// cycling through its layers; `clobber`, if given, is written whole before
/// every call (untimed). The CPU column is the call's share of this
/// thread's time, less the cost of reading it (the median of back-to-back
/// reads), so a few µs of it are the reads' own; where the file cannot be
/// read it repeats the wall time.
fn median_us(cache: &KvCache, q: &Tensor, reps: usize, mut clobber: Option<&mut Vec<u8>>) -> (f64, f64) {
    let row_map: Vec<usize> = (0..q.dim(0)).collect();
    let valid = vec![q.dim(1); q.dim(0)];
    let mut out = Tensor::zeros(q.shape().to_vec());
    let mut scratch = AttentionScratch::default();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let floor = median((0..51).map(|_| cpu_us(thread_cpu_ns(), thread_cpu_ns()).unwrap_or(0.0)).collect());
    let (wall, cpu): (Vec<f64>, Vec<f64>) = (0..reps + 2)
        .map(|rep| {
            if let Some(buf) = clobber.as_deref_mut() {
                buf.iter_mut().for_each(|b| *b = b.wrapping_add(1));
                std::hint::black_box(&buf);
            }
            out.data_mut().fill(0.0);
            // The first read after the clobber pays for the read's own cold
            // path; the second is the one counted.
            let c0 = thread_cpu_ns().and(thread_cpu_ns());
            let (layer, out) = (rep % cache.n_layers(), std::hint::black_box(&mut out));
            let t = Instant::now();
            attention_over_rows_into(q, cache, &row_map, &valid, layer, D_HEAD, out, &mut scratch);
            let wall = t.elapsed().as_secs_f64() * 1e6;
            (wall, cpu_us(c0, thread_cpu_ns()).map_or(wall, |c| (c - floor).max(0.0)))
        })
        .skip(2)
        .unzip();
    (median(wall), median(cpu))
}

/// µs between two [`thread_cpu_ns`] readings, if both were read.
fn cpu_us(from: Option<u64>, to: Option<u64>) -> Option<f64> {
    Some(to?.saturating_sub(from?) as f64 / 1e3)
}

/// Prints the median wall and CPU µs per `attention_over_rows_into` call
/// for `rows` cache rows of `keys` positions each, `l_q` of them queries,
/// `heads` query heads over one KV head, and the GFLOP/s the CPU time makes
/// of the causal work: `2·d_head` flops per (query head, visible key) for
/// `Q·Kᵀ` and as many for `P·V`.
///
/// Each row is timed warm, over one layer built by one append; a decode
/// shape is timed again *in-engine*: over the `LAYERS`-layer cache
/// [`engine_like_cache`] builds, layer after layer, with `CLOBBER` bytes
/// written before every call. Nothing is gated on time.
#[test]
#[ignore]
fn attention_at_workload_shapes() {
    let shapes = [
        ("longctx_decode step", 2, 1, 2664, 8),
        ("longctx_decode step at 3200", 2, 1, 3200, 8),
        ("longctx 32-token follow-up", 2, 32, 2100, 8),
        ("prefill_batch", 4, 256, 256, 8),
        ("chat_steady prefill", 1, 64, 64, 2),
        ("chat_steady decode", 1, 1, 104, 2),
    ];
    eprintln!(
        "{:>39} {:>4} {:>4} {:>5} {:>5} {:>9} {:>8} {:>7}",
        "shape", "rows", "l_q", "keys", "heads", "median µs", "cpu µs", "GFLOP/s"
    );
    let mut clobber = vec![0u8; CLOBBER];
    for (name, rows, l_q, keys, heads) in shapes {
        let q = fill(vec![rows, l_q, heads * D_HEAD], 3);
        // Query i of l_q sees keys - l_q + i + 1 keys.
        let visible = l_q * (keys - l_q + 1) + l_q * (l_q - 1) / 2;
        let print = |name: &str, (median, cpu): (f64, f64)| {
            let gflops = (4 * D_HEAD * heads * rows * visible) as f64 / (cpu * 1e3);
            eprintln!("{name:>39} {rows:>4} {l_q:>4} {keys:>5} {heads:>5} {median:>9.1} {cpu:>8.1} {gflops:>7.1}");
        };
        let mut cache = KvCache::new(1);
        cache.append(0, &fill(vec![rows, keys, D_HEAD], 1), &fill(vec![rows, keys, D_HEAD], 2));
        let reps = (2_000_000 / (rows * l_q * keys * heads)).clamp(5, 400);
        print(name, median_us(&cache, &q, reps, None));
        if l_q == 1 {
            let median = median_us(&engine_like_cache(keys), &q, reps.min(100), Some(&mut clobber));
            print(&format!("{name} (in-engine)"), median);
        }
    }
}
