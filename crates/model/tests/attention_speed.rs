// Release-mode timings of the fused attention kernel (ignored by default) at
// the shapes one simulated chip runs in the serving benchmark's workloads
// (`palm-micro`: multiquery, 8 heads of 32; four chips).
//
//   cargo test --release -p esti-model --test attention_speed -- --ignored --nocapture
use esti_model::reference::attention_over_rows_into;
use esti_model::KvCache;
use esti_tensor::Tensor;
use std::time::Instant;

const D_HEAD: usize = 32;

fn fill(shape: Vec<usize>, salt: usize) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|i| 0.05 * (((i * 7 + salt) % 29) as f32 - 14.0)).collect();
    Tensor::from_vec(shape, data)
}

/// Prints the median µs per `attention_over_rows_into` call for `rows` cache
/// rows of `keys` positions each, `l_q` of them queries, `heads` query heads
/// over one KV head, and the GFLOP/s it makes of the causal work: `2·d_head`
/// flops per (query head, visible key) for `Q·Kᵀ` and as many for `P·V`.
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
        "{:>27} {:>4} {:>4} {:>5} {:>5} {:>9} {:>7}",
        "shape", "rows", "l_q", "keys", "heads", "median µs", "GFLOP/s"
    );
    for (name, rows, l_q, keys, heads) in shapes {
        let mut cache = KvCache::new(1);
        cache.append(0, &fill(vec![rows, keys, D_HEAD], 1), &fill(vec![rows, keys, D_HEAD], 2));
        let q = fill(vec![rows, l_q, heads * D_HEAD], 3);
        let row_map: Vec<usize> = (0..rows).collect();
        let mut out = Tensor::zeros(q.shape().to_vec());
        let reps = (2_000_000 / (rows * l_q * keys * heads)).clamp(5, 400);
        let mut times: Vec<f64> = (0..reps + 2)
            .map(|_| {
                out.data_mut().fill(0.0);
                let t = Instant::now();
                attention_over_rows_into(
                    &q,
                    &cache,
                    &row_map,
                    0,
                    D_HEAD,
                    std::hint::black_box(&mut out),
                );
                t.elapsed().as_secs_f64() * 1e6
            })
            .skip(2)
            .collect();
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        // Query i of l_q sees keys - l_q + i + 1 keys.
        let visible = l_q * (keys - l_q + 1) + l_q * (l_q - 1) / 2;
        let gflops = (4 * D_HEAD * heads * rows * visible) as f64 / (median * 1e3);
        eprintln!("{name:>27} {rows:>4} {l_q:>4} {keys:>5} {heads:>5} {median:>9.1} {gflops:>7.1}");
    }
}
