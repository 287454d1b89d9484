//! Ablation (Section 4.3) — the parallel attention/feedforward block vs
//! the standard serialized formulation: the serialized variant pays one
//! extra all-reduce per layer, costing ~14% extra decode latency in the
//! paper; the gap shrinks during prefill under weight-gathered layouts.
//!
//! Also included: the int8-vs-bf16 ablation (Section 3.6 / 4.4) and the
//! analytical model's sensitivity to the collective bandwidth derate.

use esti_bench::{banner, write_csv};
use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout};
use esti_core::perf::{estimate, estimate_with, PerfParams, PhaseSpec};
use esti_core::Machine;
use esti_hal::DType;
use esti_model::{BlockKind, ModelConfig};

fn main() {
    let machine = Machine::tpu_v4_slice(64).expect("64-chip slice");
    let parallel = ModelConfig::palm_540b_padded();
    let mut serial = parallel.clone();
    serial.name = "PaLM 540B (serial blocks)".to_owned();
    serial.block = BlockKind::Serial;

    banner("Ablation 1: parallel vs serialized Transformer block (Section 4.3)");
    let mesh = Layout::ws2d_mesh(64, parallel.d_model, parallel.d_ff);
    let ws2d = Layout { ffn: FfnLayout::WeightStationary2D, attn: AttnSharding::Batch, mesh };
    let wg = Layout { ffn: FfnLayout::WeightGathered(GatherExtent::Xyz), attn: AttnSharding::Batch, mesh };
    let mut rows = Vec::new();

    let decode = PhaseSpec::decode(512, 2048);
    let d_par = estimate(&machine, &parallel, &ws2d, &decode, DType::Bf16);
    let d_ser = estimate(&machine, &serial, &ws2d, &decode, DType::Bf16);
    let decode_overhead = d_ser.step_time / d_par.step_time - 1.0;
    println!(
        "decode (B=512, WS 2D):  parallel {:.1} ms  serial {:.1} ms  -> serial +{:.1}% \
         (paper: +14%)",
        d_par.step_time * 1e3,
        d_ser.step_time * 1e3,
        decode_overhead * 100.0
    );
    rows.push(format!("decode_ws2d,{:.4},{:.4}", d_par.step_time, d_ser.step_time));

    let prefill = PhaseSpec::prefill(512, 2048);
    let p_par = estimate(&machine, &parallel, &wg, &prefill, DType::Bf16);
    let p_ser = estimate(&machine, &serial, &wg, &prefill, DType::Bf16);
    let prefill_overhead = p_ser.step_time / p_par.step_time - 1.0;
    println!(
        "prefill (B=512, WG XYZ): parallel {:.1} s   serial {:.1} s   -> serial +{:.1}% \
         (paper: difference shrinks in prefill)",
        p_par.step_time,
        p_ser.step_time,
        prefill_overhead * 100.0
    );
    rows.push(format!("prefill_wg,{:.4},{:.4}", p_par.step_time, p_ser.step_time));
    assert!(prefill_overhead < decode_overhead, "prefill gap should be smaller");

    banner("Ablation 2: int8 vs bf16 weights (Section 3.6)");
    for batch in [16usize, 64, 256, 1024] {
        let spec = PhaseSpec::decode(batch, 2048);
        let bf = estimate(&machine, &parallel, &ws2d, &spec, DType::Bf16);
        let i8_ = estimate(&machine, &parallel, &ws2d, &spec, DType::Int8);
        println!(
            "decode batch {batch:>4}: bf16 {:>7.2} ms  int8 {:>7.2} ms  (int8/bf16 = {:.2})",
            bf.step_time * 1e3,
            i8_.step_time * 1e3,
            i8_.step_time / bf.step_time
        );
        rows.push(format!("int8_b{batch},{:.5},{:.5}", bf.step_time, i8_.step_time));
    }
    println!("expected shape: int8 helps most at small batch (weight-loading bound).");

    banner("Ablation 3: collective-bandwidth sensitivity of the calibration");
    for derate in [0.25f64, 0.5, 1.0] {
        let params = PerfParams { collective_bw_derate: derate, ..PerfParams::default() };
        let est = estimate_with(&machine, &parallel, &ws2d, &decode, DType::Bf16, &params);
        println!(
            "derate {derate:.2}: decode {:.1} ms/step (comm {:.1} ms)",
            est.step_time * 1e3,
            est.comm_time * 1e3
        );
        rows.push(format!("derate_{derate},{:.5},{:.5}", est.step_time, est.comm_time));
    }

    write_csv("ablation_parallel.csv", "case,a,b", &rows);
}
