#!/usr/bin/env bash
# CI gate: build, tests, lints, and the static partition-plan analyzer.
# Everything here runs offline; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test -q --workspace

echo "== kernel conformance: SIMD paths bit-identical to the scalar oracles =="
# Every GEMM runs one MR x 32 register tile over a weight packed in panel
# order, f32 and int8 alike; the tile is written twice, as explicit AVX-512F
# and in safe Rust. The conformance suite runs twice: once with the AVX-512
# tile active (the default, on a host that has it) and once with
# ESTI_DISABLE_SIMD, which now switches both dtypes to the portable tile, so
# both forms are proven against the scalar oracles on every CI run. The
# explicit AVX2 kernels (f32, then int8), the strided f32 tiles and their
# int8 copies, the per-call int8 panel kernel, the second SIMD switch, the
# enum of dense and int8 shards and its quantized-only gather, the GEMM
# entry points nothing called, the unfused AVX-512 step, the attention
# kernel's own register tiles (its contractions run the one tile through
# ops::gemm_strided), the Blocked kernel setting (ESTI_DISABLE_SIMD is the
# one switch to the safe-Rust tile) and the runtime bench's JSON snapshot
# (its gates moved into the test suites) stay gone. The bracketed letters
# keep this script itself out of a search for those names.
if grep -rnE "fn mm_f32|f32_tile|set_simd_enabled|qmm_tile_full|qmm_tile_edge|mm_i8|i8_tile|qmm_kernel|mm_tile_full|mm_tile_edge|ShardMat|AllGatherQuant|_mm512_add_ps\(v\[|qk_tile|pv_tile|fn (batched_matmul|quantized_matmul|matmul3|concat_cols|matmul_acc_rows)\b|MatmulKernel::Bl[o]cked|BENCH_r[u]ntime" crates src tests examples; then
  echo "FAIL: a second GEMM tier, a strided or per-call int8 tile, a Dense/Int8 shard dispatch, an uncalled GEMM entry point, an unfused AVX-512 step, a second attention tile, the Blocked setting or the bench snapshot is back" >&2
  exit 1
fi
# One accumulation contract: every GEMM and attention chain is one fused
# multiply-add per step (`acc = a.mul_add(b, acc)`), so no `+= a * b` step
# is left in a tile, an oracle or mm_stream.
if grep -rnE '\+= *[a-z_]+ \* [a-z_]+(\[[a-z_]+\]|\.into\(\))?;' crates/tensor/src crates/model/src; then
  echo "FAIL: an unfused multiply-then-add chain is back beside the fused contract" >&2
  exit 1
fi
cargo test -q --release -p esti-tensor --test kernels
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-tensor --test kernels
# quant.rs's tests compare the shipped setting to the scalar oracle, so this
# run holds the safe-Rust int8 tile to it.
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-tensor --lib quant::
taskset -c 0 cargo test -q --release -p esti-tensor --test kernels
# The fused chains against f64 beside an unfused one (GEMM k = 64 / 256 /
# 1024, f32 and int8; attention scores and P.V).
cargo test -q --release -p esti-tensor --test numerics
cargo test -q --release -p esti-model --lib attention_chains_against_f64
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-tensor --test numerics
# The forward path has one exponent, ops::exp2 (softmax, the attention
# kernel, SwiGLU): a libm exp/exp2 there would make the bits depend on the
# host's libm and leave its loop scalar.
if grep -rnE '\.exp2?\(\)|f32::exp2?\b' crates/model/src crates/runtime/src crates/tensor/src/ops.rs; then
  echo "FAIL: a forward-path exponent bypasses ops::exp2" >&2
  exit 1
fi
# The fused attention kernel against the unfused matmul/softmax composition,
# bit for bit; the oracle side goes through ops::matmul, so both tiers.
cargo test -q --release -p esti-model fused_attention
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-model fused_attention
# No scalar FMA on the attention path: the kernel's contractions run the one
# register tile (its AVX-512 instances, and simd::run, where the safe tile is
# inlined; the test binary links them only because the kernel reaches them),
# so neither the kernel nor the tile it calls may hold a scalar vfmadd...ss. (The kernel's own tiles, before they were folded into the
# GEMM tile, fell back to 56 vfmadd231ss and 3-4x the time when LLVM's SLP
# vectoriser missed them.)
att_bin=$(cargo test --release -p esti-model --test attention_speed --no-run --message-format=json 2>/dev/null \
  | grep -o '"executable":"[^"]*"' | tail -1 | cut -d'"' -f4)
att_asm=$(objdump -d --no-show-raw-insn -C "$att_bin")
for sym in 'esti_model::reference::attention_over_rows_into' 'esti_tensor::simd::run' 'esti_tensor::simd::avx512::tile'; do
  body=$(awk -v h="<$sym>:" '$2 == h {on = 1} on && /^$/ {on = 0} on' <<<"$att_asm")
  if [ -z "$body" ]; then
    echo "FAIL: $sym not found in $att_bin; the codegen gate cannot run" >&2
    exit 1
  fi
  scalar_fma=$(grep -cE "vfmadd[0-9]+ss" <<<"$body" || true)
  if [ "$scalar_fma" -ne 0 ]; then
    echo "FAIL: $sym has $scalar_fma scalar vfmadd...ss: the attention path stopped vectorising" >&2
    exit 1
  fi
done

echo "== collectives that copy once: deposits moved in and handed back, parts read in place =="
# A collective's deposit holds its input itself where the caller hands it
# over (moved in and lent until the member's next rendezvous on the group),
# a weight gather shares the stored shard, and a parts or weight read hands
# out views of the deposits: no copy of a deposit, of a part or of a shard
# comes back into the mailbox code.
if grep -nF -e '.dense().clone()' -e '.packed().clone()' -e 'Payload::Dense(input.clone())' \
    -e 'Payload::Dense(shard.clone())' -e 'Payload::Packed(shard.clone())' crates/collectives/src/group.rs; then
  echo "FAIL: a collective copies a deposit, a part or a weight shard again" >&2
  exit 1
fi

echo "== outputs written once: no zero-fill before the tile, no logits gather =="
# Every einsum output is written by the GEMM tile's write mode (each chain
# starts from +0.0 in a register), so its slot is not zeroed first; and a
# weight-gathered layout's chips each return their own rows' logits rather
# than all-gathering them. The escapes keep this script out of a search for
# either string.
if grep -rnE 'take_slot\(slots, slot, vec!\[src\.dim\(0\), src\.dim\(1\), \*width\], true\)|"logits batch all-gath[e]r"' \
    crates src tests examples; then
  echo "FAIL: an einsum output is zero-filled before the tile writes it, or the final logits all-gather is back" >&2
  exit 1
fi

echo "== a collective counts, it does not time: what nothing read stays gone =="
# A collective counts bytes and calls and keeps no clock. The benchmark
# times the program from outside, and per-instruction spans (ROADMAP item 5)
# are the one place time is to come back inside, so the per-chip blocked-time
# cells, their ledger column and the engine's readers stay gone. So do the
# Table 2 grid fit (its checks on the shipped constants are core::perf's
# tests), the KV JSON dump (kv_page_stats returns the same fields), the
# one-line weight-bytes wrapper and the public functions nothing called. The
# bracketed letters keep this script itself out of a search for those names.
if grep -rnE "CommTim[e]s|comm_tim[e](s|_summary)|record_nan[o]s|total_nan[o]s|reset_tim[e]s|kv_cache_js[o]n|\bcalibrat[e]\b|grid_sea[r]ch|weight_bytes_per_ch[i]p|class_tpot_percent[i]le|decode_po[i]nt|layout_c[e]ll|transfer_co[u]nt|deps_[o]f|palm_540b_8lay[e]r" crates src tests examples \
  || grep -rnE "fn (nan[o]s|tim[e]s)\b" crates/collectives/src \
  || grep -nE "fn opti[o]ns\b" crates/runtime/src/router.rs; then
  echo "FAIL: a clock inside the collectives, the grid fit, the KV JSON dump or an uncalled function is back" >&2
  exit 1
fi

echo "== one level of parallelism: the chip executors are the engine's only threads =="
# Each simulated chip's kernels run serially on the executor that steps it:
# the per-chip worker pools, their thread knob (engine setter and
# ServingOptions field), the banded GEMM dispatch and esti-tensor's pool
# module stay gone, as do the collective wrappers only their own tests
# called (the engine posts those calls itself).
if grep -rnE "set_intra_chip_threads|intra_chip_threads|with_worker_pool|partition_rows|active_workers|esti_tensor::pool|fn all_gather_(parts|quant)\b" crates src tests examples; then
  echo "FAIL: an intra-chip worker pool, its knob or a dead gather wrapper is back" >&2
  exit 1
fi

echo "== one engine mode: the classic calls are the all-slots pass =="
# The engine holds one Vec of slot ages; try_prefill / try_decode_step /
# expand_batch are passes over every slot (live_rows checks them against the
# row calls, both GEMM tiers). The second mode, its batch pinning, the
# panicking twins and the env-var thread knob stay gone.
if grep -rnE "row_lens\.is_(some|none)|fn fix_batch|ESTI_CHIP_THREADS|default_chip_workers" crates src tests examples \
  || grep -rnE "pub fn (prefill|decode_step|serve)\(" crates/runtime/src; then
  echo "FAIL: a second engine mode, a panicking twin or the ESTI_CHIP_THREADS knob is back" >&2
  exit 1
fi

echo "== one executable schedule: every layout runs the schedule esti-lint verifies =="
# The engine keeps its layout's verified schedule, and on every layout each
# chip walks it step by step; the hand-written forwards, their fused-gather
# helpers, the gathered-int8 shard type, the stream table the quant pass used
# to trust and the verify-and-discard preflight stay gone. The equivalence,
# int8 and traffic suites hold the interpreter to the reference model, the
# quantized wire volume and the schedule's collective calls, both GEMM tiers.
# (The function names are searched in the runtime, where they lived:
# `ShardingSpec::partial_sum` in esti-core is an unrelated accessor.)
if grep -rnE "fn (forward_1d|layer_1d|attn_ctx_1d|mlp_hidden_1d|forward_wg_hybrid|gather_layer|preflight|forward_2d|attn_2d_ctx|mlp_2d_hidden|forward_wg|attn_wg|mlp_wg|ag_einsums|wg_cols|wg_rows|partial_sum|sharded_layernorm)\b" crates/runtime \
  || grep -rnE "Int8Cat|wg_stream_plan|WgStream|weight_wire_format" crates; then
  echo "FAIL: a hand-written forward, fused-gather helper or stream table is back beside the schedule interpreter" >&2
  exit 1
fi
cargo test -q --release -p esti-runtime --test equivalence --test int8 --test traffic
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test equivalence --test int8 --test traffic

echo "== serving conformance: scheduler token streams identical to isolated generate =="
# Covers every built-in decode layout plus the ragged-workload proptest.
cargo test -q --release -p esti-runtime --test serving
# The live-row decode step: a step over any subset of the slots gives each
# stepped row the all-slots step's bits (logits and KV, every decode layout,
# multiquery / multihead, f32 / int8, both GEMM tiers — small steps run the
# streaming f32 schedule), leaves every other slot untouched, filler rows
# included; try_prefill / expand_batch / try_decode_step equal
# the row calls over every slot, and an expanded batch takes row calls and
# gives back every page; DecodeWork counts repeat exactly.
cargo test -q --release -p esti-runtime --test live_rows
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test live_rows

echo "== int8 conformance: quantized wire volume =="
# The int8 data path: the ledger charges quantized (not dense f32) bytes
# on every weight gather.
cargo test -q --release -p esti-runtime --test int8

echo "== paged-KV conformance: streams identical to isolated generate at every page size, capacity gated =="
# The paged KV cache: token streams bit-identical to isolated generate on
# every decode layout (multiquery and multihead) and at page sizes from
# one position to one dense run per row, randomized ragged shared-prefix
# copy-on-write workloads, mid-decode crash + replay with paged state, and
# the >= 2x shared-prefix capacity claim at an equal KV position budget.
cargo test -q --release -p esti-runtime --test paged
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test paged
# The pool's own suite: the block-affine page rule (long rows stepping
# together keep whole blocks), runs cut at a range, shared prefixes, the
# counters and copy-on-write, under both tile settings.
cargo test -q --release -p esti-model --lib kvcache::
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-model --lib kvcache::
# One KV store, one option: the slab backend, its selector enum and the
# environment variable that picked between them stay gone.
if grep -rnE "Backend::Slab|KvBackend|kv_backend|ESTI_KV_PAGE_SIZE" crates src tests examples; then
  echo "FAIL: a second KV backend (or a knob selecting one) is back" >&2
  exit 1
fi
# One block store: the pool's storage is per-layer blocks of 32-key Kt
# panels (kvcache.rs), read as maximal runs. The per-page buffers (the Page
# struct, its constructor, the pool's page vector) and the per-page Kt
# writer stay gone.
if grep -rnE "struct Page\b|Page::new|fn write_kt\b|\.pages\[" crates src tests examples; then
  echo "FAIL: per-page KV buffers are back beside the block store" >&2
  exit 1
fi

echo "== prefix-prefill conformance: seeded and packed prefill rows bit-identical to batch-1 =="
# The group prefill: a row seeded with a donor's whole pages and running
# only its suffix, next to other requests' rows, against a full batch-1
# prefill (logits and KV to_bits, every decode layout, both GEMM tiers),
# streams against isolated generate under preemption / decode crash /
# prefill fault, a span with no empty slot filled by an untouched live one,
# and the work counts on ServingOutcome.
cargo test -q --release -p esti-runtime --test prefix_prefill
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test prefix_prefill

echo "== padding is invisible: ragged and filler rows bit-identical to each row alone =="
# A pass carries rows of unequal length and fills spans with filler rows of
# length 0: every row's valid-position logits, KV and age equal the row run
# alone (to_bits; ws1d x head, ws2d x batch, paired WG XYZ x batch; f32 and
# int8), and a filler slot keeps its KV and takes no page.
cargo test -q --release -p esti-runtime --test padding
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test padding
# Padding is never embedded or computed, so the batcher's learned-position
# call split, its padding tokens and the engine's equal-length
# assertion stay gone.
padding=$( { grep -nE 'max_positions|\.get\(p\)\.copied\(\)\.unwrap_or\(0\)' crates/runtime/src/serving.rs \
  ; grep -n 'ragged batch: all sequences must have equal length' crates/runtime/src/engine.rs; } || true)
if [ -n "$padding" ]; then
  echo "$padding"
  echo "FAIL: padding is embedded again (a call split for it, a padding token, or equal-length rows)" >&2
  exit 1
fi
# One prefill path: everything the scheduler prefills goes through
# prefill_group -> prefill_call, the only try_prefill_rows call in serving.rs.
if grep -n "try_prefill_padded" crates/runtime/src/serving.rs; then
  echo "FAIL: the replicated batch-1 prefill path is back in serving.rs" >&2
  exit 1
fi
calls=$(grep -c "\.try_prefill_rows(" crates/runtime/src/serving.rs)
if [ "$calls" -ne 1 ]; then
  echo "FAIL: serving.rs calls try_prefill_rows at $calls sites; the group path is the only one" >&2
  exit 1
fi
# A prefilled row settles in place (PartitionedEngine::register_slot keys
# its prompt pages where they lie); the one KV copy left in serving.rs is
# the seed's.
copies=$(grep -c "extract_kv" crates/runtime/src/serving.rs)
if [ "$copies" -ne 1 ]; then
  echo "FAIL: serving.rs reads KV out at $copies sites; only the seed copies a row" >&2
  exit 1
fi
# One engine per batcher: prefill writes straight into the decode slots, so
# serving.rs builds one PartitionedEngine, holds one, and neither keeps a
# prefill tier nor copies KV into one.
built=$(grep -c "PartitionedEngine::new(" crates/runtime/src/serving.rs)
held=$(grep -cE "^\s+[a-z_]+: PartitionedEngine,$" crates/runtime/src/serving.rs)
if [ "$built" -ne 1 ] || [ "$held" -ne 1 ]; then
  echo "FAIL: serving.rs builds $built and holds $held engines; the batcher has one" >&2
  exit 1
fi
if grep -nE "prefill_engine|\.insert_kv\(" crates/runtime/src/serving.rs; then
  echo "FAIL: a second (prefill) engine or the copying insert_kv is back in serving.rs" >&2
  exit 1
fi
# One decode step: the batcher hands the engine its occupied slots
# (try_decode_rows); the all-slots step and the dummy token it fed idle
# slots stay out of serving.rs.
if grep -nE "try_decode_step\(|dummy decode token|[Ii]dle (slots|rows) carry a dummy" crates/runtime/src/serving.rs; then
  echo "FAIL: serving.rs steps idle slots again (all-slots try_decode_step or a dummy decode token)" >&2
  exit 1
fi

echo "== overload conformance: preemption stream-transparent, shedding typed =="
# PR 10's SLO scheduler: any forced preemption schedule must leave token
# streams bit-identical to isolated generate, priority classes must admit
# highest-first, and queue/deadline shedding must surface as typed
# per-request ServeError::Overloaded — never a run failure.
cargo test -q --release -p esti-runtime --test overload

echo "== one scheduler core: the live batcher, the trace simulator and the verifier run one policy =="
# esti_core::scheduler is the one definition of admission, preemption,
# shedding and KV page charging. ContinuousBatcher::try_serve,
# simulate_trace and verify::lifecycle::run_trace only drive it: the FIFO
# simulate is gone, the page ledger is defined once, in the core, and no
# driver holds class queues, a victim choice, a page pool or a shed loop of
# its own.
sim_trace=$(awk '/^pub fn simulate_trace\(/,/^}/' crates/core/src/serving.rs)
if [ -z "$sim_trace" ] \
  || grep -rn "fn simulate(" crates \
  || [ "$(grep -rl 'struct PageLedger' crates)" != "crates/core/src/scheduler.rs" ] \
  || grep -nE "min_by_key|waiting\[|ttft_deadline\[|> limit" crates/runtime/src/serving.rs \
  || grep -nE "min_by_key|waiting\[|ttft_deadline\[|> limit" <<<"$sim_trace" \
  || grep -nE "struct Pool|struct Slot|fn plan\(|min_by_key|Priority::ALL" crates/verify/src/lifecycle.rs; then
  echo "FAIL: a second copy of the serving policy is back beside esti_core::scheduler" >&2
  exit 1
fi
cargo test -q --release -p esti-core --lib -- serving scheduler
cargo test -q --release -p esti-runtime --test serving --test overload --test prefix_prefill \
  --test paged --test router --test faults --test stress
cargo test -q --release -p esti-verify lifecycle
cargo run -q --release -p esti-bench --bin serving > /dev/null
cargo run -q --release --example serving_tier > /dev/null

echo "== one memory model: memfit charges the schedule's shards and the shipped page ledger =="
# verify::memfit reads each chip's weights and KV rows off the verified
# Schedule (the specs the engine cuts) and sizes a paged pool by driving the
# shipped scheduler core and its PageLedger. Its closed-form mirror, its
# private page model and the third copy of the weight-gathered warning stay
# gone. The property test holds the paged pool to the ledger's admission
# bound (admits the fleet at P pages, not at P - 1); the cross-layer test
# holds the KV term to a real engine's busiest cache on every tier-1 layout.
# The activations are the peak of esti-core's BufferPlan, the one plan the
# engine runs: memfit's 4 x batch x d_model allowance and a BufferPlan
# defined outside esti-core stay gone (buffer_plan checks act_bytes against
# the plan's peak on every schedule esti-lint passes). MemReport carries no
# page count of its own: the tests read a chip's pages off its KV bytes.
if grep -rnE "paged_pool_parts|paged_pool_pages|PagedRequest|weight_bytes_per_chip|kv_bytes_per_chip" crates/verify/src \
  || grep -rn "fn wg_fits_in_memory" crates \
  || grep -n "4.0 \* s.batch" crates/verify/src/memfit.rs \
  || grep -n "kv_pages" crates/verify/src/memfit.rs \
  || grep -rn --include='*.rs' "struct BufferPlan" crates src tests examples | grep -v "^crates/core/"; then
  echo "FAIL: memfit charges a formula or a page model of its own beside the schedule, the ledger and the buffer plan" >&2
  exit 1
fi
cargo test -q --release -p esti-verify --test memory_model --test buffer_plan

echo "== router conformance: replica crash loses nothing, streams identical =="
# An injected chip crash with an exhausted recovery budget drains the
# replica; its whole share must re-route and replay to bit-identical
# streams with the failover accounted in RecoveryStats.
cargo test -q --release -p esti-runtime --test router

echo "== fault conformance: crash any rank, recovered streams bit-identical =="
# PR 5's chaos suite: for every decode layout, crash or stall any rank at
# any step and require (a) a structured error within the deadline — never
# a hang — and (b) post-recovery token streams bit-identical to a
# fault-free run, with the replay cost matching esti-netsim's model.
cargo test -q --release -p esti-runtime --test faults
# A failed prefill call recovers through the one rebuild-and-replay path,
# live requests bit-identical, under both GEMM tiers.
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test faults a_prefill_fault

echo "== lockstep executors: min(CPUs, chips) executors, the caller among them, step the chips =="
# The engine runs its chips on T = min(available_parallelism, chips)
# resident executors, the calling thread running the first, each stepping a
# contiguous block of chips through the schedule in lockstep, so no pass
# spawns a thread. executors checks the process thread count (idle + T - 1)
# across 200 steps, on drop and after a fault-forced rebuild; equivalence
# and faults hold the executors to the bits and to the unwind protocol. The
# suites run again pinned to one CPU (T = 1: the whole mesh on the caller)
# and to two (T = 2), so a host with four or more CPUs still exercises
# executors that share their thread among chips.
if grep -rn "thread::scope" crates/runtime/src; then
  echo "FAIL: a forward pass spawns chip threads again (thread::scope in crates/runtime/src)" >&2
  exit 1
fi
cargo test -q --release -p esti-runtime --test executors --test faults
for cpus in 0 0,1; do
  taskset -c "$cpus" cargo test -q --release -p esti-runtime \
    --test equivalence --test faults --test executors
done

echo "== compiled program: the schedule compiled once, every value in a slot of the buffer plan =="
# The engine compiles its schedule into esti_core's ChipProgram when it is built:
# try_forward derives nothing from the schedule, and every einsum, local op
# and dense collective read writes into a slot of the buffer plan, which
# every layer of a pass reuses. The plan is esti-core's BufferPlan; its test
# (in esti-verify, beside esti-lint's grid) walks every built-in layout's
# schedule and every schedule esti-lint accepts for two live values sharing
# a slot; the stale-buffer test runs a
# smaller pass after a larger one on the five tier-1 layouts; alloc checks
# that an 8-layer prefill allocates about as many large-block bytes as a
# 2-layer one. Both GEMM tiers, and pinned to one CPU (the whole mesh on one
# executor).
if grep -nE "fn flat2|Pass::new\(|\.reshape\(" crates/runtime/src/engine.rs; then
  echo "FAIL: the interpreter derives a pass from the schedule again, or copies an operand to change its shape" >&2
  exit 1
fi
# The per-chip program is esti_core::schedule::ChipProgram, defined once:
# the engine runs it and esti-verify's SPMD and liveness passes play its
# collectives. Neither the verifier's own call list nor the engine's own
# instruction set, group axes or matrix-dim map comes back.
if grep -rnE "per_chip_program|ChipOp" crates \
  || grep -rnE "enum Instr|enum Exchange|fn group_axes|fn matrix_dims|struct Program" crates/runtime/src; then
  echo "FAIL: a second derivation of the per-chip program is back beside esti_core::schedule::ChipProgram" >&2
  exit 1
fi
# alloc also pins the collectives that copy once (a ws2d prefill allocates
# none of the deposits its inputs move into, a ws1d decode step's
# collectives no large block), so it runs under both tile settings.
cargo test -q --release -p esti-runtime --test alloc
cargo test -q --release -p esti-runtime --lib -- a_pass_after_a_larger_one
cargo test -q --release -p esti-verify --test buffer_plan -- the_buffer_plan
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test alloc
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --lib -- a_pass_after_a_larger_one
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-verify --test buffer_plan -- the_buffer_plan
taskset -c 0 cargo test -q --release -p esti-runtime --test alloc
taskset -c 0 cargo test -q --release -p esti-runtime --lib -- a_pass_after_a_larger_one
taskset -c 0 cargo test -q --release -p esti-verify --test buffer_plan -- the_buffer_plan
# One shard set, one program per phase: a weight-gathered layout decodes on
# the first 1D weight-stationary layout on its mesh that cuts every weight
# and the KV cache as it does (the core's predicate over the probe matrix),
# the engine stores its shards once, and a paired decode step is the
# partner engine's step bit for bit and moves no weight bytes. Both GEMM
# tiers, and pinned to one CPU.
cargo test -q --release -p esti-core --lib -- decodes_on_the_ws1d runs_on_compares
cargo test -q --release -p esti-runtime --lib -- a_paired_engine
cargo test -q --release -p esti-runtime --test phases
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-core --lib -- decodes_on_the_ws1d runs_on_compares
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --lib -- a_paired_engine
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test phases
taskset -c 0 cargo test -q --release -p esti-core --lib -- decodes_on_the_ws1d runs_on_compares
taskset -c 0 cargo test -q --release -p esti-runtime --lib -- a_paired_engine
taskset -c 0 cargo test -q --release -p esti-runtime --test phases

echo "== shards cut from the schedule: every weight, gain and KV row from the schedule's specs =="
# The engine cuts each chip's weights, layernorm gains, KV rows and KV heads
# from its verified schedule's specs with one helper, ShardingSpec::local_range:
# axes a collective later gathers innermost, the batch in the order the
# schedule shards it, everything else canonical. The per-layout shard
# builders and every match on the dataflow family stay out of the runtime.
# The property test walks every built-in layout at 1/2/4/8 chips (tiny and
# tiny-mh, parallel and serial): each weight's cuts tile it, a weight
# gather's parts concatenate to the next cut, gains are E/n in 2D and whole
# elsewhere, and the KV rows x heads cover every pair. end_to_end reads each
# slot's KV back against the single chip's. Both GEMM tiers.
if grep -rn "Dataflow" crates/runtime \
  || grep -rnE "fn shard_1d|fn shard_2d|fn shard_wg|fn unshard_1d|megatron_trick_check|LayerShard|fn chip_kv_heads|fn chip_rows|fn parts\(" crates/runtime; then
  echo "FAIL: a per-layout shard builder or a Dataflow match is back in the runtime" >&2
  exit 1
fi
cargo test -q --release -p esti-runtime --lib -- shards_cut_from_the_schedule
cargo test -q --release --test end_to_end
cargo test -q --release -p esti-runtime --test equivalence --test live_rows --test prefix_prefill
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --lib -- shards_cut_from_the_schedule
ESTI_DISABLE_SIMD=1 cargo test -q --release --test end_to_end
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test equivalence --test live_rows --test prefix_prefill

echo "== frozen benchmark: builds against the workspace crates, oracle passes =="
# benchmark/ is its own [workspace], so nothing above compiles it: a pub its
# probes use (KvCache::read_slot, attention_over_cache, ops::softmax_base2,
# insert_row_shared, ...) going away would otherwise first fail in the
# acceptance pipeline. --check-only runs one short rep per workload and the
# single-chip oracle, no timing.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --check-only

echo "== docs build (workspace lints deny rustdoc warnings) =="
cargo doc --no-deps --workspace -q

echo "== the SIMD tile's and the executor pool's unsafe under AddressSanitizer =="
# The AVX-512 tile's SAFETY contract (crates/tensor/src/simd.rs: slice
# bounds asserted before any unsafe code, masked loads and stores on a
# panel's columns at its row stride, run-time feature detection) exercised under ASan
# by the unit and conformance suites, and the chip executor pool's
# (crates/runtime/src/executors.rs: ChipPool's borrowed task slots) by
# esti-runtime's unit tests (debug builds). RUSTFLAGS replaces
# .cargo/config.toml's rustflags, so the tile is still chosen by run-time
# detection; doctests are excluded (rustdoc would need RUSTDOCFLAGS set the
# same way). ThreadSanitizer needs build-std (no rust-src is installed) and
# Miri is not installed, so neither runs here.
RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q --target x86_64-unknown-linux-gnu \
  -p esti-tensor --lib --test kernels
# The attention kernel drives the tile over real KV pages: strided Kᵀ and V
# panels of every width its conformance grid makes (pages of 1 to 128 keys,
# d_head 8 / 16 / 32).
RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q --target x86_64-unknown-linux-gnu \
  -p esti-model --lib
RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q --target x86_64-unknown-linux-gnu \
  -p esti-runtime --lib

echo "== clippy (workspace lints, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== esti-lint: comm table vs schedule, compile, SPMD, liveness & quant-dataflow analysis =="
# Pass 1 checks the paper's comm table (Layout::layer_comm) against the
# schedule that runs; the hand-written sharding chain it replaced, and the
# layout spec functions only that chain read, stay gone.
if grep -rnE "check_layout_algebra|fn weight_spec|fn activation_spec" crates \
  || [ -e crates/verify/src/algebra.rs ]; then
  echo "FAIL: the hand-written sharding chain or Layout::{weight,activation}_spec is back" >&2
  exit 1
fi
# The grid of every accepted (model, mesh, layout, batch) point, each also
# compiled into the program the engine runs (dense and int8 weights), and
# the mutation tests (a cloned collective; a duplicated, scaled or
# regrouped piece). check_combo compiles every schedule it accepts: a
# schedule the engine cannot run (the seeded int8 activation gather) is a
# typed "compile:" failure, not a panic.
cargo test -q --release -p esti-verify comm_table
cargo test -q --release -p esti-verify --lib -- an_int8_activation_gather
# check_combo verifies each (scenario, layout) schedule once, and
# run_scenario upgrades any skip on the layout the *layout* planner
# (esti_core::planner) chose for that scenario to a failure, so a
# planner-chosen layout that fails to verify (or is skipped) fails this
# gate.
# --strict also fails the run on warnings (weight-gathered working-set
# margins), and --json writes the full row-by-row report as a CI
# artifact for dashboards (results/esti_lint.json).
mkdir -p results
lint_out=$(cargo run --release -p esti-verify --bin esti-lint -- --strict --json results/esti_lint.json)
echo "$lint_out"
if echo "$lint_out" | grep -q "skip planner"; then
  echo "FAIL: esti-lint skipped a planner-chosen schedule" >&2
  exit 1
fi
echo "esti-lint JSON report: results/esti_lint.json ($(wc -c < results/esti_lint.json) bytes)"

echo "== model-checked collectives (bounded-DFS interleavings) =="
RUSTFLAGS="--cfg loom" cargo test -q -p esti-collectives --test loom --release

echo "CI OK"
