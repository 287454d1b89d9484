#!/usr/bin/env bash
# CI gate: build, tests, lints, and the static partition-plan analyzer.
# Everything here runs offline; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test -q --workspace

echo "== kernel conformance: SIMD and worker-pool paths bit-identical to the scalar oracles =="
# Runs the GEMM conformance suite twice: once with the AVX2 SIMD tier
# active (the default) and once with ESTI_DISABLE_SIMD forcing the scalar
# blocked fallback, so both dispatch tiers are proven against the naive
# oracle on every CI run.
cargo test -q --release -p esti-tensor --test kernels
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-tensor --test kernels
# The fused attention kernel against the unfused matmul/softmax composition,
# bit for bit; the oracle side goes through ops::matmul, so both tiers.
cargo test -q --release -p esti-model fused_attention
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-model fused_attention

echo "== thread conformance: intra-chip worker count invisible in logits and tokens =="
cargo test -q --release -p esti-runtime --test threads

echo "== serving conformance: scheduler token streams identical to isolated generate =="
# Covers every built-in decode layout plus the ragged-workload proptest.
cargo test -q --release -p esti-runtime --test serving
# The live-row decode step: a step over any subset of the slots gives each
# stepped row the all-slots step's bits (logits and KV, every decode layout,
# multiquery / multihead, f32 / int8, both GEMM tiers — small steps run the
# streaming f32 schedule), leaves every other slot untouched and returns its
# padding slots empty; DecodeWork counts repeat exactly.
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
# One KV store, one option: the slab backend, its selector enum and the
# environment variable that picked between them stay gone.
if grep -rnE "Backend::Slab|KvBackend|kv_backend|ESTI_KV_PAGE_SIZE" crates src tests examples; then
  echo "FAIL: a second KV backend (or a knob selecting one) is back" >&2
  exit 1
fi

echo "== prefix-prefill conformance: seeded and packed prefill rows bit-identical to batch-1 =="
# The group prefill: a row seeded with a donor's whole pages and running
# only its suffix, next to other requests' rows, against a full batch-1
# prefill (logits and KV to_bits, every decode layout, both GEMM tiers),
# streams against isolated generate under preemption / decode crash /
# prefill-tier fault, and the work counts on ServingOutcome.
cargo test -q --release -p esti-runtime --test prefix_prefill
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-runtime --test prefix_prefill
# One prefill path: everything the scheduler prefills goes through
# prefill_group -> prefill_rows, the only try_prefill call in serving.rs.
if grep -n "try_prefill_padded" crates/runtime/src/serving.rs; then
  echo "FAIL: the replicated batch-1 prefill path is back in serving.rs" >&2
  exit 1
fi
calls=$(grep -c "\.try_prefill(" crates/runtime/src/serving.rs)
if [ "$calls" -ne 1 ]; then
  echo "FAIL: serving.rs calls try_prefill at $calls sites; the group path is the only one" >&2
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

echo "== frozen benchmark: builds against the workspace crates, oracle passes =="
# benchmark/ is its own [workspace], so nothing above compiles it: a pub its
# probes use (KvCache::read_slot, attention_over_cache, ops::softmax_base2,
# insert_row_shared, ...) going away would otherwise first fail in the
# acceptance pipeline. --check-only runs one short rep per workload and the
# single-chip oracle, no timing.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --check-only

echo "== clippy (workspace lints, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== esti-lint: static partition-plan, SPMD, liveness & quant-dataflow analysis =="
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

echo "== bench report: no untracked regressions =="
# Every flagged row — a decode row that lost to its naive-kernel baseline
# ("regression": true, i.e. speedup < 1.0), and the int8 wire row if its
# step time regressed — must carry a "tracking" reference (issue link or
# note); silent regressions fail CI. A row that flags regression without computing it from its own
# ratios would also be caught here: the flag is cross-checked against the
# published numbers.
python3 - <<'EOF'
import json, sys
report = json.load(open("BENCH_runtime.json"))
rows = report.get("decode", [])
bad = [r["layout"] for r in rows if r.get("regression") and not r.get("tracking")]
for r in rows:
    slow = r.get("speedup", 1.0) < 1.0
    if slow and not r.get("regression"):
        bad.append(f"{r['layout']} (unflagged slowdown)")
wire = report.get("int8_wire", {})
if wire.get("regression") and not wire.get("tracking"):
    bad.append("int8_wire")
if wire.get("step_ratio", 0.0) > 1.0 and not wire.get("regression"):
    bad.append("int8_wire (unflagged step-time slowdown)")
over = report.get("overload", {})
if over.get("goodput_ratio", 1.0) < 0.7:
    bad.append("overload (goodput below 0.7x capacity ceiling)")
if over.get("high_p99_ttft_s", 0.0) > 1.0:
    bad.append("overload (high-class p99 TTFT above SLO)")
if over.get("shed", 1) == 0:
    bad.append("overload (bursty 2x trace shed nothing)")
router = report.get("router_failover", {})
if router.get("lost", 0) != 0:
    bad.append("router_failover (lost requests)")
if not router.get("streams_identical", True):
    bad.append("router_failover (streams diverged)")
if bad:
    sys.exit(f"FAIL: untracked regression(s) in BENCH_runtime.json: {bad}")
print(f"decode rows: {len(rows)}, untracked regressions: 0")
EOF

echo "== model-checked collectives (bounded-DFS interleavings) =="
RUSTFLAGS="--cfg loom" cargo test -q -p esti-collectives --test loom --release

echo "CI OK"
