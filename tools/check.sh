#!/usr/bin/env bash
# Umbrella correctness gate:
#   lint -> asan -> tsan -> threads -> trace -> simd -> fusion -> load ->
#   obs -> analyze -> bench.
#
#   stage 1  lint     build gnn4tdl_lint (default preset) and scan the tree
#                     with every pass: the style pass (idiom rules) and the
#                     lock-discipline pass (annotation coverage, guard
#                     validity, double-acquire, REQUIRES visibility)
#   stage 2  asan     full test suite under Address+UB sanitizers
#   stage 3  tsan     full test suite under ThreadSanitizer
#   stage 4  threads  tsan suite again at GNN4TDL_THREADS=4, so the parallel
#                     kernel pool actually multithreads under the race
#                     detector (stage 3 inherits the environment, which on a
#                     hermetic runner often means a serial pool)
#   stage 5  trace    end-to-end observability smoke: one gnn4tdl_cli serve
#                     run (train + freeze + serve) with --trace-out and
#                     --metrics-out, then gnn4tdl_trace_check validates the
#                     artifacts (well-formed trace JSON, required span names
#                     present — the training phase spans train/forward,
#                     train/backward, train/optimizer and train/validate
#                     included — no negative durations, required metrics in
#                     the Prometheus dump)
#   stage 6  simd     kernel-tier contract: the kernel tolerance/parity
#                     suite plus the f32 serving suite, run once with
#                     GNN4TDL_SIMD=scalar and once with GNN4TDL_SIMD=avx2.
#                     The parity tests assert scalar and AVX2 tiers are
#                     bit-identical (the f64 training kernels: every
#                     non-NaN output, NaN in the same positions), so a pass
#                     here means the dispatch choice can never change served
#                     logits. f64 training and serving run on the dispatched
#                     tier too (matmul family, SpMM, the activation
#                     epilogue, the MT19937-64 block behind dropout's bulk
#                     draws) and their queries and rows run across the
#                     pool, so one matrix runs at every pairing of
#                     SIMD=scalar|avx2 and THREADS=1|4: the exact kNN suites
#                     (KnnIndexTest, KnnGraphTest: the lane-packed scan
#                     against a brute-force oracle, bit for bit), the served
#                     bit-exactness suite (Configs/ServedBitExactTest),
#                     RowIndependenceTest (the contract per-layer frontier
#                     serving relies on), KernelDeterminismTest, the
#                     stream-identity suites (RngTest: the engine is
#                     std::mt19937_64 and bulk draws equal single ones;
#                     DropoutTest: masks equal per-element
#                     std::bernoulli_distribution), the fusion suite and the
#                     gradcheck suite. Last, gnn4tdl_cli freeze with a fixed
#                     seed runs every backbone (gcn, sage, gat, gin, ggnn,
#                     appnp, graph_transformer) at every pairing of
#                     SIMD=scalar|avx2 and THREADS=1..4, and each artifact
#                     must be byte-identical to that backbone's first one:
#                     whole training runs checked across tiers and thread
#                     counts
#   stage 7  fusion   fused-execution + arena memory contract: the fusion
#                     bit-exactness suite (fused single-node ops vs their
#                     unfused compositions, values and gradients compared by
#                     memcmp) and the arena/tape-plan/release suite
#                     (free-at-last-use lifetimes, use-after-free poisoning
#                     caught by the verifier, peak regression bounds), both
#                     under Address+UB sanitizers and at GNN4TDL_THREADS=1
#                     and =4 — the fused kernels' row-block parallel paths
#                     must be bit-exact at every thread count
#   stage 8  load     multi-tenant serving smoke: two short seeded
#                     gnn4tdl_cli loadgen runs over two tenants, one open
#                     loop at 200 rps and one closed-loop saturation case
#                     (16 synchronous clients, 2000 requests) that keeps the
#                     work-conserving worker busy so batches fill. Each
#                     prints the tenants' engine batches and mean batch rows.
#                     The CLI itself exits non-zero on any request error or
#                     when the generator's offered/completed/rejected
#                     tallies disagree with the engine's counters, so this
#                     stage gates on rejection-accounting consistency, not
#                     just liveness
#   stage 9  obs      request-tracing + flight-recorder smoke: a seeded
#                     gnn4tdl_cli obsdump run (loadgen with the recorder on,
#                     then the ring dumped as JSON alongside the Prometheus
#                     metrics), then gnn4tdl_trace_check --obsdump validates
#                     the digests (per-request wait/compute/total timing
#                     reconciliation, SLO-breach span subtrees carrying their
#                     request ids), --require-metric demands every serve
#                     metric the engine exports at Stop(): the latency,
#                     queue-wait, compute and batch-rows histograms under
#                     serve.* and under each tenant's serve.tenant.<name>.*
#                     (12 in all) plus the serve.max_queue_depth gauge, and
#                     --require-exemplar proves every non-empty latency
#                     bucket's exemplar trace id resolves to a digest in the
#                     dump
#   stage 10 analyze  static/undefined-behavior gate: the full test suite
#                     under the `ubsan` preset (-fsanitize=undefined,
#                     float-cast-overflow, non-recovering, halt_on_error=1),
#                     then — when clang++ is installed — tools/analyze/tsa.sh:
#                     the thread-safety fixture self-test plus a whole-project
#                     clang build with -Werror=thread-safety. On a gcc-only
#                     toolchain the clang half is skipped with a note; the
#                     lint stage's lock pass still enforces the
#                     annotation-coverage subset
#   stage 11 bench    the train -> freeze -> serve benchmark, short and
#                     traced: perfbench/run.py for serve_open, score_bulk
#                     and train_fit (seed 1, 3 s each). Tier-1 never builds
#                     perfbench/, so this is where a break in the serving API
#                     it consumes shows. run.py exits non-zero when any output
#                     check fails: f64_bit_exact (served f64 logits equal
#                     PredictInductive), f32_within_1e-3, ledger_replay,
#                     ledger_sum, CheckAccounting and trace_check
#
# Every selected stage runs even if an earlier one fails; the summary at the
# end lists per-stage PASS/FAIL with wall-clock seconds and the script exits
# non-zero if any failed.
#
# Usage: tools/check.sh [--stage name[,name...]] [extra ctest args...]
#   --stage restricts the run to the named stages (comma-separated, any
#   order; unknown names abort with the valid list). Everything else is
#   forwarded to the ctest-based stages.
set -uo pipefail

cd "$(dirname "$0")/.."

all_stages=(lint asan tsan threads trace simd fusion load obs analyze bench)
selected=("${all_stages[@]}")

if [[ "${1:-}" == "--stage" ]]; then
  if [[ -z "${2:-}" ]]; then
    echo "check.sh: --stage requires an argument" >&2
    exit 2
  fi
  IFS=',' read -r -a selected <<<"$2"
  for stage in "${selected[@]}"; do
    case " ${all_stages[*]} " in
      *" ${stage} "*) ;;
      *)
        echo "check.sh: unknown stage '${stage}'" \
             "(valid: ${all_stages[*]})" >&2
        exit 2
        ;;
    esac
  done
  shift 2
fi

declare -A results
declare -A seconds
overall=0

run_stage() {
  local name="$1"
  shift
  echo
  echo "==== stage: ${name} ===="
  local start
  start=$(date +%s)
  if "$@"; then
    results[$name]=PASS
  else
    results[$name]=FAIL
    overall=1
  fi
  seconds[$name]=$(($(date +%s) - start))
}

lint_stage() {
  cmake --preset default &&
    cmake --build --preset default -j "$(nproc)" --target gnn4tdl_lint &&
    ./build/tools/lint/gnn4tdl_lint --root .
}

asan_stage() {
  cmake --preset asan &&
    cmake --build --preset asan -j "$(nproc)" &&
    ctest --preset asan -j "$(nproc)" "$@"
}

tsan_stage() {
  cmake --preset tsan &&
    cmake --build --preset tsan -j "$(nproc)" &&
    ctest --preset tsan -j "$(nproc)" "$@"
}

threads_stage() {
  cmake --preset tsan &&
    cmake --build --preset tsan -j "$(nproc)" &&
    GNN4TDL_THREADS=4 ctest --preset tsan -j "$(nproc)" "$@"
}

trace_stage() {
  cmake --preset default &&
    cmake --build --preset default -j "$(nproc)" \
      --target gnn4tdl_cli --target gnn4tdl_trace_check &&
    ./build/tools/gnn4tdl_cli serve --backbone gat --epochs 8 \
      --trace-out build/trace.json --metrics-out build/metrics.txt &&
    ./build/tools/gnn4tdl_trace_check build/trace.json build/metrics.txt \
      --require-span "pipeline/fit,train/epoch,train/forward,train/backward,\
train/optimizer,train/validate,serve/batch,matmul,spmm,edge_softmax" \
      --require-metric "gnn4tdl_serve_latency_ms,gnn4tdl_serve_batch_rows,gnn4tdl_train_loss,gnn4tdl_serve_requests_total"
}

simd_stage() {
  cmake --preset default &&
    cmake --build --preset default -j "$(nproc)" \
      --target gnn4tdl_kernels_test --target gnn4tdl_serve_precision_test \
      --target gnn4tdl_serve_test --target gnn4tdl_parallel_test \
      --target gnn4tdl_fusion_test --target gnn4tdl_gradcheck_test \
      --target gnn4tdl_common_test --target gnn4tdl_cli &&
    GNN4TDL_SIMD=scalar ./build/tests/gnn4tdl_kernels_test &&
    GNN4TDL_SIMD=avx2 ./build/tests/gnn4tdl_kernels_test &&
    GNN4TDL_SIMD=scalar ./build/tests/gnn4tdl_serve_precision_test &&
    GNN4TDL_SIMD=avx2 ./build/tests/gnn4tdl_serve_precision_test &&
    tier_matrix &&
    cross_tier_freeze
}

tier_matrix() {
  local simd threads
  for simd in scalar avx2; do
    for threads in 1 4; do
      echo "-- GNN4TDL_SIMD=${simd} GNN4TDL_THREADS=${threads}"
      (
        export GNN4TDL_SIMD="$simd" GNN4TDL_THREADS="$threads"
        ./build/tests/gnn4tdl_serve_test \
          --gtest_filter='KnnIndexTest.*:KnnGraphTest.*:Configs/ServedBitExactTest.*' &&
          ./build/tests/gnn4tdl_kernels_test \
            --gtest_filter='RowIndependenceTest.*' &&
          ./build/tests/gnn4tdl_parallel_test \
            --gtest_filter='KernelDeterminismTest.*' &&
          ./build/tests/gnn4tdl_common_test \
            --gtest_filter='RngTest.*:DropoutTest.*' &&
          ./build/tests/gnn4tdl_fusion_test &&
          ./build/tests/gnn4tdl_gradcheck_test
      ) || return 1
    done
  done
}

cross_tier_freeze() {
  local backbone simd threads first out
  for backbone in gcn sage gat gin ggnn appnp graph_transformer; do
    first=""
    for simd in scalar avx2; do
      for threads in 1 2 3 4; do
        out="build/cross_tier_${backbone}_${simd}_t${threads}.gnn4tdl"
        GNN4TDL_SIMD="$simd" GNN4TDL_THREADS="$threads" \
          ./build/tools/gnn4tdl_cli freeze --backbone "$backbone" --seed 7 \
          --out "$out" >/dev/null || return 1
        if [ -z "$first" ]; then
          first="$out"
        else
          cmp "$first" "$out" || return 1
        fi
      done
    done
    echo "-- freeze ${backbone}: 8 artifacts byte-identical"
  done
}

fusion_stage() {
  cmake --preset asan &&
    cmake --build --preset asan -j "$(nproc)" \
      --target gnn4tdl_fusion_test --target gnn4tdl_arena_test &&
    GNN4TDL_THREADS=1 ./build-asan/tests/gnn4tdl_fusion_test &&
    GNN4TDL_THREADS=4 ./build-asan/tests/gnn4tdl_fusion_test &&
    GNN4TDL_THREADS=1 ./build-asan/tests/gnn4tdl_arena_test &&
    GNN4TDL_THREADS=4 ./build-asan/tests/gnn4tdl_arena_test
}

load_stage() {
  cmake --preset default &&
    cmake --build --preset default -j "$(nproc)" --target gnn4tdl_cli &&
    ./build/tools/gnn4tdl_cli loadgen --epochs 8 --rps 200 --duration-s 0.5 \
      --seed 42 &&
    ./build/tools/gnn4tdl_cli loadgen --epochs 8 --mode closed --workers 16 \
      --rps 4000 --duration-s 0.5 --seed 42
}

obs_stage() {
  cmake --preset default &&
    cmake --build --preset default -j "$(nproc)" \
      --target gnn4tdl_cli --target gnn4tdl_trace_check &&
    ./build/tools/gnn4tdl_cli obsdump --epochs 8 --rps 300 --duration-s 0.5 \
      --seed 42 --obsdump build/obsdump.json \
      --metrics-out build/obs_metrics.txt &&
    ./build/tools/gnn4tdl_trace_check --obsdump build/obsdump.json \
      --metrics build/obs_metrics.txt \
      --require-metric "gnn4tdl_serve_latency_ms,gnn4tdl_serve_queue_wait_ms,gnn4tdl_serve_compute_ms,gnn4tdl_serve_batch_rows,gnn4tdl_serve_tenant_interactive_latency_ms,gnn4tdl_serve_tenant_interactive_queue_wait_ms,gnn4tdl_serve_tenant_interactive_compute_ms,gnn4tdl_serve_tenant_interactive_batch_rows,gnn4tdl_serve_tenant_batch_latency_ms,gnn4tdl_serve_tenant_batch_queue_wait_ms,gnn4tdl_serve_tenant_batch_compute_ms,gnn4tdl_serve_tenant_batch_batch_rows,gnn4tdl_serve_max_queue_depth" \
      --require-exemplar "gnn4tdl_serve_latency_ms,gnn4tdl_serve_tenant_interactive_queue_wait_ms"
}

analyze_stage() {
  { cmake --preset ubsan &&
      cmake --build --preset ubsan -j "$(nproc)" &&
      ctest --preset ubsan -j "$(nproc)" "$@"; } || return 1
  if command -v clang++ >/dev/null 2>&1; then
    tools/analyze/tsa.sh
  else
    echo "analyze: clang++ not on PATH — skipping the -Wthread-safety gate" \
         "(ubsan suite ran; the lint lock pass covers annotation coverage)"
  fi
}

bench_stage() {
  local workload
  for workload in serve_open score_bulk train_fit; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 \
      --trace 1 || return 1
  done
}

for stage in "${selected[@]}"; do
  case "$stage" in
    lint) run_stage lint lint_stage ;;
    asan) run_stage asan asan_stage "$@" ;;
    tsan) run_stage tsan tsan_stage "$@" ;;
    threads) run_stage threads threads_stage "$@" ;;
    trace) run_stage trace trace_stage ;;
    simd) run_stage simd simd_stage ;;
    fusion) run_stage fusion fusion_stage ;;
    load) run_stage load load_stage ;;
    obs) run_stage obs obs_stage ;;
    analyze) run_stage analyze analyze_stage "$@" ;;
    bench) run_stage bench bench_stage ;;
  esac
done

echo
echo "==== check.sh summary ===="
for stage in "${all_stages[@]}"; do
  if [[ -n "${results[$stage]:-}" ]]; then
    printf '  %-8s %-4s %5ss\n' "$stage" "${results[$stage]}" \
           "${seconds[$stage]}"
  else
    printf '  %-8s %s\n' "$stage" "SKIPPED (--stage filter)"
  fi
done
exit "$overall"
