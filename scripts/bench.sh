#!/usr/bin/env bash
# Benchmark capture pipeline: configure + build the bench/ targets, run
# every figure at the current scale with JSON output, and merge the
# per-figure files into a single BENCH_results.json (schema: {figure, algo,
# sec_per_ts, max_sec, cpu_sec_per_ts, mem_kb, scale, seed}; see
# scripts/bench_merge.py).
#
#   scripts/bench.sh                          # quick scale (default)
#   CKNN_BENCH_SCALE=paper scripts/bench.sh   # the paper's Table-2 scale
#   CKNN_BENCH_SCALE=smoke scripts/bench.sh   # tiny CI capture
#
# Knobs:
#   CKNN_BENCH_SCALE    smoke|quick|paper (default quick)
#   CKNN_BENCH_OUT      merged output path (default <repo>/BENCH_results.json)
#   CKNN_BUILD_DIR      build directory (default <repo>/build, shared with
#                       verify.sh)
#   CKNN_BENCH_FILTER   extra --benchmark_filter regex applied to every
#                       figure (default: none); figures the filter does not
#                       match are skipped before the merge (the real Google
#                       Benchmark emits no JSON at all on a no-match filter)
#   CKNN_BENCH_ONLY     comma-separated figure names (e.g. fig_sharding):
#                       run only those and merge them into the existing
#                       BENCH_results.json (bench_merge.py --append) instead
#                       of rebuilding it from scratch
#   CKNN_FORCE_BENCHMARK_SHIM / CKNN_REQUIRE_SYSTEM_BENCHMARK (and the
#   GTest equivalents) are passed through to CMake with stale-cache
#   protection; see scripts/configure_common.sh.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${CKNN_BUILD_DIR:-${repo_root}/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
scale="${CKNN_BENCH_SCALE:-quick}"
out="${CKNN_BENCH_OUT:-${repo_root}/BENCH_results.json}"
filter="${CKNN_BENCH_FILTER:-}"
only="${CKNN_BENCH_ONLY:-}"
raw_dir="${build_dir}/bench_json"

case "${scale}" in
  smoke|quick|paper) ;;
  *)
    echo "bench.sh: unknown CKNN_BENCH_SCALE '${scale}' (smoke|quick|paper)" >&2
    exit 1
    ;;
esac

# Keep this list in sync with bench/CMakeLists.txt.
figures=(
  ablation_influence
  ablation_reuse
  fig13a_object_cardinality
  fig13b_query_cardinality
  fig14a_k
  fig14b_edge_agility
  fig15a_object_agility
  fig15b_object_speed
  fig16a_query_agility
  fig16b_query_speed
  fig17a_distributions
  fig17b_network_size
  fig18_memory
  fig19_brinkhoff
  fig_pipeline
  fig_serving
  fig_sharding
)

merge_args=()
if [[ -n "${only}" ]]; then
  selected=()
  IFS=',' read -ra wanted <<< "${only}"
  for name in "${wanted[@]}"; do
    found=0
    for figure in "${figures[@]}"; do
      [[ "${figure}" == "${name}" ]] && found=1
    done
    if [[ ${found} -eq 0 ]]; then
      echo "bench.sh: unknown figure '${name}' in CKNN_BENCH_ONLY" >&2
      exit 1
    fi
    selected+=("${name}")
  done
  figures=("${selected[@]}")
  merge_args+=(--append)
fi

# shellcheck source=scripts/configure_common.sh
source "${repo_root}/scripts/configure_common.sh"

cknn_configure "${build_dir}" "${repo_root}" -DCKNN_BUILD_BENCH=ON

targets=()
for figure in "${figures[@]}"; do targets+=("bench_${figure}"); done
cmake --build "${build_dir}" -j "${jobs}" --target "${targets[@]}"

mkdir -p "${raw_dir}"
run_args=(--benchmark_format=json)
[[ -n "${filter}" ]] && run_args+=("--benchmark_filter=${filter}")

echo "bench.sh: running ${#figures[@]} figures at ${scale} scale" >&2
json_files=()
for figure in "${figures[@]}"; do
  echo "bench.sh: ${figure}" >&2
  CKNN_BENCH_SCALE="${scale}" \
    "${build_dir}/bench/bench_${figure}" "${run_args[@]}" \
    > "${raw_dir}/${figure}.json"
  if [[ -s "${raw_dir}/${figure}.json" ]]; then
    json_files+=("${raw_dir}/${figure}.json")
  else
    echo "bench.sh: warning: ${figure} produced no JSON" \
         "(filter '${filter}' matched nothing?); skipping" >&2
  fi
done

if [[ ${#json_files[@]} -eq 0 ]]; then
  echo "bench.sh: no figure produced any benchmark output" >&2
  exit 1
fi

# ${arr[@]+...} guard: expanding an empty array under `set -u` is an
# unbound-variable error on bash < 4.4 (macOS /bin/bash).
python3 "${repo_root}/scripts/bench_merge.py" \
  --out "${out}" --scale "${scale}" --seed 42 \
  ${merge_args[@]+"${merge_args[@]}"} "${json_files[@]}"
