#!/usr/bin/env bash
# Hashes every deterministic smoke artifact of one build: runs each smoke
# bench and each example, then prints one "sha256  name" line per artifact.
# Two builds behave identically on the smoke surface iff the lists match:
#
#   bench/smoke_digest.sh build-a > a.txt
#   bench/smoke_digest.sh build-b > b.txt
#   diff a.txt b.txt
#
# Artifacts: the BENCH_*.json and TRACE_*.json files the smoke benches
# write, tab_recovery's stdout, every example's stdout, and
# tab_msg_complexity's stderr sorted (--jobs interleaves its [WARN] lines).
# The other benches' stdouts carry wall-clock timings and are not hashed.
# Runs in a scratch directory, so the build tree is left untouched. Progress
# goes to stderr.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
jobs=$(nproc)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Progress lines go to the script's own stderr (fd 3), never into a
# command's redirected output.
exec 3>&2
run() {
  echo "smoke_digest: ${*#"$build/"}" >&3
  "$@"
}

bench="$build/bench"
run "$bench/tab_throughput" --smoke --jobs "$jobs" \
  --json BENCH_throughput.json > /dev/null
run "$bench/tab_critical_path" --smoke --jobs "$jobs" \
  --json BENCH_critical_path.json > /dev/null
run "$bench/tab_dissemination" --smoke --jobs "$jobs" \
  --json BENCH_dissemination.json > /dev/null
run "$bench/tab_adversary" --smoke --jobs "$jobs" \
  --json BENCH_adversary.json > /dev/null 2>&1
run "$bench/tab_obs" --smoke --jobs "$jobs" --json BENCH_obs.json > /dev/null
# Writes BENCH_wire.json into the working directory.
run "$bench/tab_msg_complexity" --smoke --jobs "$jobs" \
  > /dev/null 2> tab_msg_complexity.stderr.raw
sort tab_msg_complexity.stderr.raw > tab_msg_complexity.stderr.sorted
run "$bench/tab_recovery" --smoke > tab_recovery.stdout

for example in quickstart light_client fork_attack streamlet_demo \
               geo_commerce; do
  run "$build/examples/$example" > "$example.stdout"
done

sha256sum BENCH_*.json TRACE_*.json tab_recovery.stdout \
  tab_msg_complexity.stderr.sorted \
  quickstart.stdout light_client.stdout fork_attack.stdout \
  streamlet_demo.stdout geo_commerce.stdout
