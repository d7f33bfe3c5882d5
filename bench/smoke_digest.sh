#!/usr/bin/env bash
# Hashes every deterministic smoke artifact of one build: runs each smoke
# bench and each example, then prints one "sha256  name" line per artifact.
# Two builds behave identically on the smoke surface iff the lists match.
# Given two build directories, the script digests both and diffs them
# itself, exiting non-zero on any differing line:
#
#   bench/smoke_digest.sh build                 # one build: print digests
#   bench/smoke_digest.sh build-a build-b       # two builds: diff digests
#
# Artifacts: the BENCH_*.json and TRACE_*.json files the smoke benches
# write, tab_recovery's stdout, every example's stdout, and
# tab_msg_complexity's stderr sorted (--jobs interleaves its [WARN] lines).
# The other benches' stdouts carry wall-clock timings and are not hashed.
# Runs in scratch directories, so the build trees are left untouched.
# Progress goes to stderr.
set -euo pipefail

if [[ $# -ne 1 && $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> [<other-build-dir>]" >&2
  exit 2
fi
jobs=$(nproc)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Progress lines go to the script's own stderr (fd 3), never into a
# command's redirected output.
exec 3>&2

# digest <build-dir>: the digest list of one build, run in its own scratch
# directory (a subshell, so the cd does not leak).
digest() (
  local build
  build=$(cd "$1" && pwd)
  cd "$(mktemp -d "$work/run.XXXXXX")"
  run() {
    echo "smoke_digest: ${*#"$build/"}" >&3
    "$@"
  }

  local bench="$build/bench"
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

  local example
  for example in quickstart light_client fork_attack streamlet_demo \
                 geo_commerce; do
    run "$build/examples/$example" > "$example.stdout"
  done

  sha256sum BENCH_*.json TRACE_*.json tab_recovery.stdout \
    tab_msg_complexity.stderr.sorted \
    quickstart.stdout light_client.stdout fork_attack.stdout \
    streamlet_demo.stdout geo_commerce.stdout
)

if [[ $# -eq 1 ]]; then
  digest "$1"
  exit 0
fi

digest "$1" > "$work/a.txt"
digest "$2" > "$work/b.txt"
if diff "$work/a.txt" "$work/b.txt"; then
  echo "smoke_digest: identical ($(wc -l < "$work/a.txt") artifacts)"
else
  echo "smoke_digest: builds differ" >&2
  exit 1
fi
