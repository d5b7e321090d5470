#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
#   benchmark/run.sh --compare A.jsonl B.jsonl
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]   # all four workloads
#
# One process per workload, so peak_rss_mb is per workload. Run from
# the repository root; everything is written under the cargo target
# directory (CARGO_TARGET_DIR, or benchmark/target).
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$target/release/benchmark"

# One malloc arena: glibc otherwise gives every new thread (the library
# spawns rank, worker and writer threads afresh on every call) one of
# up to 8 x nproc arenas and never returns their memory, so peak RSS
# records how many arenas a run happened to touch (110-154 MiB for the
# same vpic_adaptive work; 110-113 MiB with one arena). Step times are
# the same either way; restarts read ~15 % faster because worker
# threads no longer fault in fresh arena pages (see README, caveats).
export MALLOC_ARENA_MAX=1

case " $* " in
*" --compare "*)
    exec "$bin" "$@"
    ;;
*" --workload "*)
    exec "$bin" --scratch "$target/scratch" "$@"
    ;;
*)
    for workload in nyx_compute nyx_iobound vpic_adaptive rtm_chunked; do
        "$bin" --scratch "$target/scratch" --workload "$workload" "$@"
    done
    ;;
esac
