#!/usr/bin/env bash
# Parent-vs-change benchmark pairs, the way a performance claim is judged.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [--claim workload:metric]...
#
# Builds the benchmark twice — from a clean export of <parent-ref> and from
# the working tree as it stands — then runs `--workload all` once per side and
# pair (one seed per pair, alternating which side goes first) and ends with
# `benchmark -- compare parent change [--claim ...]`, whose exit code it
# returns.  Ten pairs take about half an hour; run nothing else meanwhile.
#
# Everything lands under .bench_build/pairs (git-ignored); BENCH_PAIRS_DIR
# moves it.  BENCH_FIRST_SEED (default 1) picks the first pair's seed, so a
# claim can be re-checked on seeds that were not used while writing the change.
set -euo pipefail

if [[ $# -lt 1 || $1 == -* ]]; then
    sed -n "2,14p" "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_ref=$1
shift
pairs=10
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
    pairs=$1
    shift
fi
compare_args=("$@")

root=$(git rev-parse --show-toplevel)
work=${BENCH_PAIRS_DIR:-$root/.bench_build/pairs}
first_seed=${BENCH_FIRST_SEED:-1}
parent_commit=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")

# A clean export, not a worktree: nothing to prune afterwards, and the parent
# builds against exactly its committed files.
rm -rf "$work/parent-src" "$work/out"
mkdir -p "$work/parent-src" "$work/out"
git -C "$root" archive "$parent_commit" | tar -x -C "$work/parent-src"

# Each side builds from its own root, so its own .cargo/config.toml applies.
build() { # <source root> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
}
build "$work/parent-src" "$work/target-parent"
build "$root" "$work/target-change"

run_side() { # <side> <commit label> <seed>
    echo "== pair seed $3: $1" >&2
    BENCH_COMMIT=$2 "$work/target-$1/release/cyberhd-benchmark" \
        run --workload all --seed "$3" --out "$work/out/$1" >"$work/out/$1.log" 2>&1 ||
        { tail -n 20 "$work/out/$1.log" >&2; exit 1; }
}
change_commit="$(git -C "$root" rev-parse --short HEAD)+worktree"
cd "$root"
for ((pair = 0; pair < pairs; pair++)); do
    seed=$((first_seed + pair))
    if ((pair % 2 == 0)); then
        run_side parent "$parent_commit" "$seed"
        run_side change "$change_commit" "$seed"
    else
        run_side change "$change_commit" "$seed"
        run_side parent "$parent_commit" "$seed"
    fi
done

"$work/target-change/release/cyberhd-benchmark" compare \
    "$work/out/parent/results.jsonl" "$work/out/change/results.jsonl" ${compare_args[@]+"${compare_args[@]}"}
