#!/usr/bin/env bash
# Checks the paper experiment binaries' printed rows against the committed
# expected output.
#
#   scripts/paper_rows.sh
#
# Reruns `fig3`, `fig5`, `table1` and `ablation` at the Quick scale with the
# scalar kernels forced (CYBERHD_FORCE_SCALAR=1), and runs `diff -u` of each
# one's stdout against crates/bench/expected/<bin>.txt.  Their stdout holds
# accuracies, effective dimensionalities and the hardware-model tables, and
# no timings; progress goes to stderr.  The rows are pinned forced-scalar
# because the model's float bits may depend on which SIMD kernel table the
# host selects.  `fig4` prints timings and is not pinned.
#
# A change that moves a row updates the expected file in the same commit.
# Exits 0 when every binary's rows match, 1 otherwise.
set -euo pipefail

if [[ $# -gt 0 ]]; then
    sed -n "2,16p" "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

root=$(git rev-parse --show-toplevel)
expected=$root/crates/bench/expected
actual=$(mktemp -d)
trap 'rm -rf "$actual"' EXIT

export CYBERHD_FORCE_SCALAR=1
unset CYBERHD_SCALE

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p bench --bins
status=0
for bin in fig3 fig5 table1 ablation; do
    cargo run --release --quiet --manifest-path "$root/Cargo.toml" -p bench --bin "$bin" \
        > "$actual/$bin.txt"
    if diff -u "$expected/$bin.txt" "$actual/$bin.txt"; then
        echo "paper rows: $bin matches" >&2
    else
        status=1
    fi
done
exit $status
