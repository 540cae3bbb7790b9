#!/usr/bin/env bash
# Checks the paper experiment binaries' printed rows against the committed
# expected output.
#
#   scripts/paper_rows.sh
#
# Reruns `fig3`, `fig5`, `table1` and `ablation` at the Quick scale twice:
# on the kernel table the host selects, and with the scalar kernels forced
# (CYBERHD_FORCE_SCALAR=1).  Each run's stdout is diffed (`diff -u`) against
# the one crates/bench/expected/<bin>.txt.  Their stdout holds accuracies,
# effective dimensionalities and the hardware-model tables, and no timings;
# progress goes to stderr.  Every kernel is bit-exact on every dispatch
# path, so both tables must print the same rows.  `fig4` prints timings and
# is not pinned.
#
# A change that moves a row updates the expected file in the same commit.
# Exits 0 when every binary's rows match on both tables, 1 otherwise.
set -euo pipefail

if [[ $# -gt 0 ]]; then
    sed -n "2,17p" "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

root=$(git rev-parse --show-toplevel)
expected=$root/crates/bench/expected
actual=$(mktemp -d)
trap 'rm -rf "$actual"' EXIT

unset CYBERHD_SCALE

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p bench --bins
status=0
for table in native scalar; do
    force=0
    [[ $table == scalar ]] && force=1
    for bin in fig3 fig5 table1 ablation; do
        CYBERHD_FORCE_SCALAR=$force cargo run --release --quiet \
            --manifest-path "$root/Cargo.toml" -p bench --bin "$bin" > "$actual/$bin.txt"
        if diff -u "$expected/$bin.txt" "$actual/$bin.txt"; then
            echo "paper rows: $bin matches ($table kernels)" >&2
        else
            echo "paper rows: $bin differs ($table kernels)" >&2
            status=1
        fi
    done
done
exit $status
