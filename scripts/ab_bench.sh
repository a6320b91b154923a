#!/usr/bin/env sh
# Paired host-time A/B: batbench at a base revision against the working tree.
#
# usage: scripts/ab_bench.sh <base-rev> <workload> <pairs> <first-seed>
#
# Builds batbench from <base-rev> and from the working tree into separate
# target directories, then runs <pairs> alternating pairs of untraced
# 15-second runs of <workload> (`--seconds 15 --trace 0`). Pair i runs
# both sides at seed <first-seed> + i; the side that goes first swaps every
# pair, so a drift in host speed lands on both sides alike. Finally
# `batbench compare` prints one verdict per end-to-end metric (run from the
# repository root, so it reads BENCHMARK.json there).
#
# The base revision is exported with `git archive`, not checked out as a
# worktree, so an interrupted run leaves nothing registered in `.git`.
# Everything goes under target/ab_bench/ (ignored by git): the base source
# at base-<commit>/, the two target dirs, copies of both binaries, and each
# run's standard output under runs/<workload>-<first-seed>/ (emptied
# first), named so that they sort in the order the pairs were taken. The
# exit code is `batbench compare`'s: 1 when any end-to-end metric reads
# `worse`.
set -eu

usage="usage: scripts/ab_bench.sh <base-rev> <workload> <pairs> <first-seed>"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
first=${4:?$usage}
case "$pairs$first" in
    *[!0-9]*) echo "error: <pairs> and <first-seed> must be non-negative integers" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || {
    echo "error: \`$base\` does not name a commit" >&2
    exit 2
}
work="$root/target/ab_bench"
src="$work/base-$rev"
mkdir -p "$work/bin"

if [ ! -d "$src" ]; then
    rm -rf "$src.partial"
    mkdir -p "$src.partial"
    git -C "$root" archive "$rev" | tar -x -C "$src.partial"
    mv "$src.partial" "$src"
fi

echo "building base ($rev) and the working tree" >&2
cargo build --release --offline -q --manifest-path "$src/batbench/Cargo.toml" \
    --target-dir "$work/target-base"
cargo build --release --offline -q --manifest-path "$root/batbench/Cargo.toml" \
    --target-dir "$work/target-change"
cp "$work/target-base/release/batbench" "$work/bin/base"
cp "$work/target-change/release/batbench" "$work/bin/change"

runs="$work/runs/$workload-$first"
rm -rf "$runs"
mkdir -p "$runs"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        out="$runs/$side-$(printf %03d "$i").txt"
        echo "pair $((i + 1))/$pairs: $side, seed $seed" >&2
        if [ "$side" = base ]; then dir=$src; else dir=$root; fi
        (cd "$dir" && "$work/bin/$side" --workload "$workload" --seed "$seed" \
            --seconds 15 --trace 0) > "$out"
    done
    i=$((i + 1))
done

cd "$root"
"$work/bin/change" compare "$runs"/base-*.txt vs "$runs"/change-*.txt
