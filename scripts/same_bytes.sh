#!/usr/bin/env bash
# Same bytes out: build <rev> from `git archive` and check that the
# working tree prints what it prints.
#
#   scripts/same_bytes.sh <rev>
#
# Compared, in order:
#   * `report --scale small` stdout for seeds 1989 and 7;
#   * `ablation --scale test` stdout;
#   * the `btb_bench` artifact, against the committed BENCH_btb.json
#     and against <rev>'s own artifact;
#   * the manifest `predictors` sections (per-benchmark stats and site
#     counters; `phases` hold wall times and are left out) of
#     `report --telemetry-out` at `--scale test` and at
#     `--scale small --seed 7`.
#
# Exits 0 when all are equal, 1 naming the first difference, 2 on a
# usage or build error. <rev> is built in a temporary directory with
# its own target directory; set SAME_BYTES_DIR to keep that directory
# (and its build) for the next call. The working tree builds into
# CARGO_TARGET_DIR, or target/. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
    echo "usage: scripts/same_bytes.sh <rev>" >&2
    exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "same_bytes: unknown revision \`$1\`" >&2
    exit 2
}
command -v jq >/dev/null || {
    echo "same_bytes: jq is required" >&2
    exit 2
}

if [ -n "${SAME_BYTES_DIR:-}" ]; then
    work=$SAME_BYTES_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
base="$work/src"
rm -rf "$base" "$work/out"
mkdir -p "$base" "$work/out/base" "$work/out/head"

echo "==> building $rev (${1}) in $base" >&2
git archive "$rev" | tar -x -C "$base"
CARGO_TARGET_DIR="$work/target" cargo build --release --offline --quiet \
    --manifest-path "$base/Cargo.toml" --workspace || exit 2
echo "==> building the working tree" >&2
cargo build --release --offline --quiet --workspace || exit 2

bins_base="$work/target/release"
bins_head="${CARGO_TARGET_DIR:-target}/release"

# Run one binary of one side; a run that fails is an error (exit 2).
run() {
    local bins=$1 out=$2
    shift 2
    "$bins/$1" "${@:2}" >"$out" 2>/dev/null || {
        echo "same_bytes: \`$bins/$1 ${*:2}\` failed" >&2
        exit 2
    }
}

# Run one command on both sides, each side's stdout into out/<side>/<name>.
both() {
    local name=$1
    shift
    run "$bins_base" "$work/out/base/$name" "$@"
    run "$bins_head" "$work/out/head/$name" "$@"
}

# Compare two files; on a difference name it, show its first lines and exit 1.
same() {
    local what=$1 a=$2 b=$3
    if ! cmp -s "$a" "$b"; then
        echo "same_bytes: DIFFERENT: $what" >&2
        diff "$a" "$b" | head -20 >&2 || true
        exit 1
    fi
    echo "same: $what" >&2
}

for seed in 1989 7; do
    both "report-small-$seed" report --scale small --seed "$seed"
    same "report --scale small --seed $seed" \
        "$work/out/base/report-small-$seed" "$work/out/head/report-small-$seed"
done

both ablation-test ablation --scale test
same "ablation --scale test" "$work/out/base/ablation-test" "$work/out/head/ablation-test"

run "$bins_base" /dev/null btb_bench --out "$work/out/base/btb.json"
run "$bins_head" /dev/null btb_bench --out "$work/out/head/btb.json"
same "btb_bench vs BENCH_btb.json" BENCH_btb.json "$work/out/head/btb.json"
same "btb_bench vs $1's btb_bench" "$work/out/base/btb.json" "$work/out/head/btb.json"

for args in "--scale test" "--scale small --seed 7"; do
    tag=$(echo "$args" | tr -d ' -')
    for side in base head; do
        bins="bins_$side"
        # shellcheck disable=SC2086
        run "${!bins}" /dev/null report $args --telemetry-out "$work/out/$side/tel-$tag"
        jq '[.benchmarks[] | {name, predictors}]' "$work/out/$side/tel-$tag/manifest.json" \
            >"$work/out/$side/predictors-$tag.json"
    done
    same "manifest predictors, report $args" \
        "$work/out/base/predictors-$tag.json" "$work/out/head/predictors-$tag.json"
done

echo "same_bytes: all outputs equal to $1" >&2
