#!/bin/sh
# examples.sh — build every program under examples/ once, then run each
# with a timeout ("ablation" with -quick). Every example checks its own
# result and exits non-zero on a mismatch, so a failing example fails this
# script, with that example's output on stderr.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

mkdir "$out/bin"
go build -o "$out/bin/" ./examples/...
for bin in "$out"/bin/*; do
	name=$(basename "$bin")
	args=""
	if [ "$name" = ablation ]; then
		args=-quick
	fi
	echo "examples: $name${args:+ $args}"
	# shellcheck disable=SC2086 # args is empty or one word
	if ! timeout 300 "$bin" $args >"$out/$name.log" 2>&1; then
		cat "$out/$name.log" >&2
		echo "examples: $name failed" >&2
		exit 1
	fi
done
echo "examples: all $(ls "$out/bin" | wc -l) passed"
