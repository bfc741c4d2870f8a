#!/bin/sh
# fuzz.sh — run every fuzz target in the root module for a fixed 10 s each.
#
# `go test ./...` runs only each target's seed corpus; this script runs the
# fuzzing engine itself, so inputs nobody thought to seed get tried on every
# change. Targets are found with `go test -list`, so a new Fuzz* function is
# picked up without editing this file. A crasher fails the script and is
# saved under the package's testdata/fuzz/<Target>/, ready to commit as a
# regression seed.
set -eu
cd "$(dirname "$0")/.."

for pkg in $(go list ./...); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
		echo "fuzz: $pkg $target"
		go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "$pkg"
	done
done
