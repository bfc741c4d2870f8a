#!/bin/sh
# leakcheck.sh — fail if any exported identifier in pkg/dcsim/... references
# a type from an internal/ package, or if an internal/ package re-exports a
# contract type under a second name.
#
# The public packages under pkg/dcsim must speak only pkg/dcsim/model (and
# each other): an exported signature naming an internal type cannot be
# implemented or constructed by an out-of-tree module, which is exactly the
# aliasing bug this check guards against regressing. The check renders each
# public package's exported API with `go doc -all` and greps it for
# selector references to any package under internal/.
#
# In the other direction, every internal package names contract types only
# as model.X: an alias such as `type Result = model.Result` under internal/
# spells one type two ways, so it fails the check too. The public
# re-exports in the pkg/dcsim façade are the one set of aliases allowed.
set -eu
cd "$(dirname "$0")/.."

# Build the alternation of internal package names (core|place|sim|...).
pkgs=$(find internal -name '*.go' -exec dirname {} \; | sort -u \
	| xargs -n1 basename | sort -u | paste -sd '|' -)

status=0
for pkg in $(go list ./pkg/...); do
	# Selector references like `sim.Result` or `place.Policy` in the
	# exported API (declarations and fields); doc prose is filtered by
	# requiring an exported identifier right after the dot.
	if go doc -all "$pkg" 2>/dev/null \
		| grep -nE "(^|[^A-Za-z0-9_.])($pkgs)\.[A-Z]" ; then
		echo "leakcheck: $pkg exports identifiers referencing internal packages (above)" >&2
		status=1
	fi
done
# `type X = model.Y`, alone or inside a grouped `type (...)` block, and the
# `var X = model.Y` form of the same re-export.
if grep -rnE --include='*.go' \
	'^((type|var)[[:space:]]+|[[:space:]]+)[A-Z][A-Za-z0-9_]*[[:space:]]*=[[:space:]]*model\.[A-Z][A-Za-z0-9_]*[[:space:]]*$' \
	internal/; then
	echo "leakcheck: internal/ re-exports pkg/dcsim/model names (above); use model.X directly" >&2
	status=1
fi

[ "$status" -eq 0 ] && echo "leakcheck: pkg/dcsim/... exports no internal types; internal/ re-exports no model types"
exit $status
