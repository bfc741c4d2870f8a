#!/bin/sh
# bench_compare.sh — guard the perf trajectory: compare the freshly
# recorded BENCH_sweep.json AND BENCH_alloc.json against the baselines
# committed at HEAD, and fail when wall time regresses more than
# BENCH_REGRESS_PCT percent (default 100, i.e. a 2x slowdown). Deltas are
# printed either way, so CI logs show the trajectory even when the gates
# pass. Before this script also gated the allocator record, an allocator
# regression only showed up as a silently drifting artifact.
#
# A comparison is skipped (with a reason) when there is no committed
# baseline, the baseline covers a different grid/run count or benchmark
# shape, or a file is unreadable — a changed benchmark is a new baseline,
# not a regression. CI sets BENCH_REGRESS_PCT higher to absorb the
# variance between the committing machine and the runner.
set -eu
cd "$(dirname "$0")/.."

threshold="${BENCH_REGRESS_PCT:-100}"
status=0

compare() {
	record="$1"
	maketarget="$2"
	if [ ! -f "$record" ]; then
		echo "bench_compare: $record missing; run 'make $maketarget' first" >&2
		return 1
	fi
	basefile=$(mktemp)
	if ! git show "HEAD:$record" >"$basefile" 2>/dev/null; then
		echo "bench_compare: no committed $record baseline at HEAD; skipping"
		rm -f "$basefile"
		return 0
	fi
	python3 - "$basefile" "$record" "$threshold" <<'EOF'
import json, sys

try:
    base = json.load(open(sys.argv[1]))
    cur = json.load(open(sys.argv[2]))
except (ValueError, OSError) as e:
    print(f"bench_compare: unreadable record ({e}); skipping")
    sys.exit(0)

threshold = float(sys.argv[3])

def gate(label, b, c):
    delta_pct = (c - b) / b * 100.0
    print(f"bench_compare: {label}: baseline {b:.4g} -> current {c:.4g} "
          f"({delta_pct:+.1f}%, threshold +{threshold:.0f}%)")
    if delta_pct > threshold:
        print(f"bench_compare: FAIL — {label} regressed "
              f"{delta_pct:.1f}% > {threshold:.0f}%", file=sys.stderr)
        return 1
    return 0

failures = 0
if "rows" in cur:
    # BENCH_alloc.json: gate each phase's summed ns/op separately over the
    # (phase, series, vms) rows present in both records — individual
    # micro-rows at -benchtime 2x are too noisy to gate one by one
    # (run-to-run swings near 2x have been observed on the small rows),
    # but per-phase sums are dominated by the big fills, where a real
    # regression shows. Gating per phase (scale trajectory, matrix-update,
    # fill-scoring, placement-total) means one phase cannot silently
    # regress while another improves enough to hide it in a global sum.
    # Per-row deltas are printed for the logs; rows only one side has are
    # a changed benchmark shape and drop out of both sums; phases only one
    # side has are a new baseline, not a regression.
    base_rows = {(r.get("phase", "scale"), r["series"], r["vms"]): r
                 for r in base.get("rows", [])}
    sums = {}
    for r in cur["rows"]:
        key = (r.get("phase", "scale"), r["series"], r["vms"])
        br = base_rows.get(key)
        if br is None:
            print(f"bench_compare: no baseline row for {key}; skipping it")
            continue
        b, c = br["ns_per_op"], r["ns_per_op"]
        if b <= 0 or c <= 0:
            continue
        delta_pct = (c - b) / b * 100.0
        print(f"bench_compare: alloc {key[0]}/{key[1]}/vms={key[2]}: "
              f"baseline {b:.4g} -> current {c:.4g} ({delta_pct:+.1f}%, informational)")
        bs, cs = sums.get(key[0], (0.0, 0.0))
        sums[key[0]] = (bs + b, cs + c)
    if sums:
        for phase in sorted(sums):
            bs, cs = sums[phase]
            if bs > 0 and cs > 0:
                failures += gate(f"alloc phase {phase!r} wall time (summed ns/op)", bs, cs)
    else:
        print("bench_compare: no comparable allocator rows; skipping")
else:
    # BENCH_sweep.json: one wall-time record for one grid.
    for key in ("grid", "runs"):
        if base.get(key) != cur.get(key):
            print(f"bench_compare: baseline {key}={base.get(key)!r} vs current "
                  f"{key}={cur.get(key)!r}; not comparable, skipping")
            sys.exit(0)
    b, c = base.get("seconds"), cur.get("seconds")
    if not b or not c or b <= 0 or c <= 0:
        print("bench_compare: missing or non-positive seconds; skipping")
        sys.exit(0)
    failures += gate(f"sweep grid {cur['grid']!r} ({cur['runs']} runs) seconds", b, c)

sys.exit(1 if failures else 0)
EOF
	rc=$?
	rm -f "$basefile"
	return $rc
}

compare BENCH_sweep.json bench-sweep || status=1
compare BENCH_alloc.json bench-alloc || status=1
[ "$status" -eq 0 ] && echo "bench_compare: OK"
exit $status
