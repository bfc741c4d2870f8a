#!/bin/sh
# stream_smoke.sh — end-to-end smoke of the streaming workload data path
# under memory pressure: record a 512-VM trace directory, sweep it with no
# memory limit as the reference, then sweep it again under a tight
# GOMEMLIMIT — locally and through two remote workers also running under
# the limit — and require every CSV report to be byte-identical to the
# reference.
#
# GOMEMLIMIT is a soft GC target, not a kill switch, so the gate is
# completion under the limit plus byte identity; the sweep's -v peak-heap
# line lands in the log as the inspectable memory evidence.
set -eu
cd "$(dirname "$0")/.."

LIMIT="${STREAM_SMOKE_GOMEMLIMIT:-64MiB}"

out=$(mktemp -d)
cleanup() {
	rm -rf "$out"
	for p in "${w1:-}" "${w2:-}"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
}
trap cleanup EXIT

go build -o "$out/dcsim" ./cmd/dcsim
go build -o "$out/tracegen" ./cmd/tracegen

# The recording: the grid base's workload, chunked across several CSVs so
# the stream actually cycles chunk buffers.
"$out/tracegen" -dir "$out/recording" -vms 512 -groups 8 -hours 2 -per-file 32
echo "stream_smoke: recorded 512 VMs ($(du -sh "$out/recording" | cut -f1))"

# The determinism reference: the same streamed sweep, unlimited.
"$out/dcsim" sweep -grid examples/grids/stream-smoke.json \
	-tracedir "$out/recording" -out "$out/ref" -quiet

# The streamed path under the limit, with the peak-heap summary on.
GOMEMLIMIT="$LIMIT" "$out/dcsim" sweep -grid examples/grids/stream-smoke.json \
	-tracedir "$out/recording" -out "$out/stream" -quiet -v >"$out/stream.log"
if ! cmp -s "$out/stream/stream-smoke.csv" "$out/ref/stream-smoke.csv"; then
	echo "stream_smoke: streamed sweep CSV under GOMEMLIMIT differs from the unlimited reference" >&2
	diff "$out/ref/stream-smoke.csv" "$out/stream/stream-smoke.csv" >&2 || true
	exit 1
fi
peak=$(grep '^peak heap:' "$out/stream.log" || true)
echo "stream_smoke: streamed CSV byte-identical under GOMEMLIMIT=$LIMIT (${peak:-no peak line})"

# Remote leg: two workers under the same limit stream the recording
# themselves; the coordinator only aggregates.
GOMEMLIMIT="$LIMIT" "$out/dcsim" worker -listen 127.0.0.1:18191 -quiet &
w1=$!
GOMEMLIMIT="$LIMIT" "$out/dcsim" worker -listen 127.0.0.1:18192 -quiet &
w2=$!
for port in 18191 18192; do
	i=0
	until curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 50 ]; then
			echo "stream_smoke: worker :$port never became healthy" >&2
			exit 1
		fi
		sleep 0.2
	done
done
"$out/dcsim" sweep -grid examples/grids/stream-smoke.json \
	-tracedir "$out/recording" \
	-remote http://127.0.0.1:18191,http://127.0.0.1:18192 \
	-out "$out/remote" -quiet
if ! cmp -s "$out/remote/stream-smoke.csv" "$out/ref/stream-smoke.csv"; then
	echo "stream_smoke: remote streamed sweep CSV differs from the unlimited reference" >&2
	diff "$out/ref/stream-smoke.csv" "$out/remote/stream-smoke.csv" >&2 || true
	exit 1
fi
echo "stream_smoke: remote streamed CSV byte-identical (workers under GOMEMLIMIT=$LIMIT)"

# Graceful teardown: SIGINT must exit the workers cleanly.
for p in "$w1" "$w2"; do
	kill -INT "$p"
done
for p in "$w1" "$w2"; do
	if ! wait "$p"; then
		echo "stream_smoke: a worker exited non-zero after SIGINT" >&2
		exit 1
	fi
done
w1="" w2=""
echo "stream_smoke: clean exits all around"
