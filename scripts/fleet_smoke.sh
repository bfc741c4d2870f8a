#!/bin/sh
# fleet_smoke.sh — end-to-end smoke of the elastic worker fleet: start
# "dcsim serve -fleet" as the coordinator, join three real workers, submit
# the fleet-smoke grid, kill -9 one worker mid-job and join a replacement,
# then require: the job completes, its result bytes are identical to a
# plain local "dcsim sweep" of the same grid, /metrics shows the steal
# (dcsim_fleet_runs_stolen_total > 0) and the expiry, and both the
# surviving workers and the coordinator exit 0 on SIGINT. A second pass
# drives the other coordinator form: "dcsim sweep -fleet" with two workers
# registering, whose reports must be byte-identical to the local sweep's.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
cleanup() {
	rm -rf "$out"
	for p in "${w1:-}" "${w2:-}" "${w3:-}" "${w4:-}" "${w5:-}" "${w6:-}" "${pid:-}" "${spid:-}"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
}
trap cleanup EXIT

go build -o "$out/dcsim" ./cmd/dcsim

port=18081
base="http://127.0.0.1:$port"
"$out/dcsim" serve -listen "127.0.0.1:$port" -fleet -fleet-miss 2 -quiet &
pid=$!

i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "fleet_smoke: serve never became healthy" >&2
		exit 1
	fi
	sleep 0.2
done

# Three workers join the fleet. Short heartbeats so a kill is noticed in
# well under a second even without transport evidence.
start_worker() {
	"$out/dcsim" worker -listen "127.0.0.1:$1" -register "$2" \
		-heartbeat 250ms -quiet &
}
start_worker 18082 "$base"; w1=$!
start_worker 18083 "$base"; w2=$!
start_worker 18084 "$base"; w3=$!

# Wait until all three are registered and alive.
i=0
until [ "$(curl -fsS "$base/fleet" | grep -o '"state":"alive"' | wc -l)" -eq 3 ]; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "fleet_smoke: 3 workers never registered: $(curl -fsS "$base/fleet")" >&2
		exit 1
	fi
	sleep 0.2
done
echo "fleet_smoke: 3 workers registered"

# The determinism reference: the same grid swept locally.
"$out/dcsim" sweep -grid examples/grids/fleet-smoke.json -out "$out/ref" -quiet

submit=$(curl -fsS -X POST --data-binary @examples/grids/fleet-smoke.json \
	-H 'Content-Type: application/json' "$base/jobs")
id=$(printf '%s' "$submit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then
	echo "fleet_smoke: no job id in submit response: $submit" >&2
	exit 1
fi
echo "fleet_smoke: submitted $id"

# Kill one worker mid-job — hard, as a machine loss: its dispatched runs
# must be stolen back — and join a replacement to absorb queued runs. The
# kill waits until worker 1 holds a run, since the whole job can finish
# within a second.
i=0
until curl -fsS "$base/fleet" | tr '{' '\n' | grep '127.0.0.1:18082' | grep -q '"dispatched":[1-9]'; do
	i=$((i + 1))
	if [ "$i" -gt 250 ]; then
		echo "fleet_smoke: worker 1 never held a run: $(curl -fsS "$base/fleet")" >&2
		exit 1
	fi
	sleep 0.02
done
kill -9 "$w1"
w1=""
echo "fleet_smoke: killed worker 1"
start_worker 18085 "$base"; w4=$!
echo "fleet_smoke: replacement joined"

i=0
while :; do
	status=$(curl -fsS "$base/jobs/$id")
	case "$status" in
	*'"state":"done"'*) break ;;
	*'"state":"failed"'* | *'"state":"cancelled"'*)
		echo "fleet_smoke: job ended badly: $status" >&2
		exit 1
		;;
	esac
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "fleet_smoke: job never finished: $status" >&2
		exit 1
	fi
	sleep 0.2
done
echo "fleet_smoke: $id done"

# Byte-identical aggregates: the fleet-under-churn result must equal the
# local sweep's report exactly.
curl -fsS "$base/jobs/$id/result" >"$out/fleet-result.json"
if ! cmp -s "$out/fleet-result.json" "$out/ref/fleet-smoke.json"; then
	echo "fleet_smoke: fleet result bytes differ from local sweep" >&2
	exit 1
fi
echo "fleet_smoke: result bytes identical to local sweep"

# The fleet families must show the churn: a positive steal counter, the
# expiry, and the post-churn membership (3 alive: two originals + the
# replacement).
metrics=$(curl -fsS "$base/metrics")
stolen=$(printf '%s\n' "$metrics" | sed -n 's/^dcsim_fleet_runs_stolen_total \([0-9]*\)$/\1/p')
if [ -z "$stolen" ] || [ "$stolen" -lt 1 ]; then
	echo "fleet_smoke: dcsim_fleet_runs_stolen_total = '$stolen', want > 0" >&2
	printf '%s\n' "$metrics" | grep '^dcsim_fleet' >&2 || true
	exit 1
fi
printf '%s\n' "$metrics" | grep -q '^dcsim_fleet_expirations_total [1-9]' || {
	echo "fleet_smoke: no fleet expiration recorded" >&2
	printf '%s\n' "$metrics" | grep '^dcsim_fleet' >&2 || true
	exit 1
}
printf '%s\n' "$metrics" | grep -q '^dcsim_fleet_workers{state="alive"} 3$' || {
	echo "fleet_smoke: alive workers != 3 after churn" >&2
	printf '%s\n' "$metrics" | grep '^dcsim_fleet' >&2 || true
	exit 1
}
echo "fleet_smoke: metrics ok (runs stolen: $stolen)"

# Graceful teardown: SIGINT must drain workers and coordinator to exit 0.
for p in "$w2" "$w3" "$w4"; do
	kill -INT "$p"
done
for p in "$w2" "$w3" "$w4"; do
	if ! wait "$p"; then
		echo "fleet_smoke: a worker exited non-zero after SIGINT" >&2
		exit 1
	fi
done
w2="" w3="" w4=""
kill -INT "$pid"
if wait "$pid"; then
	pid=""
	echo "fleet_smoke: clean drain, exit 0"
else
	echo "fleet_smoke: serve exited non-zero after SIGINT" >&2
	exit 1
fi

# The sweep coordinator form: the sweep serves the fleet endpoints itself,
# waits for two registered workers, and must exit 0 with both reports
# byte-identical to the local sweep's.
sbase="http://127.0.0.1:18086"
"$out/dcsim" sweep -grid examples/grids/fleet-smoke.json -fleet 127.0.0.1:18086 \
	-fleet-min 2 -out "$out/fleet-sweep" -quiet &
spid=$!
start_worker 18087 "$sbase"; w5=$!
start_worker 18088 "$sbase"; w6=$!
if ! wait "$spid"; then
	echo "fleet_smoke: sweep -fleet exited non-zero" >&2
	exit 1
fi
spid=""
for f in fleet-smoke.json fleet-smoke.csv; do
	if ! cmp -s "$out/fleet-sweep/$f" "$out/ref/$f"; then
		echo "fleet_smoke: sweep -fleet $f differs from local sweep" >&2
		exit 1
	fi
done
echo "fleet_smoke: sweep -fleet reports identical to local sweep"
for p in "$w5" "$w6"; do
	kill -INT "$p"
done
for p in "$w5" "$w6"; do
	if ! wait "$p"; then
		echo "fleet_smoke: a sweep -fleet worker exited non-zero after SIGINT" >&2
		exit 1
	fi
done
w5="" w6=""
echo "fleet_smoke: sweep -fleet workers drained, exit 0"
