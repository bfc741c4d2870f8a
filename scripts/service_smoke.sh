#!/bin/sh
# service_smoke.sh — end-to-end smoke of "dcsim serve": start the service
# on a loopback port, submit the quick-threshold grid over HTTP, poll the
# job to completion, scrape /metrics and assert the job counter moved,
# then SIGINT the server and require a clean (drained) exit 0.
#
# A second pass runs "dcsim serve -remote" against one "dcsim worker",
# submits the same grid, and requires the job result to be byte-identical
# to the local pass — with no dcsim_fleet_* families, since a static
# worker list has no membership to export.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
cleanup() {
	rm -rf "$out"
	for p in "${pid:-}" "${wpid:-}"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
}
trap cleanup EXIT

go build -o "$out/dcsim" ./cmd/dcsim

# wait_healthy URL WHAT: poll URL until it answers.
wait_healthy() {
	i=0
	until curl -fsS "$1" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 50 ]; then
			echo "service_smoke: $2 never became healthy" >&2
			exit 1
		fi
		sleep 0.2
	done
}

# run_job BASE OUT: submit the grid to the service at BASE, poll the job
# to a terminal state (only "done" passes), and save its result to OUT.
run_job() {
	submit=$(curl -fsS -X POST --data-binary @examples/grids/quick-threshold.json \
		-H 'Content-Type: application/json' "$1/jobs")
	id=$(printf '%s' "$submit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
	if [ -z "$id" ]; then
		echo "service_smoke: no job id in submit response: $submit" >&2
		exit 1
	fi
	echo "service_smoke: submitted $id to $1"
	i=0
	while :; do
		status=$(curl -fsS "$1/jobs/$id")
		case "$status" in
		*'"state":"done"'*) break ;;
		*'"state":"failed"'* | *'"state":"cancelled"'*)
			echo "service_smoke: job ended badly: $status" >&2
			exit 1
			;;
		esac
		i=$((i + 1))
		if [ "$i" -gt 150 ]; then
			echo "service_smoke: job never finished: $status" >&2
			exit 1
		fi
		sleep 0.2
	done
	curl -fsS "$1/jobs/$id/result" >"$2"
	echo "service_smoke: $id done"
}

# stop PID WHAT: SIGINT must drain and exit 0.
stop() {
	kill -INT "$1"
	if ! wait "$1"; then
		echo "service_smoke: $2 exited non-zero after SIGINT" >&2
		exit 1
	fi
}

# Pass 1: in-process execution.
port=18080
"$out/dcsim" serve -listen "127.0.0.1:$port" -quiet &
pid=$!
base="http://127.0.0.1:$port"
wait_healthy "$base/healthz" serve
run_job "$base" "$out/local.json"

# The exporter must report exactly the one completed job, and the
# exposition must be terminated.
metrics=$(curl -fsS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^dcsim_jobs_completed_total 1$' || {
	echo "service_smoke: dcsim_jobs_completed_total != 1" >&2
	printf '%s\n' "$metrics" | grep '^dcsim_jobs' >&2 || true
	exit 1
}
printf '%s\n' "$metrics" | grep -q '^# EOF$' || {
	echo "service_smoke: metrics exposition not terminated with # EOF" >&2
	exit 1
}
echo "service_smoke: metrics ok"

stop "$pid" serve
pid=""
echo "service_smoke: clean drain, exit 0"

# Pass 2: the same grid through "serve -remote" and one worker.
wport=18081
"$out/dcsim" worker -listen "127.0.0.1:$wport" -quiet &
wpid=$!
wait_healthy "http://127.0.0.1:$wport/healthz" worker
port=18082
"$out/dcsim" serve -listen "127.0.0.1:$port" -remote "127.0.0.1:$wport" -quiet &
pid=$!
base="http://127.0.0.1:$port"
wait_healthy "$base/healthz" "serve -remote"
run_job "$base" "$out/remote.json"
if ! cmp -s "$out/local.json" "$out/remote.json"; then
	echo "service_smoke: serve -remote result differs from the local pass" >&2
	exit 1
fi
echo "service_smoke: serve -remote result byte-identical to the local pass"
if curl -fsS "$base/metrics" | grep -q '^dcsim_fleet_'; then
	echo "service_smoke: serve -remote exports dcsim_fleet_* families" >&2
	exit 1
fi

stop "$pid" "serve -remote"
pid=""
stop "$wpid" worker
wpid=""
echo "service_smoke: clean exits all around"
