#!/usr/bin/env bash
# Gate: `causumx-serve` keeps its usage exit codes, boots, answers a real
# query over TCP, and sheds failures as structured envelopes without dying.
#
# Checks that `--bogus` exits 2 and `--help` exits 0, starts the server on
# a small generated dataset, then asserts with plain curl:
#   * GET  /healthz          → 200 {"status":"ok"}
#   * POST /query            → 200 report JSON (Definition 4.5 fields)
#   * POST /query (bad SQL)  → 400 envelope with "kind" and "code"
#   * POST /query + tight
#     X-Deadline-Ms          → 504 deadline_exceeded envelope
#   * GET  /stats            → 200 with prepared_cache counters, and the
#     server is still alive after the failed requests above.
# Any failure prints the server's log.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-7979}"
BASE="http://127.0.0.1:$PORT"
LOG=$(mktemp)

fail() {
    echo "serve smoke: $1" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2
    exit 1
}

cargo build --release --bin causumx-serve
BIN=./target/release/causumx-serve

# Usage contract: a usage error exits 2 and --help exits 0, before any
# dataset is generated or port bound.
status=0
"$BIN" --bogus >"$LOG" 2>&1 || status=$?
[ "$status" = 2 ] || fail "--bogus exited $status, expected 2"
"$BIN" --help >"$LOG" 2>&1 || fail "--help exited non-zero"

"$BIN" --port "$PORT" --rows 4000 --seed 7 --deadline-ms 30000 >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the listener (dataset generation takes a moment); stop at once
# if the server exits instead.
ready_by=$((SECONDS + 20))
until curl -sf --max-time 1 "$BASE/healthz" >/dev/null 2>&1; do
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before it was ready"
    [ "$SECONDS" -lt "$ready_by" ] || fail "server not ready after 20 s"
    sleep 0.2
done

health=$(curl -s "$BASE/healthz") || fail "GET /healthz failed"
[ "$health" = '{"status":"ok"}' ] || fail "bad /healthz body: $health"

report=$(curl -s -X POST --data-binary \
    'SELECT Country, AVG(Salary) FROM so GROUP BY Country' "$BASE/query") \
    || fail "POST /query failed"
echo "$report" | grep -q '"explanations"' || fail "report lacks explanations: $report"
echo "$report" | grep -q '"total_explainability"' || fail "report lacks total_explainability"
echo "$report" | python3 -m json.tool >/dev/null || fail "report is not valid JSON"

badsql=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary \
    'SELECT Country, AVG(Wages) FROM so GROUP BY Country' "$BASE/query") \
    || fail "bad-SQL POST failed"
[ "$badsql" = "400" ] || fail "bad SQL answered $badsql, expected 400"
badbody=$(curl -s -X POST --data-binary \
    'SELECT Country, AVG(Wages) FROM so GROUP BY Country' "$BASE/query") \
    || fail "bad-SQL POST failed"
echo "$badbody" | grep -q '"code":"sql"' || fail "bad-SQL envelope lacks code: $badbody"
echo "$badbody" | python3 -m json.tool >/dev/null || fail "error envelope is not valid JSON"

# A 1 ms deadline cannot fit view materialization + mining at 4000 rows.
deadline=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'X-Deadline-Ms: 1' --data-binary \
    'SELECT Country, AVG(Salary) FROM so WHERE Age < 60 GROUP BY Country' "$BASE/query") \
    || fail "deadline POST failed"
[ "$deadline" = "504" ] || fail "over-deadline query answered $deadline, expected 504"

# Still alive after the failures, and the cache counters are exposed.
stats=$(curl -s "$BASE/stats") || fail "GET /stats failed"
echo "$stats" | grep -q '"prepared_cache"' || fail "/stats lacks prepared_cache: $stats"
echo "$stats" | python3 -m json.tool >/dev/null || fail "/stats is not valid JSON"

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "serve smoke: OK"
