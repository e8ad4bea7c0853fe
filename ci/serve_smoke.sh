#!/usr/bin/env bash
# Gate: `causumx-serve` keeps its usage exit codes, boots, answers a real
# query over TCP, and sheds failures as structured envelopes without dying.
#
# Checks that `--bogus`, `--deadline-ms 0`, `--memory-budget-mb 0`,
# `--max-inflight 0` and `--max-queue 0` exit 2 and `--help` exits 0,
# starts the server on a small generated dataset with chaos allowed, then
# asserts with plain curl:
#   * GET  /healthz          → 200 {"status":"ok"}
#   * POST /query            → 200 report JSON (Definition 4.5 fields)
#   * the same statement with X-Chaos: panic → 500 worker_panic envelope,
#     then without the header → 200 and the first report (timings
#     stripped), both served from the cached statement: /stats'
#     prepared_cache.hits rises by 2, so the fault never reached the
#     shared core;
#   * POST /query (bad SQL)  → 400 envelope with "code" and no "kind"
#   * POST /query + tight
#     X-Deadline-Ms          → 504 deadline_exceeded envelope
#   * GET  /stats            → 200 with prepared_cache counters, and the
#     server is still alive after the failed requests above;
#   * two statements differing only in their WHERE bound → the second
#     leaves /stats' session.atom_blocks_built unchanged (atoms are built
#     once per session, not per statement);
#   * /stats' session carries samples_drawn and itemsets_mined: the
#     repeated report statement leaves itemsets_mined unchanged (Apriori
#     runs once per grouping-attribute set), and samples_drawn stays 0
#     (the server's configuration sets no sample cap).
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
status=0
"$BIN" --deadline-ms 0 >"$LOG" 2>&1 || status=$?
[ "$status" = 2 ] || fail "--deadline-ms 0 exited $status, expected 2"
status=0
"$BIN" --memory-budget-mb 0 >"$LOG" 2>&1 || status=$?
[ "$status" = 2 ] || fail "--memory-budget-mb 0 exited $status, expected 2"
status=0
"$BIN" --max-inflight 0 >"$LOG" 2>&1 || status=$?
[ "$status" = 2 ] || fail "--max-inflight 0 exited $status, expected 2"
status=0
"$BIN" --max-queue 0 >"$LOG" 2>&1 || status=$?
[ "$status" = 2 ] || fail "--max-queue 0 exited $status, expected 2"
"$BIN" --help >"$LOG" 2>&1 || fail "--help exited non-zero"

"$BIN" --port "$PORT" --rows 4000 --seed 7 --deadline-ms 30000 --allow-chaos >"$LOG" 2>&1 &
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

# One counter of /stats' session object.
session_counter() {
    curl -s "$BASE/stats" | python3 -c \
        "import json, sys; print(json.load(sys.stdin)['session']['$1'])"
}

REPORT_SQL='SELECT Country, AVG(Salary) FROM so GROUP BY Country'
report=$(curl -s -X POST --data-binary "$REPORT_SQL" "$BASE/query") \
    || fail "POST /query failed"
mined=$(session_counter itemsets_mined) || fail "/stats lacks session.itemsets_mined"
[ "$mined" -gt 0 ] || fail "no itemsets mined after a report"
echo "$report" | grep -q '"explanations"' || fail "report lacks explanations: $report"
echo "$report" | grep -q '"total_explainability"' || fail "report lacks total_explainability"
echo "$report" | python3 -m json.tool >/dev/null || fail "report is not valid JSON"

# A chaos request arms its fault on its own guard and shares the cached
# statement; the clean request after it must get the first report back.
cache_hits() {
    curl -s "$BASE/stats" | python3 -c \
        'import json, sys; print(json.load(sys.stdin)["prepared_cache"]["hits"])'
}
strip_timings() {
    python3 -c 'import json, sys; r = json.load(sys.stdin); r.pop("timings"); print(json.dumps(r, sort_keys=True))'
}
hits_before=$(cache_hits) || fail "/stats lacks prepared_cache.hits"
chaos=$(curl -s -w '\n%{http_code}' -X POST -H 'X-Chaos: panic' \
    --data-binary "$REPORT_SQL" "$BASE/query") || fail "chaos POST failed"
[ "$(echo "$chaos" | tail -n 1)" = "500" ] || fail "chaos request answered: $chaos"
echo "$chaos" | grep -q '"code":"worker_panic"' || fail "chaos envelope lacks worker_panic: $chaos"
again=$(curl -s -w '\n%{http_code}' -X POST --data-binary "$REPORT_SQL" "$BASE/query") \
    || fail "POST /query after chaos failed"
[ "$(echo "$again" | tail -n 1)" = "200" ] || fail "query after chaos answered: $again"
first=$(echo "$report" | strip_timings) || fail "first report has no timings"
second=$(echo "$again" | sed '$d' | strip_timings) || fail "report after chaos has no timings"
[ "$first" = "$second" ] || fail "report after chaos differs from the first"
mined_again=$(session_counter itemsets_mined) || fail "/stats lacks session.itemsets_mined"
[ "$mined_again" = "$mined" ] \
    || fail "the repeated report statement mined itemsets again: $mined -> $mined_again"
hits_after=$(cache_hits) || fail "/stats lacks prepared_cache.hits"
[ "$hits_after" = $((hits_before + 2)) ] \
    || fail "chaos and clean requests did not both hit the cache: $hits_before -> $hits_after"

badsql=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary \
    'SELECT Country, AVG(Wages) FROM so GROUP BY Country' "$BASE/query") \
    || fail "bad-SQL POST failed"
[ "$badsql" = "400" ] || fail "bad SQL answered $badsql, expected 400"
badbody=$(curl -s -X POST --data-binary \
    'SELECT Country, AVG(Wages) FROM so GROUP BY Country' "$BASE/query") \
    || fail "bad-SQL POST failed"
echo "$badbody" | grep -q '"code":"sql"' || fail "bad-SQL envelope lacks code: $badbody"
if echo "$badbody" | grep -q '"kind"'; then
    fail "bad-SQL envelope still carries kind: $badbody"
fi
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

# Atoms belong to the session: a statement that differs from the one
# before only in its WHERE bound builds no atom block.
for bound in 50 51; do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary \
        "SELECT Country, AVG(Salary) FROM so WHERE Age < $bound GROUP BY Country" "$BASE/query") \
        || fail "POST /query (Age < $bound) failed"
    [ "$code" = "200" ] || fail "Age < $bound answered $code, expected 200"
    blocks=$(session_counter atom_blocks_built) || fail "/stats lacks session.atom_blocks_built"
    if [ "$bound" = 50 ]; then
        [ "$blocks" -gt 0 ] || fail "no atom block built after two queries"
        first_blocks=$blocks
    fi
done
[ "$blocks" = "$first_blocks" ] \
    || fail "a WHERE-only change built atom blocks: $first_blocks -> $blocks"

# No sample cap is configured, so no optimization-(d) sample is drawn.
drawn=$(session_counter samples_drawn) || fail "/stats lacks session.samples_drawn"
[ "$drawn" = 0 ] || fail "samples drawn without a sample cap: $drawn"

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "serve smoke: OK"
