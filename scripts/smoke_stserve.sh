#!/usr/bin/env bash
# End-to-end smoke test for stserve: build the CLIs, generate and save a
# container, serve it, fire >= 1000 queries from >= 8 concurrent clients,
# check /metrics, /debug/pprof/ and hot-swap, and shut down gracefully
# with SIGTERM.
# With SMOKE_SHARDED=1 (the default) it also builds a 3-shard snapshot
# from the same dataset, serves it next to the flat container, proves the
# scatter-gather answers are identical, hot-swaps the manifest and checks
# the per-shard metrics invariant. With SMOKE_INGEST=1 (the default) it
# then runs the live-ingestion crash drill: stream observations into a
# WAL-backed server, freeze mid-stream, record the live answers, kill -9,
# restart over the same journal and require the replayed answers to be
# identical, then serve the final freeze as a plain snapshot and require
# the same answers from it. Exits non-zero on any failure. Used by CI; runnable locally:
#
#   ./scripts/smoke_stserve.sh
set -euo pipefail

CLIENTS=${CLIENTS:-8}
QUERIES_PER_CLIENT=${QUERIES_PER_CLIENT:-125}   # 8 x 125 = 1000
SMOKE_SHARDED=${SMOKE_SHARDED:-1}
SMOKE_INGEST=${SMOKE_INGEST:-1}
PORT=${PORT:-18431}
ADDR="127.0.0.1:${PORT}"

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building CLIs"
go build -o "$workdir" ./cmd/stgen ./cmd/stsplit ./cmd/stquery ./cmd/stserve

echo "== generating container"
"$workdir/stgen" -n 800 -horizon 500 -seed 3 -o "$workdir/objs.jsonl"
"$workdir/stsplit" -i "$workdir/objs.jsonl" -budget 1200 -o "$workdir/recs.jsonl"
"$workdir/stquery" -i "$workdir/recs.jsonl" -index ppr -save "$workdir/idx.sti" \
  -set snapshot-mixed -queries 10 >/dev/null
cp "$workdir/idx.sti" "$workdir/idx2.sti"

echo "== starting stserve on $ADDR"
"$workdir/stserve" -listen "$ADDR" -load "default=$workdir/idx.sti" -workers 4 \
  2>"$workdir/serve.log" &
serve_pid=$!

for i in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "server never came up"; cat "$workdir/serve.log"; exit 1; }
  sleep 0.1
done

echo "== firing $CLIENTS x $QUERIES_PER_CLIENT concurrent queries"
client() {
  local id=$1 fails=0
  for i in $(seq 1 "$QUERIES_PER_CLIENT"); do
    t=$(( (id * 131 + i * 7) % 400 ))
    if ! curl -sf "http://$ADDR/query?rect=0.3,0.3,0.7,0.7&t=$t" >/dev/null; then
      fails=$((fails + 1))
    fi
  done
  echo "$fails" > "$workdir/fails.$id"
}
client_pids=()
for c in $(seq 1 "$CLIENTS"); do client "$c" & client_pids+=("$!"); done
wait "${client_pids[@]}"

total_fails=0
for c in $(seq 1 "$CLIENTS"); do
  total_fails=$((total_fails + $(cat "$workdir/fails.$c")))
done
if [ "$total_fails" -ne 0 ]; then
  echo "FAIL: $total_fails query errors"; cat "$workdir/serve.log"; exit 1
fi
echo "   zero errors"

echo "== kNN and trajectory query kinds"
knn=$(curl -sf "http://$ADDR/query?kind=knn&x=0.5&y=0.5&t=100&k=5")
grep -q '"neighbors":\[{"id":' <<<"$knn" \
  || { echo "FAIL: knn answer missing neighbors: $knn"; exit 1; }
traj=$(curl -sf "http://$ADDR/query?kind=trajectory&rect=0.3,0.3,0.7,0.7&from=50&to=300")
grep -q '"trajectories":\[{"id":' <<<"$traj" \
  || { echo "FAIL: trajectory answer missing hits: $traj"; exit 1; }
echo "   knn + trajectory ok"

echo "== runtime profiles (net/http/pprof)"
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/pprof/cmdline")
[ "$status" = "200" ] || { echo "FAIL: /debug/pprof/cmdline answered $status, want 200"; exit 1; }

echo "== hot-swapping the snapshot"
curl -sf -X POST "http://$ADDR/snapshots/load" \
  -d "{\"name\":\"default\",\"path\":\"$workdir/idx2.sti\"}" >/dev/null
curl -sf "http://$ADDR/query?rect=0.3,0.3,0.7,0.7&t=100" >/dev/null

if [ "$SMOKE_SHARDED" = "1" ]; then
  echo "== building sharded snapshot (3 temporal shards from the same dataset)"
  "$workdir/stsplit" -i "$workdir/objs.jsonl" -budget 1200 -shards 3 -o "$workdir/snap.stm"
  curl -sf -X POST "http://$ADDR/snapshots/load" \
    -d "{\"name\":\"sharded\",\"path\":\"$workdir/snap.stm\"}" >/dev/null

  echo "== comparing scatter-gather answers to the flat container"
  go run ./scripts/comparesnaps "http://$ADDR" default sharded 120

  echo "== hot-swapping the sharded snapshot (5 shards)"
  "$workdir/stsplit" -i "$workdir/objs.jsonl" -budget 1200 -shards 5 \
    -o "$workdir/snap2.stm"
  curl -sf -X POST "http://$ADDR/snapshots/load" \
    -d "{\"name\":\"sharded\",\"path\":\"$workdir/snap2.stm\"}" >/dev/null
  go run ./scripts/comparesnaps "http://$ADDR" default sharded 40
fi

echo "== scraping /metrics"
metrics=$(curl -sf "http://$ADDR/metrics")
echo "$metrics" | head -c 400; echo
want=$((CLIENTS * QUERIES_PER_CLIENT))
check=$(go run ./scripts/checkmetrics.go "$want" <<<"$metrics")
echo "$check"
if [ "$SMOKE_SHARDED" = "1" ]; then
  if grep -q "sharded-snapshots=0" <<<"$check"; then
    echo "FAIL: no sharded snapshot in metrics"; exit 1
  fi
fi

# Malformed kNN parameters must map to 400, not 500. This runs after the
# metrics scrape: the rejected query counts as a failure there, and
# checkmetrics insists the load-test traffic itself had none.
echo "== malformed kNN is rejected with 400"
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/query?kind=knn&x=0.5&y=0.5&t=100&k=0")
[ "$status" = "400" ] || { echo "FAIL: k=0 answered $status, want 400"; exit 1; }

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$serve_pid"
for i in $(seq 1 50); do
  kill -0 "$serve_pid" 2>/dev/null || break
  [ "$i" = 50 ] && { echo "server did not drain"; exit 1; }
  sleep 0.1
done
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
grep -q "bye" "$workdir/serve.log" || { echo "no graceful exit line"; cat "$workdir/serve.log"; exit 1; }

if [ "$SMOKE_INGEST" = "1" ]; then
  # Live-ingestion crash drill. The feed is deterministic: 6 objects
  # drifting through the unit square, one JSON observation per line (the
  # concatenated-JSON batch format /ingest accepts). Both ingest servers
  # run with a shared decode cache, as the ingest-mixed benchmark does, so
  # the recorded and the replayed answers are read through it.
  gen_feed() { # gen_feed <first-t> <last-t-exclusive>
    awk -v s="$1" -v e="$2" 'BEGIN {
      for (t = s; t < e; t++)
        for (id = 1; id <= 6; id++) {
          x = 0.05 + 0.12 * (id - 1) + 0.001 * (t % 97)
          y = 0.10 + 0.08 * ((id * 7 + t) % 9)
          printf "{\"id\":%d,\"t\":%d,\"minx\":%.3f,\"miny\":%.3f,\"maxx\":%.3f,\"maxy\":%.3f}\n", \
            id, t, x, y, x + 0.05, y + 0.05
        }
    }'
  }
  wait_up() { # wait_up <logfile>
    for i in $(seq 1 50); do
      curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
      [ "$i" = 50 ] && { echo "ingest server never came up"; cat "$1"; return 1; }
      sleep 0.1
    done
  }

  echo "== starting WAL-backed ingest server"
  "$workdir/stserve" -listen "$ADDR" -workers 4 -cache-mb 16 \
    -ingest live -ingest-dir "$workdir/journal" 2>"$workdir/ingest.log" &
  serve_pid=$!
  wait_up "$workdir/ingest.log"

  echo "== streaming observations (chunk 1), freezing mid-stream"
  gen_feed 1 200 >"$workdir/feed1.jsonl"     # 199 instants x 6 = 1194 records
  curl -sf -X POST --data-binary "@$workdir/feed1.jsonl" "http://$ADDR/ingest" >/dev/null
  curl -sf -X POST "http://$ADDR/ingest/freeze" | grep -q '"froze":true' \
    || { echo "mid-stream freeze did not happen"; cat "$workdir/ingest.log"; exit 1; }

  echo "== streaming observations (chunk 2: the WAL tail beyond the freeze)"
  gen_feed 200 400 >"$workdir/feed2.jsonl"   # 200 instants x 6 = 1200 records
  curl -sf -X POST --data-binary "@$workdir/feed2.jsonl" "http://$ADDR/ingest" >/dev/null
  curl -sf -X POST -d '{"t":400}' "http://$ADDR/ingest/finish" >/dev/null

  echo "== recording live answers"
  go run ./scripts/comparesnaps -record "$workdir/answers.json" "http://$ADDR" live 80

  # The freeze left chunk 1's unchanged pages in its container, so fewer
  # pages than the live index has are held in memory.
  echo "== checking ingest metrics (2395 accepted = 1194 + 1200 + finish-all)"
  curl -sf "http://$ADDR/metrics" | go run ./scripts/checkmetrics.go \
    -ingest-accepted 2395 -ingest-freezes 1 -ingest-released 80

  echo "== kill -9, restart over the same journal"
  kill -9 "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  "$workdir/stserve" -listen "$ADDR" -workers 4 -cache-mb 16 \
    -ingest live -ingest-dir "$workdir/journal" 2>"$workdir/ingest2.log" &
  serve_pid=$!
  wait_up "$workdir/ingest2.log"

  echo "== replaying recorded answers against the recovered pipeline"
  go run ./scripts/comparesnaps -replay "$workdir/answers.json" "http://$ADDR" live 80

  # Chunk 2 and the finish-all were never frozen, so recovery must have
  # replayed exactly those 1201 records from the journal tail; the pages
  # the replay did not write stay in the freeze's container.
  curl -sf "http://$ADDR/metrics" | go run ./scripts/checkmetrics.go \
    -ingest-accepted 0 -ingest-replayed 1201 -ingest-released 80

  echo "== graceful ingest shutdown (SIGTERM: final freeze + drain)"
  kill -TERM "$serve_pid"
  for i in $(seq 1 50); do
    kill -0 "$serve_pid" 2>/dev/null || break
    [ "$i" = 50 ] && { echo "ingest server did not drain"; exit 1; }
    sleep 0.1
  done
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=""
  grep -q "bye" "$workdir/ingest2.log" || { echo "no graceful exit line"; cat "$workdir/ingest2.log"; exit 1; }

  # The final freeze holds the whole stream, so served as a plain
  # snapshot — a stream container queried through per-worker views —
  # it must give the recorded live answers too.
  frozen=$(ls "$workdir/journal"/freeze-*.sti | sort | tail -n 1)
  echo "== serving the final freeze $(basename "$frozen") as a plain snapshot"
  "$workdir/stserve" -listen "$ADDR" -workers 4 -load "frozen=$frozen" \
    2>"$workdir/frozen.log" &
  serve_pid=$!
  wait_up "$workdir/frozen.log"
  go run ./scripts/comparesnaps -replay "$workdir/answers.json" "http://$ADDR" frozen 80
  kill -TERM "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=""
  grep -q "bye" "$workdir/frozen.log" || { echo "no graceful exit line"; cat "$workdir/frozen.log"; exit 1; }
fi
echo "SMOKE OK"
