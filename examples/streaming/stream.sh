#!/bin/sh
# Consume heteromixd's streaming enumeration endpoints with plain curl.
#
# Start a daemon first:
#
#	go run ./cmd/heteromixd -addr :8080
#
# then run:
#
#	sh examples/streaming/stream.sh [http://localhost:8080]
#
# The script walks the four consumer shapes of the streaming wire
# protocol (see README "Streaming"):
#
#  1. NDJSON via content negotiation: the tri-cluster frontier arrives
#     one row per line as the walk emits it.
#  2. The same stream gzip-compressed.
#  3. Server-Sent Events via GET, for EventSource-style consumers.
#  4. Frontier deltas: a full stream's trailer carries a base token; a
#     re-query that sends it back as "since" ships just the
#     {"op":"add"|"del"} records.
set -e

BASE="${1:-http://localhost:8080}"

# The tri-cluster space from the paper's third-node-type extension:
# ARM Cortex-A9 and A15 enclosures (8 nodes per 20 W switch) plus AMD
# Opteron K10 nodes, frontier only.
SPEC='{"workload":"ep","types":[
  {"node":"arm-cortex-a9","max_nodes":4,"needs_switch":true},
  {"node":"arm-cortex-a15","max_nodes":4,"needs_switch":true},
  {"node":"amd-opteron-k10","max_nodes":4}],"frontier_only":true}'

echo "== 1. NDJSON stream (Accept: application/x-ndjson) =="
echo "   head record, then one frontier point per line, then a trailer:"
curl -sS -X POST "$BASE/v1/enumerate-generic" \
	-H 'Accept: application/x-ndjson' \
	-d "$SPEC" | head -5
echo "   ..."
echo

echo "== 2. The same stream, gzip on the wire =="
curl -sS --compressed -X POST "$BASE/v1/enumerate-generic?stream=1" \
	-d "$SPEC" | tail -1
echo

echo "== 3. Server-Sent Events (GET, query-parameter spelling) =="
curl -sS "$BASE/v1/enumerate-generic/stream?workload=ep&types=arm-cortex-a9:4:switch,arm-cortex-a15:4:switch,amd-opteron-k10:4&frontier_only=1" \
	| head -8
echo "   ..."
echo

echo "== 4. Frontier deltas =="
DELTA_SPEC=$(printf '%s' "$SPEC" | sed 's/"frontier_only":true/"frontier_only":true,"delta":true/')
# since_spec SPEC BASE: SPEC with "since" set to the base token BASE.
since_spec() {
	printf '%s' "$1" | sed "s|\"delta\":true|\"delta\":true,\"since\":\"$2\"|"
}
# base_of: the base token in a stream's trailer (the last line).
base_of() {
	sed -n '$s/.*"base":"\([^"]*\)".*/\1/p'
}
echo "   first delta request streams the full frontier (mode: full);"
echo "   its trailer carries the base token of what the client now holds:"
FIRST=$(curl -sS -X POST "$BASE/v1/enumerate-generic?stream=1" -d "$DELTA_SPEC")
printf '%s\n' "$FIRST" | sed -n '1p;$p'
TOKEN=$(printf '%s\n' "$FIRST" | base_of)
echo "   re-querying the identical spec since that base ships zero ops:"
curl -sS -X POST "$BASE/v1/enumerate-generic?stream=1" -d "$(since_spec "$DELTA_SPEC" "$TOKEN")" | sed -n '1p;$p'
echo "   shrinking a bound ships only the rows that left/entered the"
echo "   frontier ({\"op\":\"del\"} / {\"op\":\"add\"} records):"
SHRUNK=$(printf '%s' "$DELTA_SPEC" | sed 's/"arm-cortex-a15","max_nodes":4,"needs_switch":true/"arm-cortex-a15","max_nodes":2,"needs_switch":true/')
curl -sS -X POST "$BASE/v1/enumerate-generic?stream=1" -d "$(since_spec "$SHRUNK" "$TOKEN")" | sed -n '1p;2p;$p'
echo "   (head says mode: delta; the trailer counts adds/dels and carries"
echo "   the new base for the next poll)"
