#!/usr/bin/env bash
# Three-daemon loopback smoke test: launch three durable `optrepd`
# processes on ephemeral ports, write divergent keys (including a
# conflict and a tombstone) through the `optrep` client, pull the full
# mesh to convergence with `optrep sync`, and require byte-identical
# replica digests. One daemon is then killed with SIGKILL mid-gossip
# and restarted on the same data dir: it must reboot from snapshot+WAL
# and the fleet must reconverge. A fourth daemon then joins empty, is
# killed the same way once its one long join record is logged, and must
# reboot to the state it joined. Once the fleet is stopped gracefully,
# the joiner boots twice more from its final checkpoint alone, at 512
# shards and at one, and must answer with the digest it stopped at.
# Every daemon runs with OPTREP_OBS_JSONL set, and each trace is
# validated by `tables --check-jsonl` (schema + conservation invariants)
# at the end.
#
# Usage: scripts/smoke_cluster.sh   (from the repo root; builds release
# binaries if they are missing)
set -euo pipefail

BIN="${CARGO_TARGET_DIR:-target}/release"
if [[ ! -x "$BIN/optrepd" || ! -x "$BIN/optrep" || ! -x "$BIN/tables" ]]; then
    cargo build --release -p optrep-server -p optrep-bench
fi

WORK="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046 # pid-per-word is the point
    kill $(cat "$WORK"/*.pid 2>/dev/null) 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# start <site-letter>: launches a traced durable daemon on an ephemeral
# port and echoes its bound address (parsed from the startup line). The
# pid lands in $WORK/<site>.pid — `start` runs inside $(...), so a
# parent-shell array would never see the assignment.
start() {
    local site="$1" log="$WORK/$1.log"
    OPTREP_OBS_JSONL="$WORK/$site.jsonl" \
        "$BIN/optrepd" --site "$site" --listen 127.0.0.1:0 \
        --data-dir "$WORK/$site.data" --fsync always >"$log" 2>&1 &
    echo $! >"$WORK/$site.pid"
    for _ in $(seq 100); do
        if grep -q 'listening on' "$log"; then
            sed -n 's/.*listening on //p' "$log" | head -1
            return 0
        fi
        sleep 0.05
    done
    echo "daemon $site did not come up; log:" >&2
    cat "$log" >&2
    return 1
}

A="$(start A)"
B="$(start B)"
C="$(start C)"
echo "cluster up: A=$A B=$B C=$C"

# Divergent writes: a conflict on "shared", a tombstone on C.
"$BIN/optrep" "$A" put alpha from-a
"$BIN/optrep" "$A" put shared a-version
"$BIN/optrep" "$B" put beta from-b
"$BIN/optrep" "$B" put shared b-version
"$BIN/optrep" "$C" put gamma from-c
"$BIN/optrep" "$C" delete gamma
"$BIN/optrep" "$C" put delta from-c
# And enough uncontended keys, ten or so a shard, that a shard is worth
# more on the wire than naming one key in it (the proposal check below).
# shellcheck disable=SC2046 # one verb per word group is the point
"$BIN/optrep" "$A" $(for i in $(seq 160); do printf 'put bulk-%d v ' "$i"; done) >/dev/null

# Full-mesh pulls until the three digests agree (the conflict needs a
# second round to propagate the reconciled value everywhere). A's very
# first pull from B — a fresh dial, so the whole digest vector — is kept
# for the planner check below.
converged=""
first_ab=""
for round in 1 2 3 4; do
    for dst in "$A" "$B" "$C"; do
        for src in "$A" "$B" "$C"; do
            [[ "$dst" == "$src" ]] && continue
            out="$("$BIN/optrep" "$dst" sync "$src")"
            [[ -n "$first_ab" || "$dst" != "$A" || "$src" != "$B" ]] || first_ab="$out"
        done
    done
    da="$("$BIN/optrep" "$A" digest)"
    db="$("$BIN/optrep" "$B" digest)"
    dc="$("$BIN/optrep" "$C" digest)"
    if [[ "$da" == "$db" && "$db" == "$dc" ]]; then
        converged="$da"
        echo "converged after round $round: digest $da"
        break
    fi
done
if [[ -z "$converged" ]]; then
    echo "FAIL: digests diverge after 4 rounds: A=$da B=$db C=$dc" >&2
    exit 1
fi

# Every replica serves every key; the tombstone replicated.
for node in "$A" "$B" "$C"; do
    [[ "$("$BIN/optrep" "$node" get alpha)" == "from-a" ]]
    [[ "$("$BIN/optrep" "$node" get beta)" == "from-b" ]]
    [[ "$("$BIN/optrep" "$node" get delta)" == "from-c" ]]
    [[ "$("$BIN/optrep" "$node" get gamma)" == "(nil)" ]]
done
echo "all keys served by all replicas"

# Connection reuse: every daemon synced from its two peers repeatedly,
# so its pool families must read exactly 2 dials with strictly more
# contacts — repeated syncs pipeline over one persistent connection per
# peer instead of re-dialing. One extra sweep first so the assertion
# holds even if the mesh converged in a single round. `status_field
# <line> <name>` extracts one counter from a `sync` report line;
# `prom_value <file> <sample>` extracts one sample value from an
# `optrep <node> metrics` scrape.
status_field() {
    awk -v want="$2" '{for (i = 1; i < NF; i++) if ($i == want) print $(i + 1)}' <<<"$1"
}
prom_value() {
    awk -v want="$2" '$1 == want { print $2 }' "$1"
}
for dst in "$A" "$B" "$C"; do
    for src in "$A" "$B" "$C"; do
        [[ "$dst" == "$src" ]] || "$BIN/optrep" "$dst" sync "$src" >/dev/null
    done
done
for node in "$A" "$B" "$C"; do
    "$BIN/optrep" "$node" metrics >"$WORK/reuse.prom"
    dials="$(prom_value "$WORK/reuse.prom" optrep_pool_dials_total)"
    contacts="$(prom_value "$WORK/reuse.prom" optrep_pool_contacts_total)"
    live="$(prom_value "$WORK/reuse.prom" optrep_conn_live)"
    if [[ "$dials" != 2 || "$contacts" -le "$dials" || "$live" != 2 ]]; then
        echo "FAIL: $node re-dialed instead of reusing connections:" \
             "dials $dials contacts $contacts live $live" >&2
        exit 1
    fi
done
echo "connection reuse verified: 2 dials per daemon, contacts pipelined over them"

# Sync planner: the fleet is converged, so an immediate re-pull must
# skip every shard — the opening digest exchange alone proves there is
# nothing to move (contacts cost O(dirty), not O(n)). The planner's
# verdict counters surface both in the sync report and in `metrics`.
sync_out="$("$BIN/optrep" "$A" sync "$B")"
shards="$(status_field "$sync_out" shards)"
skipped="$(status_field "$sync_out" skipped)"
digest_bytes="$(status_field "$sync_out" digest-bytes)"
examined="$(status_field "$sync_out" examined)"
refined="$(status_field "$sync_out" refined)"
digests="$(status_field "$sync_out" digests)"
# Two frames, digest vector and plan, are all that moves: nothing is
# examined, and with no dirty shard there are no children to offer.
if [[ -z "$shards" || "$shards" == 0 || "$skipped" != "$shards" \
      || "$digest_bytes" -le 0 || "$examined" != 0 || "$refined" != 0 ]]; then
    echo "FAIL: converged re-pull did not skip all shards: $sync_out" >&2
    exit 1
fi
# And the vector crossed A's connection to B once: A's store has not
# changed since its last pull from B, so the opening frame ships no
# shard digest at all — a delta against what that pull sent — where the
# first pull over the fresh dial shipped all of them, in more bytes.
first_digests="$(status_field "$first_ab" digests)"
first_bytes="$(status_field "$first_ab" digest-bytes)"
if [[ "$digests" != "0/$shards" || "$first_digests" != "$shards/$shards" \
      || "$digest_bytes" -ge "$first_bytes" ]]; then
    echo "FAIL: converged re-pull re-sent its digest vector:" \
         "first pull [$first_ab] re-pull [$sync_out]" >&2
    exit 1
fi
"$BIN/optrep" "$A" metrics >"$WORK/planner.prom"
planner_skipped="$(prom_value "$WORK/planner.prom" optrep_planner_shards_skipped_total)"
if [[ "$planner_skipped" -lt "$shards" ]]; then
    echo "FAIL: optrep_planner_shards_skipped_total ($planner_skipped) below the" \
         "$shards shards just skipped" >&2
    exit 1
fi
echo "planner verified: converged re-pull skipped all $shards shards" \
     "(digests $digests, exchange $digest_bytes bytes; first pull $first_bytes)"

# The source proposes the scope: one key moves on at B, and the next
# pulls over A's and C's warm connections to it are told which — B's
# change journal reaches back to the generation it planned their last
# pulls at — so the one dirty shard is proposed, its residual matches
# (nothing else differs), and the one key is all that is examined. The
# planner frames of such a pull are a fraction of a fresh dial's.
"$BIN/optrep" "$B" put bulk-7 moved-on
for dst in "$A" "$C"; do
    warm_out="$("$BIN/optrep" "$dst" sync "$B")"
    proposed="$(status_field "$warm_out" proposed)"
    refused="$(status_field "$warm_out" "(refused")"
    examined="$(status_field "$warm_out" examined)"
    warm_bytes="$(status_field "$warm_out" digest-bytes)"
    if [[ "$proposed" != 1 || "$refused" != "0)" || "$examined" != 1 \
          || "$warm_bytes" -ge "$first_bytes" ]]; then
        echo "FAIL: warm pull of one key was not proposed its scope:" \
             "[$warm_out] (fresh dial: [$first_ab])" >&2
        exit 1
    fi
done
"$BIN/optrep" "$A" metrics >"$WORK/planner.prom"
proposed_total="$(prom_value "$WORK/planner.prom" optrep_planner_shards_proposed_total)"
refused_total="$(prom_value "$WORK/planner.prom" optrep_planner_shards_refused_total)"
if [[ "$proposed_total" -lt 1 || "$refused_total" != 0 ]]; then
    echo "FAIL: metrics do not count the proposal:" \
         "proposed $proposed_total refused $refused_total" >&2
    exit 1
fi
echo "proposals verified: one put at B, one key examined by each puller" \
     "($warm_bytes planner bytes against a fresh dial's $first_bytes)"

# Metrics: scrape every daemon with `optrep metrics`, validate the
# Prometheus exposition offline, and cross-check independent counts in
# it — the latency histogram and the wire-bytes histogram (fed from
# each pull's report) must both have seen exactly the contacts the
# connection pool completed (`optrep_pool_contacts_total`), and the four
# per-plane byte counters must sum to the wire-bytes histogram total
# (byte conservation, metrics edition). Summed over the three daemons,
# the reconciliations must include the conflict on "shared".
reconciliations=0
for pair in "A $A" "B $B" "C $C"; do
    site="${pair%% *}"
    node="${pair#* }"
    scrape="$WORK/$site.prom"
    "$BIN/optrep" "$node" metrics >"$scrape"
    "$BIN/tables" --check-prom "$scrape"
    pool_contacts="$(prom_value "$scrape" optrep_pool_contacts_total)"
    latency_count="$(prom_value "$scrape" optrep_contact_micros_count)"
    wire_count="$(prom_value "$scrape" optrep_contact_wire_bytes_count)"
    wire_sum="$(prom_value "$scrape" optrep_contact_wire_bytes_sum)"
    bytes=$(( $(prom_value "$scrape" optrep_compare_bytes_total) \
            + $(prom_value "$scrape" optrep_meta_bytes_total) \
            + $(prom_value "$scrape" optrep_framing_bytes_total) \
            + $(prom_value "$scrape" optrep_payload_bytes_total) ))
    if [[ -z "$pool_contacts" || "$latency_count" != "$pool_contacts" \
          || "$wire_count" != "$pool_contacts" ]]; then
        echo "FAIL: $site contact histograms disagree with the pool on contacts:" \
             "pool=$pool_contacts latency=$latency_count wire=$wire_count" >&2
        exit 1
    fi
    reconciliations=$(( reconciliations + $(prom_value "$scrape" optrep_reconciliations_total) ))
    if [[ "$bytes" != "$wire_sum" || "$bytes" -le 0 ]]; then
        echo "FAIL: $site byte counters ($bytes) != wire-bytes histogram" \
             "sum ($wire_sum)" >&2
        exit 1
    fi
    # The planner's eight families (skipped, incremental, snapshot,
    # refined, proposed, refused, digest bytes, digests sent), and at
    # least one digest on the books: every daemon's first pull shipped
    # a whole vector. No proposal was refused — nobody wrote behind a
    # puller's back — and every journal reaches back to its first write.
    planner_families="$(grep -c '^# TYPE optrep_planner_' "$scrape")"
    digests_sent="$(prom_value "$scrape" optrep_planner_digests_sent_total)"
    refused_total="$(prom_value "$scrape" optrep_planner_shards_refused_total)"
    floor_lag="$(prom_value "$scrape" optrep_store_journal_floor_lag)"
    generation="$(prom_value "$scrape" optrep_store_generation)"
    if [[ "$planner_families" != 8 || -z "$digests_sent" || "$digests_sent" -le 0 \
          || "$refused_total" != 0 || -z "$floor_lag" || "$floor_lag" != "$generation" ]]; then
        echo "FAIL: $site exposes $planner_families planner families," \
             "digests sent [$digests_sent] refused [$refused_total]" \
             "journal floor lag [$floor_lag] of generation [$generation]" >&2
        exit 1
    fi
    # What this daemon built to serve the pulls made of it: the
    # histogram takes one sample per endpoint built, and every daemon
    # here has been pulled from.
    endpoints="$(prom_value "$scrape" optrep_serving_endpoint_keys_count)"
    endpoint_keys="$(prom_value "$scrape" optrep_serving_endpoint_keys_sum)"
    if [[ -z "$endpoints" || "$endpoints" -le 0 || -z "$endpoint_keys" ]]; then
        echo "FAIL: $site served [$endpoints] endpoints of [$endpoint_keys] keys" >&2
        exit 1
    fi
done
if [[ "$reconciliations" -lt 1 ]]; then
    echo "FAIL: no daemon counted a reconciliation of the conflict on \"shared\"" >&2
    exit 1
fi
echo "metrics verified: exposition parses, contact counts match the pool's, bytes conserve," \
     "$reconciliations reconciliation(s)"

# The fleet view renders one table over all three daemons.
top="$("$BIN/optrep" top --iters 1 "$A" "$B" "$C")"
if [[ "$(grep -c . <<<"$top")" != 4 ]] || grep -q unreachable <<<"$top" \
    || ! grep -q "P99(MS)" <<<"$top"; then
    echo "FAIL: optrep top did not render all three daemons:" >&2
    echo "$top" >&2
    exit 1
fi
echo "optrep top rendered the fleet"

# Durability under fire: SIGKILL daemon B mid-gossip, restart it on the
# same data dir, and require the three digests to agree again — the
# recovered daemon must reboot to exactly its committed state (whole
# final contact or none; never a partial one) and then catch up.
"$BIN/optrep" "$A" put epsilon pre-crash-a
"$BIN/optrep" "$C" put zeta pre-crash-c
(
    # Gossip traffic for the kill to land in the middle of.
    for _ in $(seq 200); do
        "$BIN/optrep" "$B" sync "$A" >/dev/null 2>&1 || true
        "$BIN/optrep" "$B" sync "$C" >/dev/null 2>&1 || true
    done
) &
GOSSIP=$!
sleep 0.1
kill -9 "$(cat "$WORK/B.pid")"
kill "$GOSSIP" 2>/dev/null || true
wait "$GOSSIP" 2>/dev/null || true
B="$(start B)"
if ! grep -q ' recovered ' "$WORK/B.log"; then
    echo "FAIL: restarted B printed no recovery line; log:" >&2
    cat "$WORK/B.log" >&2
    exit 1
fi
converged=""
for round in 1 2 3 4; do
    for dst in "$A" "$B" "$C"; do
        for src in "$A" "$B" "$C"; do
            [[ "$dst" == "$src" ]] || "$BIN/optrep" "$dst" sync "$src" >/dev/null
        done
    done
    da="$("$BIN/optrep" "$A" digest)"
    db="$("$BIN/optrep" "$B" digest)"
    dc="$("$BIN/optrep" "$C" digest)"
    if [[ "$da" == "$db" && "$db" == "$dc" ]]; then
        converged="$da"
        break
    fi
done
if [[ -z "$converged" ]]; then
    echo "FAIL: digests diverge after kill -9 recovery: A=$da B=$db C=$dc" >&2
    exit 1
fi
[[ "$("$BIN/optrep" "$B" get epsilon)" == "pre-crash-a" ]]
[[ "$("$BIN/optrep" "$B" get zeta)" == "pre-crash-c" ]]
echo "kill -9 recovery verified: B rebooted from its WAL and the fleet reconverged"

# A cold join across processes. A takes a thousand 256-byte values, so
# that a joiner's commit is one WAL record several 64 KiB chunks long.
# A fourth durable daemon D starts on an empty data dir and pulls from
# A: every shard of A holds keys, and each must arrive as a snapshot,
# moved into D's store whole and logged in that one streamed record. D
# is killed with SIGKILL once the sync returns and restarted on its data
# dir: it must recover the record and A's digest.
value="$(printf 'j%.0s' $(seq 256))"
for batch in 0 1 2 3; do
    # shellcheck disable=SC2046 # one verb per word group is the point
    "$BIN/optrep" "$A" $(for i in $(seq $((batch * 250 + 1)) $((batch * 250 + 250))); do
        printf 'put join-%d %s ' "$i" "$value"
    done) >/dev/null
done
D="$(start D)"
join_out="$("$BIN/optrep" "$D" sync "$A")"
join_shards="$(status_field "$join_out" shards)"
join_snapshot="$(status_field "$join_out" snapshot)"
join_incremental="$(status_field "$join_out" incremental)"
"$BIN/optrep" "$D" metrics >"$WORK/join.prom"
join_wal="$(prom_value "$WORK/join.prom" optrep_wal_bytes_total)"
if [[ -z "$join_shards" || "$join_snapshot" != "$join_shards" || "$join_incremental" != 0 \
      || "$join_wal" -le $((3 * 65536)) ]]; then
    echo "FAIL: the join did not bulk-load every shard into one long record:" \
         "[$join_out] wal-bytes $join_wal" >&2
    exit 1
fi
kill -9 "$(cat "$WORK/D.pid")"
D="$(start D)"
recovered="$(grep ' recovered ' "$WORK/D.log" || true)"
dd="$("$BIN/optrep" "$D" digest)"
da="$("$BIN/optrep" "$A" digest)"
if [[ -z "$recovered" || "$dd" != "$da" ]]; then
    echo "FAIL: the joiner did not recover A's state after kill -9:" \
         "digest $dd against A's $da; log:" >&2
    cat "$WORK/D.log" >&2
    exit 1
fi
echo "cold join verified: $join_snapshot snapshot shards in a $join_wal-byte log," \
     "recovered after kill -9 to A's digest ($recovered)"

# stop <site>...: stops the daemons gracefully (SIGTERM): each writes a
# final checkpoint, fsyncs its WAL, and flushes its trace before exiting.
# The daemons are not this shell's children (start ran in a subshell),
# so poll for exit instead of `wait`.
stop() {
    local site
    for site in "$@"; do
        kill "$(cat "$WORK/$site.pid")" 2>/dev/null || true
    done
    for site in "$@"; do
        for _ in $(seq 100); do
            kill -0 "$(cat "$WORK/$site.pid")" 2>/dev/null || break
            sleep 0.05
        done
    done
}
stop A B C D

# A boot from the snapshot alone, at shard counts it was not written at:
# D's stop wrote a final checkpoint, so each restart reads that snapshot,
# builds every shard whole from it, and replays nothing. Each must answer
# with A's digest (read above, before A stopped) and is stopped again.
for shards in 512 1; do
    D="$(OPTREP_KV_SHARDS=$shards start D)"
    booted="$(grep ' recovered ' "$WORK/D.log" || true)"
    dd="$("$BIN/optrep" "$D" digest)"
    if [[ "$booted" != *"wal 0 applied"* || "$dd" != "$da" ]]; then
        echo "FAIL: D booted from its snapshot at $shards shards to digest $dd" \
             "against A's $da; log:" >&2
        cat "$WORK/D.log" >&2
        exit 1
    fi
    stop D
    echo "snapshot boot verified with OPTREP_KV_SHARDS=$shards: $booted"
done

# Then validate each trace.
for site in A B C D; do
    "$BIN/tables" --check-jsonl "$WORK/$site.jsonl"
done
echo "smoke test passed: 3-node convergence + kill -9 recovery + a cold join" \
     "recovered after kill -9 + snapshot boots at 512 and 1 shards + 4 validated traces"
