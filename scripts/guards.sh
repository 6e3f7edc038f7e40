#!/usr/bin/env bash
# The offline guards CI runs, one function each, so that they can run
# before a change lands as they run in CI. Each body is the shell of its
# CI step, unchanged; CI calls this script once a step, under the same
# step names.
#
# Usage, from the root of a git checkout:
#   bash scripts/guards.sh          # every guard; exit 1 if any fails
#   bash scripts/guards.sh deleted  # one guard, by its name below
#
# Each guard runs in a subshell under `set -e`, as a CI step does, and
# prints what it found; the run ends with one line a guard.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# No source file of core, kv, replication, server, net, bench or workloads above 1 000 lines.
guard_lines() {
long="$(find crates/{core,kv,replication,server,net,bench,workloads}/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')"
if [ -n "$long" ]; then echo "$long"; exit 1; fi
}

# The in-process host stays single-threaded and never sleeps.
guard_single_thread() {
if grep -rnE 'thread|Mutex|Atomic|sleep|OPTREP_ENGINE_WORKERS' crates/replication/src; then exit 1; fi
}

# What was deleted stays deleted. The one line that differs from the
# step's shell CI ran before this script held it is the exclusion of this
# file, whose list two `scripts` patterns would otherwise find.
guard_deleted() {
fail=0
while read -r pathspec mode pattern; do
  if git grep -n "$mode" "$pattern" -- "$pathspec" ':!scripts/guards.sh'; then fail=1; fi
done <<'LIST'
*.rs -E feature *= *"obs"|cfg!\(feature
*.rs -G metrics_events
*.rs -E sync_planned|Transport::Mux|contact_faulty|WirePayload
*.rs -E SyncOptions|run_timed|sync_(brv|crv|srv|full|graph)_opts|sync_from_opts|net::mem|run_pair_stream|PeerFailed
*.rs -E Intent::Pull|Endpoint\(None\)|with_intent|fn server_endpoint\(|with_max_frame|supports_session
*.rs -E StatusInfo|Request::Status|Response::Status|REQ_STATUS|RESP_STATUS|set_metrics|with_metrics|appended_bytes
scripts -G status)"
*.rs -E sleep_watching|ACCEPT_POLL|with_retry
*.rs -E MetricsSink|metrics_sink|RetryPolicy|register_(counter|gauge|histogram)|ClusterStats
*.rs -E optrep_(sessions|session_aborts|retries|conflicts|delta|gamma|skips|contacts)_total|optrep_session_(delta|gamma)
scripts -E optrep_(sessions|session_aborts|retries|conflicts|delta|gamma|skips|contacts)_total|optrep_session_(delta|gamma)
*.rs -E shards_refused|optrep_planner_shards_refused_total|fn refuses\(
scripts -E shards_refused|optrep_planner_shards_refused_total|fn refuses
*.rs -E struct Proposal|put_proposal|Candidates|fn residuals\(
*.rs -E optrep_bench::jsonl|fn check_jsonl|parse_document
*.rs -E PUSHED_COMPARE_BYTES|PROPOSAL_BYTES
*.rs -E fn sift\(|fn hear_pushed\(|a_pushed_stream_hands_over_what_it_implies
*.rs -E fn take_key\(
*.rs -E snapshots: Vec<\(u64, Bytes\)>|images: BTreeMap<u64, Vec<Record
*.rs -E control_frame\(&[a-z_.]*encode\(\)|pub changed: Vec<String>|const READ_BUF
*.rs -E TAG_SHARD_PLAN_PROPOSED|fn decode_proposals
*.rs -E fn apply_encoded_entries|struct Runs|fn unordered\(|fn recode_field|canonical: bool
*.rs -E fn take_value\(|State::canonical|fn vector_field\(|write_state\(&mut refused|fn entry_reach\(buf: &\[u8\], after
*.rs -E struct Record<|fn write_state\(|fn encoded_len\(key|fn record_len\(|fn key_at\(|New::Copy|fn encoded_entry\(|fn written_vector\(
*.rs -E TAG_BATCH_PUSH|BatchPush|fn write_push|fn push_len|fn push_frames|fn on_pushed_frame|fn on_pushed\(
*.rs -E fn stage_snapshots\(|enum Staged|type StagedKey
LIST
exit $fail
}

# The daemon core does no I/O.
guard_core_io() {
if grep -nE 'std::thread|sleep|Instant::now|std::fs|TcpStream|TcpListener|ConnPool' crates/server/src/node/core.rs; then exit 1; fi
}

# No rand/proptest/criterion dependency, one SplitMix64.
guard_one_rng() {
if grep -nwE 'rand|proptest|criterion' $(git ls-files '*Cargo.toml' | grep -v '^crates/perf/standins/'); then exit 1; fi
test "$(git grep -l '0x9e37_79b9_7f4a_7c15' -- '*.rs' ':!crates/perf' | wc -l)" = 1
}

# One spin: only the reactor polls before it blocks.
guard_one_spin() {
if git grep -nE 'yield_now|spin_loop' -- '*.rs' ':!crates/net/src/reactor.rs'; then exit 1; fi
}

# One counting allocator: `optrep_core::hostile::Counting`, which every
# heap test and the hostile-bytes harness install.
guard_one_allocator() {
test "$(git grep -l 'GlobalAlloc for' -- '*.rs' | wc -l)" = 1
}

# One hash of bytes: FNV-1a's prime only in `optrep_core::rng`'s fold
# and the shard map's FNV-1a (`planner::placement`, in planner/mod.rs).
guard_one_fold() {
if git grep -nEi '0x[0_]*1[0_]+1b3|1099511628211' -- '*.rs' ':!crates/perf' ':!crates/core/src/rng.rs' ':!crates/replication/src/planner/mod.rs'; then exit 1; fi
}

guards=(lines single_thread deleted core_io one_rng one_spin one_allocator one_fold)

# Runs guard `$1` as a CI step runs its shell; returns its status.
run() {
    ( set -e; "guard_$1" )
}

if [ $# -gt 0 ]; then
    for name in "$@"; do
        case " ${guards[*]} " in
            *" $name "*) run "$name" || exit 1 ;;
            *) echo "scripts/guards.sh: unknown guard \"$name\"; known: ${guards[*]}" >&2; exit 2 ;;
        esac
    done
    exit 0
fi
failed=0
for name in "${guards[@]}"; do
    if run "$name"; then
        echo "guard $name: ok"
    else
        echo "guard $name: FAILED"
        failed=1
    fi
done
exit $failed
