#!/bin/sh
# A/A check: every workload twice on this commit (untraced and traced),
# then `compare` the two sets against the bounds in BENCHMARK.json.
# The two runs of a workload are neighbours in time, A then B.
#   SEED=2 ./aa.sh     the hold-out seed
#   SMOKE=1 ./aa.sh    tiny shapes, to try the plumbing
set -eu
cd "$(dirname "$0")"
run="cargo run --release --offline --quiet --"
mkdir -p out
rm -f out/aa-A.jsonl out/aa-B.jsonl
cargo build --release --offline
for workload in task-facescene task-attention sweep-cohort online-session; do
    for trace in 0 1; do
        for set in A B; do
            echo "== $workload trace $trace set $set"
            $run --workload "$workload" --trace "$trace" --seed "${SEED:-1}" \
                ${SMOKE:+--smoke} --record "out/aa-$set.jsonl" | tail -n 1
        done
    done
done
$run compare out/aa-A.jsonl out/aa-B.jsonl
