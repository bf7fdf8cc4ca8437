#!/usr/bin/env bash
# End-to-end smoke test for the dqgen / dqaudit command-line tools:
# generate a benchmark database, pollute it, audit it, persist the structure
# model, and re-check against the persisted model.
set -euo pipefail

DQGEN="$1"
DQAUDIT="$2"
SPEC="$3"
TESTDATA="${4:-$(dirname "$SPEC")}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$DQGEN" --schema "$SPEC" --records 3000 --rules 12 --seed 5 \
  --clean "$WORK/clean.csv" --dirty "$WORK/dirty.csv" \
  --log "$WORK/corruption.log" --truth "$WORK/truth.csv" --print-rules \
  > "$WORK/gen.out"
grep -q "generated 3000 records" "$WORK/gen.out"
grep -q "polluted" "$WORK/gen.out"
grep -q "rule: " "$WORK/gen.out"
test -s "$WORK/clean.csv"
test -s "$WORK/dirty.csv"
test -s "$WORK/corruption.log"
head -1 "$WORK/truth.csv" | grep -q "row,corrupted,origin"

"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
  --min-conf 0.8 --top 5 --explain 1 --rules --summary --threads 2 \
  --save-model "$WORK/model.dqmodel" --corrected "$WORK/corrected.csv" \
  --report "$WORK/report.csv" \
  > "$WORK/audit.out"
grep -q "audited [0-9]* records" "$WORK/audit.out"
grep -q "timings (threads=" "$WORK/audit.out"
grep -q "induction time per attribute" "$WORK/audit.out"
head -1 "$WORK/report.csv" | grep -q "rank,row,error_confidence"
grep -q "loaded [0-9]* records" "$WORK/audit.out"
grep -q "suspicious at minimal error confidence" "$WORK/audit.out"
grep -q "persisted" "$WORK/audit.out"
test -s "$WORK/model.dqmodel"
head -1 "$WORK/model.dqmodel" | grep -qx "dqmodel v2"
test -s "$WORK/corrected.csv"

"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
  --load-model "$WORK/model.dqmodel" --min-conf 0.8 --top 3 --threads 2 \
  > "$WORK/check.out"
grep -q "checked against" "$WORK/check.out"

# --load-model shares the classic tail: --report, --corrected and --summary
# are honoured, and the check is identical for every --threads value.
# Relative output names keep the two stdouts comparable byte for byte.
for t in 1 4; do
  mkdir "$WORK/check_t$t"
  ( cd "$WORK/check_t$t" &&
    "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
      --load-model "$WORK/model.dqmodel" --min-conf 0.8 --top 100000 \
      --threads "$t" --report report.csv --corrected corrected.csv \
      --summary > check.out )
done
cmp "$WORK/check_t1/check.out" "$WORK/check_t4/check.out"
cmp "$WORK/check_t1/report.csv" "$WORK/check_t4/report.csv"
cmp "$WORK/check_t1/corrected.csv" "$WORK/check_t4/corrected.csv"
test -s "$WORK/check_t1/corrected.csv"
grep -q "wrote ranked report to report.csv" "$WORK/check_t1/check.out"
grep -q "wrote corrected table to corrected.csv" "$WORK/check_t1/check.out"
FLAGGED=$(grep -o "[0-9]* suspicious records" "$WORK/check_t1/check.out" | cut -d' ' -f1)
REPORTED=$(($(wc -l < "$WORK/check_t1/report.csv") - 1))
if [ "$REPORTED" -ne "$FLAGGED" ]; then
  echo "--load-model report has $REPORTED rows, stdout says $FLAGGED" >&2
  exit 1
fi

# A saved model is the in-process model: checking through --save-model ->
# --load-model writes the report the in-process audit wrote, byte for
# byte. The polluted QUIS table has nulls on split attributes (C4.5 routes
# them fractionally down every branch; at both confidences some flagged
# record's verdict depends on it) and is checked at two confidences, two
# thread counts, as CSV and dqcol, with and without a spilling budget.
QUIS_SPEC="$(dirname "$SPEC")/quis_full.spec"
"$DQGEN" --quis --records 20000 --seed 6 --clean "$WORK/pq_clean.csv" \
  --dirty "$WORK/pq.csv" > /dev/null
"$DQGEN" --quis --records 20000 --seed 6 --clean "$WORK/pq_clean2.csv" \
  --dirty "$WORK/pq.dqcol" > /dev/null
for conf in 0.5 0.8; do
  for t in 1 4; do
    for input in pq.csv pq.dqcol; do
      for budget in "" "--memory-budget 64K --segment-rows 500"; do
        run="$WORK/parity_${conf}_${t}_${input}_${budget:+budget}"
        mkdir -p "$run"
        # shellcheck disable=SC2086
        "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/$input" \
          --min-conf "$conf" --threads "$t" --top 0 $budget \
          --spill-dir "$run/spill" --save-model "$run/model.dqmodel" \
          --report "$run/audit.csv" > "$run/audit.out"
        # shellcheck disable=SC2086
        "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/$input" \
          --load-model "$run/model.dqmodel" --min-conf "$conf" \
          --threads "$t" --top 0 $budget --spill-dir "$run/spill" \
          --report "$run/check.csv" > "$run/check.out"
        cmp "$run/audit.csv" "$run/check.csv"
        AUDIT_N=$(grep -o "^[0-9]* of [0-9]* records suspicious" \
          "$run/audit.out" | cut -d' ' -f1)
        grep -q "checked against [0-9]* persisted rules: $AUDIT_N suspicious" \
          "$run/check.out"
        cmp "$WORK/parity_${conf}_1_pq.csv_/model.dqmodel" \
          "$run/model.dqmodel"
      done
    done
  done
done

# A dqmodel v1 file (rule text without branch weights) is refused with a
# message, not misread.
printf 'dqmodel v1\nattrset 0 nominal\nend\n' > "$WORK/v1.dqmodel"
if "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
    --load-model "$WORK/v1.dqmodel" > /dev/null 2> "$WORK/v1.err"; then
  echo "a dqmodel v1 file was accepted" >&2
  exit 1
fi
grep -q "dqmodel v1 is no longer read" "$WORK/v1.err"
grep -q "re-save" "$WORK/v1.err"

# Expert-written rule files drive the generator directly.
RULES="$(dirname "$SPEC")/parts.rules"
"$DQGEN" --schema "$SPEC" --records 2000 --rules-file "$RULES" --seed 8 \
  --clean "$WORK/expert_clean.csv" --print-rules > "$WORK/expert.out"
grep -q "rule: GROUP = G1 -> FAMILY = F2" "$WORK/expert.out"
grep -q "generated 2000 records following 4 rules" "$WORK/expert.out"

# The generator can verify its own output round-trips bitwise through the
# streaming reader.
"$DQGEN" --schema "$SPEC" --records 1500 --rules 8 --seed 9 \
  --clean "$WORK/rt_clean.csv" --dirty "$WORK/rt_dirty.csv" \
  --verify-roundtrip --ingest-report "$WORK/rt_ingest.json" \
  > "$WORK/rt.out"
grep -c "round-trip verified" "$WORK/rt.out" | grep -qx 2
grep -q '"records_quarantined": 0' "$WORK/rt_ingest.json"

# Dirty ingestion: strict mode refuses the shipped malformed extract ...
DIRTY_SPEC="$TESTDATA/quis.spec"
DIRTY_CSV="$TESTDATA/quis_dirty.csv"
if "$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --top 3 \
    > /dev/null 2>&1; then
  echo "strict mode accepted the malformed extract" >&2
  exit 1
fi
# ... while quarantine-and-continue audits the survivors and reports
# exactly the injected records.
"$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error skip \
  --ingest-report "$WORK/ingest.json" --top 3 > "$WORK/dirty.out" \
  2> "$WORK/dirty.err"
grep -q "loaded 30 records" "$WORK/dirty.out"
grep -q "quarantined 4 of 34 records" "$WORK/dirty.out"
grep -q "suspicious at minimal error confidence" "$WORK/dirty.out"
grep -q "ingest [0-9.]* ms" "$WORK/dirty.out"
grep -q '"records_quarantined": 4' "$WORK/ingest.json"
grep -q '"arity-mismatch": 1' "$WORK/ingest.json"
grep -q '"stray-quote": 1' "$WORK/ingest.json"
grep -q '"bad-value": 1' "$WORK/ingest.json"
grep -q '"unterminated-quote": 1' "$WORK/ingest.json"

# The quarantine report is identical for every thread count (timings and
# thread counts aside).
"$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error skip \
  --ingest-report "$WORK/ingest_t4.json" --threads 4 --top 3 > /dev/null 2>&1
grep -v -e parse_ms -e threads_used "$WORK/ingest.json" > "$WORK/i1"
grep -v -e parse_ms -e threads_used "$WORK/ingest_t4.json" > "$WORK/i4"
diff "$WORK/i1" "$WORK/i4"

# A failed ingest still writes its --ingest-report, with or without a
# memory budget: strict mode stops at the first malformed record and the
# report names it.
for budget in "" "--memory-budget 64K"; do
  rm -f "$WORK/failed_ingest.json"
  # shellcheck disable=SC2086
  if "$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error fail \
      --ingest-report "$WORK/failed_ingest.json" $budget --top 3 \
      > /dev/null 2>&1; then
    echo "strict mode accepted the malformed extract ($budget)" >&2
    exit 1
  fi
  grep -q '"records_quarantined": 1' "$WORK/failed_ingest.json"
  grep -q '"arity-mismatch": 1' "$WORK/failed_ingest.json"
done

# --- One pipeline: every option composes with --memory-budget ---
# Each option runs twice over a 20k-row input: without a budget, and under a
# spilling budget whose sample covers the input. Reports, corrected tables
# and models must be identical, and so must stdout apart from the lines that
# name the mode (loaded / streamed / memory budget / induced on) and the
# timing figures.
"$DQGEN" --schema "$SPEC" --records 20000 --rules 12 --seed 5 \
  --clean "$WORK/c20k.csv" --dirty "$WORK/d20k.csv" > /dev/null
compose() {
  local name="$1"; shift
  local dir="$WORK/compose_$name"
  mkdir -p "$dir/plain" "$dir/budget"
  ( cd "$dir/plain" &&
    "$DQAUDIT" --schema "$SPEC" --data "$WORK/d20k.csv" --min-conf 0.8 \
      --top 5 --threads 2 --report report.csv "$@" > out.txt )
  ( cd "$dir/budget" &&
    "$DQAUDIT" --schema "$SPEC" --data "$WORK/d20k.csv" --min-conf 0.8 \
      --top 5 --threads 2 --report report.csv "$@" --memory-budget 64K \
      --segment-rows 500 --sample-rows 100000 --spill-dir spill > out.txt )
  grep -qE ' [1-9][0-9]* spill writes' "$dir/budget/out.txt"
  test ! -e "$dir/budget/spill"
  cmp "$dir/plain/report.csv" "$dir/budget/report.csv"
  for f in corrected.csv model.dqmodel; do
    if [ -e "$dir/plain/$f" ]; then cmp "$dir/plain/$f" "$dir/budget/$f"; fi
  done
  local mode='^(loaded|streamed|memory budget|induced on|timings) |^  [^ ]+ +[0-9.]+ ms$'
  diff <(grep -vE "$mode" "$dir/plain/out.txt") \
       <(grep -vE "$mode" "$dir/budget/out.txt")
}
compose train --train "$WORK/c20k.csv" --save-model model.dqmodel
grep -q "induced on 20000 sampled records" "$WORK/compose_train/budget/out.txt"
compose load-model --load-model "$WORK/compose_train/plain/model.dqmodel"
grep -q "checked against" "$WORK/compose_load-model/budget/out.txt"
compose corrected --corrected corrected.csv --save-model model.dqmodel
test -s "$WORK/compose_corrected/budget/corrected.csv"
compose rules-file --rules-file "$(dirname "$SPEC")/parts.rules"
grep -q "expert rules: 4 rules" "$WORK/compose_rules-file/budget/out.txt"
compose explain --explain 3
test "$(grep -c '^record ' "$WORK/compose_explain/budget/out.txt")" -eq 3
compose summary --summary
grep -q "audited [0-9]* records" "$WORK/compose_summary/budget/out.txt"

# --- Flag validation: malformed values are rejected with a diagnostic ---
# (not silently parsed as 0 the way atoi would).
expect_flag_error() {
  local needle="$1"; shift
  local rc=0
  "$@" > /dev/null 2> "$WORK/flag.err" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "accepted malformed flag: $*" >&2
    exit 1
  fi
  if ! grep -q "$needle" "$WORK/flag.err"; then
    echo "missing diagnostic '$needle' for: $*" >&2
    cat "$WORK/flag.err" >&2
    exit 1
  fi
}

expect_flag_error "invalid value 'abc' for --threads" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --threads abc
expect_flag_error "out of range" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --min-conf 1.5
expect_flag_error "expected a byte count" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --memory-budget 64Q
expect_flag_error "expected a byte count" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --memory-budget -5
expect_flag_error "invalid value '10x' for --records" \
  "$DQGEN" --schema "$SPEC" --records 10x --clean "$WORK/x.csv"
expect_flag_error "invalid value 'junk' for --seed" \
  "$DQGEN" --schema "$SPEC" --records 100 --seed junk --clean "$WORK/x.csv"
# Zero and negative thread counts are normalized to the hardware default,
# not rejected.
"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --threads -3 --top 1 \
  > "$WORK/tneg.out"
grep -q "records suspicious at minimal error confidence" "$WORK/tneg.out"

# --- Out-of-core path: chunked generation + memory-budgeted audit ---
"$DQGEN" --quis --records 6000 --seed 11 --clean "$WORK/quis.csv" \
  > /dev/null
"$DQGEN" --quis --records 6000 --seed 11 --chunk-rows 700 \
  --clean "$WORK/quis_chunked.csv" > "$WORK/chunkgen.out"
grep -q "generated 6000 QUIS engine-composition records in chunks of 700" \
  "$WORK/chunkgen.out"
# Chunked emission is bitwise identical to the one-shot table.
cmp "$WORK/quis.csv" "$WORK/quis_chunked.csv"

"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/quis.csv" --min-conf 0.8 \
  --top 3 --report "$WORK/quis_classic.csv" > /dev/null
# Tiny budget + small segments: the audit must spill and still produce an
# identical ranked report.
"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/quis.csv" --min-conf 0.8 \
  --top 3 --memory-budget 64K --segment-rows 500 \
  --spill-dir "$WORK/quis.spill" --report "$WORK/quis_stream.csv" \
  > "$WORK/stream.out"
grep -q "streamed 6000 records" "$WORK/stream.out"
grep -q "memory budget" "$WORK/stream.out"
cmp "$WORK/quis_classic.csv" "$WORK/quis_stream.csv"
# Spill files are scratch: gone once the audit exits.
if [ -e "$WORK/quis.spill" ]; then
  echo "spill dir survived the audit" >&2
  exit 1
fi
# Concurrent budgeted audits of one input share its default spill root
# (<data>.spill); each spills into its own run directory, so both succeed,
# agree, and leave no spill root behind. Three rounds over a 30k-row input
# make the runs overlap long enough for a shared spill file to be deleted
# under the slower one.
"$DQGEN" --quis --records 30000 --seed 11 --clean "$WORK/race.csv" \
  > /dev/null
race_audit() {
  "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/race.csv" --min-conf 0.8 \
    --top 3 --memory-budget 256K --segment-rows 1000 --report "$1" \
    > /dev/null
}
for round in 1 2 3; do
  race_audit "$WORK/race_1.csv" &
  RACE1=$!
  race_audit "$WORK/race_2.csv" &
  RACE2=$!
  wait "$RACE1"
  wait "$RACE2"
  cmp "$WORK/race_1.csv" "$WORK/race_2.csv"
done
if [ -e "$WORK/race.csv.spill" ]; then
  echo "shared spill root survived the concurrent audits" >&2
  exit 1
fi

# --- Compiled scoring: one ranking for every thread count ---
# The polluted 20k table has nulls on split attributes (routed fractionally
# down the compiled trees); its report is the same at 1 and 4 threads in
# both split modes.
for mode in histogram exact; do
  for t in 1 4; do
    "$DQAUDIT" --schema "$SPEC" --data "$WORK/d20k.csv" --min-conf 0.8 \
      --top 1 --split-mode "$mode" --threads "$t" \
      --report "$WORK/split_${mode}_t$t.csv" > /dev/null
  done
  cmp "$WORK/split_${mode}_t1.csv" "$WORK/split_${mode}_t4.csv"
done

# --- A sample capacity far beyond memory reserves nothing up front ---
# Under a 2 GB address-space limit, set in the audit's own subshell, a
# 3,000-row input is sampled whole instead of aborting on the reservation.
# Sanitizer runtimes reserve more address space than that at start-up, so
# their builds skip the case.
if ! ldd "$DQAUDIT" 2> /dev/null | grep -qE 'lib[at]san'; then
  ( ulimit -v 2000000 &&
    "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --min-conf 0.8 \
      --top 1 --memory-budget 64K --sample-rows 1000000000 \
      --spill-dir "$WORK/huge.spill" > "$WORK/huge.out" )
  grep -qE "induced on [0-9]+ sampled records" "$WORK/huge.out"
fi

echo "cli round trip OK ($AUDIT_N suspicious records)"
