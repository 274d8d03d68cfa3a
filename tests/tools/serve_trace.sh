#!/usr/bin/env bash
# End-to-end acceptance for `pathsel_cli serve`: reader-count determinism,
# SIGKILL crash + --resume byte identity, torn-tail repair, and the
# --strict-updates exit contract.
#
# The crash contract: PATHSEL_TEST_CRASH_AFTER=N raises SIGKILL right after
# the N-th journal append — the record is durable, the in-memory apply never
# happened.  A resumed server must answer queries byte-identically to a
# server that cleanly applied exactly those N updates.  (The resumed run
# replays the journal, so its trace carries only the queries; re-submitting
# the updates would double-apply them.)
set -u

CLI="${1:?usage: serve_trace.sh <path-to-pathsel_cli>}"
TMP="$(mktemp -d)"
failures=0
cleanup() {
  if [[ "$failures" -eq 0 ]]; then
    rm -rf "$TMP"
  else
    echo "preserving serve state in $TMP for post-mortem" >&2
  fi
}
trap cleanup EXIT
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

DS="$TMP/uw3.ds"
"$CLI" generate --dataset UW3 --scale 0.05 --out "$DS" > /dev/null 2>&1 \
  || fail "dataset generation failed"

# Pick the two most-measured pairs from the dataset itself, so the trace
# survives catalog changes (host ids are not contiguous at small scales).
mapfile -t PAIRS < <(grep '^m ' "$DS" | awk '{print $3, $4}' | sort \
  | uniq -c | sort -rn | head -2 | awk '{print $2, $3}')
read -r A1 B1 <<< "${PAIRS[0]}"
read -r A2 B2 <<< "${PAIRS[1]}"
if [[ -z "${A1:-}" || -z "${A2:-}" ]]; then
  fail "could not find two measured pairs in the generated dataset"
  exit 1
fi

SERVE=("$CLI" serve --in "$DS" --min-samples 3)

# --- Case 1: stdout is byte-identical at 1, 4, and 8 reader threads -------
cat > "$TMP/churn.trace" <<EOF
# interleaved updates, barriers, and queries of both kinds
query best rtt $A1 $B1
query best loss $A1 $B1
query disjoint rtt 2 $A1 $B1
update sample $A1 $B1 12.5 0
update sample $A1 $B1 900.0 1
flush
query best rtt $A1 $B1
query best loss $A1 $B1
update sample $A2 $B2 3.25 0
tick 250
flush
query best rtt $A2 $B2
query disjoint loss 2 $A2 $B2
query disjoint rtt 2 $A1 $B1 0
tick 10000
query best rtt $A1 $B1
EOF
for readers in 1 4 8; do
  "${SERVE[@]}" --trace "$TMP/churn.trace" --readers "$readers" \
    > "$TMP/churn.r$readers" 2> /dev/null
  [[ $? -eq 0 ]] || fail "churn trace exited nonzero at $readers readers"
done
for readers in 4 8; do
  cmp -s "$TMP/churn.r1" "$TMP/churn.r$readers" \
    || fail "serve stdout differs between 1 and $readers readers"
done
grep -q "stale=1" "$TMP/churn.r1" \
  || fail "no stale-flagged response after the 10s tick"
grep -q "deadline-exceeded" "$TMP/churn.r1" \
  || fail "zero-budget disjoint query did not report deadline-exceeded"

# --- Case 2: SIGKILL mid-flush, --resume, byte-identical answers ----------
cat > "$TMP/crash.trace" <<EOF
update sample $A1 $B1 12.5 0
update sample $A1 $B1 900.0 1
flush
update sample $A2 $B2 3.25 0
flush
query best rtt $A1 $B1
EOF
cat > "$TMP/queries.trace" <<EOF
query best rtt $A1 $B1
query best loss $A1 $B1
query best rtt $A2 $B2
query disjoint rtt 2 $A1 $B1
EOF
# Reference: a clean server that applied exactly the two updates the crash
# run journaled before dying, then answered the same queries.
cat > "$TMP/ref.trace" <<EOF
update sample $A1 $B1 12.5 0
update sample $A1 $B1 900.0 1
flush
EOF
cat "$TMP/queries.trace" >> "$TMP/ref.trace"
"${SERVE[@]}" --trace "$TMP/ref.trace" --journal-dir "$TMP/ref.jdir" \
  > "$TMP/ref.out" 2> /dev/null || fail "reference serve run failed"

{
  PATHSEL_TEST_CRASH_AFTER=2 "${SERVE[@]}" --trace "$TMP/crash.trace" \
    --journal-dir "$TMP/crash.jdir" > /dev/null 2> /dev/null &
  wait $!
  rc=$?
} 2> /dev/null
[[ "$rc" == 137 ]] || fail "expected death by SIGKILL (exit 137), got $rc"
size="$(stat -c %s "$TMP/crash.jdir/journal.0" 2>/dev/null || echo 0)"
[[ "$size" -gt 36 ]] \
  || fail "journal holds no records after the crash (size $size)"

"${SERVE[@]}" --trace "$TMP/queries.trace" --journal-dir "$TMP/crash.jdir" \
  --resume > "$TMP/resume.out" 2> "$TMP/resume.err"
[[ $? -eq 0 ]] || fail "resume after crash exited nonzero"
grep -q "replayed 2 journaled updates" "$TMP/resume.err" \
  || fail "resume did not replay the two journaled updates"
cmp -s "$TMP/ref.out" "$TMP/resume.out" \
  || fail "resumed answers differ from the clean reference run"

# --- Case 3: a torn journal tail is repaired, replay still converges ------
printf 'torn half-written record' >> "$TMP/crash.jdir/journal.0"
"${SERVE[@]}" --trace "$TMP/queries.trace" --journal-dir "$TMP/crash.jdir" \
  --resume > "$TMP/torn.out" 2> "$TMP/torn.err"
[[ $? -eq 0 ]] || fail "resume with a torn tail exited nonzero"
grep -q "truncated torn tail" "$TMP/torn.err" \
  || fail "no diagnostic for the torn journal tail"
cmp -s "$TMP/ref.out" "$TMP/torn.out" \
  || fail "torn-tail resume answers differ from the clean reference run"

# --- Case 4: rejected updates degrade gracefully; --strict-updates gates --
cat > "$TMP/bad.trace" <<EOF
update sample 999999 $B1 5.0 0
query best rtt $A1 $B1
EOF
"${SERVE[@]}" --trace "$TMP/bad.trace" > "$TMP/bad.out" 2> "$TMP/bad.err"
[[ $? -eq 0 ]] || fail "rejected update must not fail a lenient run"
grep -q "update rejected" "$TMP/bad.err" \
  || fail "no per-line rejection diagnostic on stderr"
grep -q "^best rtt" "$TMP/bad.out" \
  || fail "queries after a rejected update were not served"
"${SERVE[@]}" --trace "$TMP/bad.trace" --strict-updates \
  > /dev/null 2> /dev/null
[[ $? -eq 1 ]] || fail "--strict-updates did not exit 1 on a rejected update"

# --- Case 5: a huge finite RTT update is indeterminate, not an abort -----
# Two 1e300 ms samples overflow the edge's Welford sum of squares (variance
# +inf, Welch dof NaN).  The flush used to abort in the t-quantile (exit
# 134); now the pair is classified indeterminate and the run exits 0.
cat > "$TMP/huge.trace" <<EOF
update sample $A1 $B1 1e300 0
update sample $A1 $B1 1e300 0
flush
query best rtt $A1 $B1
EOF
"${SERVE[@]}" --trace "$TMP/huge.trace" > "$TMP/huge.out" 2> "$TMP/huge.err"
rc=$?
[[ "$rc" -eq 0 ]] || fail "1e300 ms RTT updates: expected exit 0, got $rc"
grep -q "significance=indeterminate" "$TMP/huge.out" \
  || fail "the overflowed pair was not classified indeterminate"

# --- Case 6: trace numbers are whole decimal tokens ---------------------
# A leading '+' or a hex real is a malformed line (rejected, reported, the
# run goes on), by the same rule the CLI flags and dataset files use.
cat > "$TMP/tokens.trace" <<EOF
update sample +$A1 $B1 5.0 0
update sample $A1 $B1 0x1p3 0
tick +5
query best rtt +$A1 $B1
query disjoint rtt 2 $A1 $B1 0x1p3
query best rtt $A1 $B1
EOF
"${SERVE[@]}" --trace "$TMP/tokens.trace" > "$TMP/tokens.out" \
  2> "$TMP/tokens.err"
[[ $? -eq 0 ]] || fail "malformed number tokens must not fail a lenient run"
for line in 1 2 3 4 5; do
  grep -q "^trace line $line:" "$TMP/tokens.err" \
    || fail "trace line $line ('+' or hex number) was not rejected"
done
[[ "$(grep -c "^best rtt" "$TMP/tokens.out")" -eq 1 ]] \
  || fail "the well-formed query after the rejected lines was not served"

# --- Case 7: rtt and loss sweeps that keep different pairs ---------------
# With every RTT sample at 1e308 ms each one-hop rtt alternate sums to +inf,
# so the rtt sweep drops every pair as disconnected while the loss sweep
# keeps them all.  The engine serves one row set for both metrics; it used
# to abort (exit 134) and now fails with a data error naming the first pair
# the sweeps disagree on.
awk '$1 == "m" && $6 == 1 { $8 = "1e308"; $10 = "1e308"; $12 = "1e308" } 1' \
  "$DS" > "$TMP/inf_rtt.ds"
"$CLI" serve --in "$TMP/inf_rtt.ds" --min-samples 1 \
  --trace "$TMP/huge.trace" > /dev/null 2> "$TMP/inf_rtt.err"
rc=$?
[[ "$rc" -eq 1 ]] || fail "rtt/loss pair-set mismatch: expected exit 1, got $rc"
grep -q "row 0 is none under rtt but [0-9]*-[0-9]* under loss" \
  "$TMP/inf_rtt.err" || fail "pair-set mismatch diagnostic does not name a pair"

if [[ "$failures" -ne 0 ]]; then
  echo "$failures serve trace case(s) failed" >&2
  exit 1
fi
echo "all serve trace cases passed"
