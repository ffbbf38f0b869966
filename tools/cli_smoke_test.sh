#!/bin/sh
# Smoke test for snowboard_cli's argument surface: --help must print the full flag
# reference and exit 0; unknown commands, unknown flags, and stray positionals must exit 2
# (the CLI used to silently accept unknown flags and exit 0 — this keeps that regression
# dead), and so must malformed integer values. A small campaign is then crashed by injected
# faults and resumed in a fresh process, which must reproduce the uninterrupted run's
# output. Pass the CLI binary path as $1;
# optionally pass the replay-token corpus directory (tests/corpus) as $2 to exercise
# `replay` end to end (success, divergence exit 3), and the snowboard_serve binary as $3
# for a daemon submit/status/cancel round-trip over a unix socket (drain via POST /drain,
# daemon exit 0), then a second daemon on the same root that must re-adopt both campaigns.
set -u

CLI="${1:?usage: cli_smoke_test.sh /path/to/snowboard_cli [corpus-dir] [serve-binary]}"
CORPUS="${2:-}"
SERVE="${3:-}"
fails=0

check_exit() {
  desc="$1"; want="$2"; got="$3"
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: exit $got, want $want"
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

# The totals lines of a campaign status document.
status_totals() {
  printf '%s\n' "$1" | grep -E '"(tests_executed|findings)":'
}

help_out=$("$CLI" --help 2>&1); check_exit "--help exits 0" 0 $?
for needle in corpus identify run campaign replay strategies \
    --trace-out --report-dir --checkpoint-dir --resume --inject-faults --fault-seed \
    --strategy --budget --trials --workers --seed --token --tokens-dir; do
  case "$help_out" in
    *"$needle"*) ;;
    *) echo "FAIL: --help output missing '$needle'"; fails=$((fails + 1)) ;;
  esac
done

"$CLI" -h > /dev/null 2>&1; check_exit "-h exits 0" 0 $?
"$CLI" help > /dev/null 2>&1; check_exit "help command exits 0" 0 $?
"$CLI" campaign --help > /dev/null 2>&1; check_exit "campaign --help exits 0" 0 $?
"$CLI" strategies > /dev/null 2>&1; check_exit "strategies exits 0" 0 $?

"$CLI" > /dev/null 2>&1; check_exit "no command exits 2" 2 $?
"$CLI" frobnicate > /dev/null 2>&1; check_exit "unknown command exits 2" 2 $?
"$CLI" campaign --no-such-flag > /dev/null 2>&1; check_exit "unknown flag exits 2" 2 $?
"$CLI" campaign stray-positional > /dev/null 2>&1; check_exit "positional arg exits 2" 2 $?
"$CLI" campaign --resume extra > /dev/null 2>&1; check_exit "value on boolean flag exits 2" 2 $?
"$CLI" campaign --resume > /dev/null 2>&1; check_exit "--resume without dir exits 2" 2 $?
"$CLI" run --strategy NOPE --corpus /dev/null --pmcs /dev/null > /dev/null 2>&1
check_exit "unknown strategy exits 2" 2 $?
"$CLI" corpus > /dev/null 2>&1; check_exit "corpus without --out exits 2" 2 $?
# Integer flags take decimal numbers in range, and a campaign spec must pass the daemon's
# admission check (every count >= 1).
"$CLI" campaign --trials abc > /dev/null 2>&1; check_exit "non-numeric --trials exits 2" 2 $?
"$CLI" campaign --trials 0 > /dev/null 2>&1; check_exit "--trials 0 exits 2" 2 $?
"$CLI" campaign --budget -1 > /dev/null 2>&1; check_exit "negative --budget exits 2" 2 $?
bad_corpus="${TMPDIR:-/tmp}/cli_smoke_corpus.$$.txt"
"$CLI" corpus --out "$bad_corpus" --size abc > /dev/null 2>&1
check_exit "non-numeric corpus --size exits 2" 2 $?
# `run` and `corpus` hold their counts to the same floor, before touching any file.
"$CLI" run --corpus /dev/null --pmcs /dev/null --trials 0 > /dev/null 2>&1
check_exit "run --trials 0 exits 2" 2 $?
"$CLI" run --corpus /dev/null --pmcs /dev/null --budget 0 > /dev/null 2>&1
check_exit "run --budget 0 exits 2" 2 $?
"$CLI" corpus --out "$bad_corpus" --size 0 > /dev/null 2>&1
check_exit "corpus --size 0 exits 2" 2 $?
if [ -e "$bad_corpus" ]; then
  echo "FAIL: corpus --size 0 wrote $bad_corpus"
  fails=$((fails + 1))
fi
rm -f "$bad_corpus"

# --- replay: usage errors need no corpus. ---
"$CLI" replay > /dev/null 2>&1; check_exit "replay without token exits 2" 2 $?
"$CLI" replay /nonexistent/path.token > /dev/null 2>&1
check_exit "replay with unreadable file exits 1" 1 $?
"$CLI" replay sb-replay-v1-garbage > /dev/null 2>&1
check_exit "replay with malformed token exits 2" 2 $?
bad_token="${TMPDIR:-/tmp}/cli_smoke_bad.$$.token"
echo "complete garbage, not a token" > "$bad_token"
"$CLI" replay "$bad_token" > /dev/null 2>&1
check_exit "replay with junk token file exits 2" 2 $?
rm -f "$bad_token"

# --- replay against the checked-in corpus: success and divergence paths. ---
if [ -n "$CORPUS" ] && [ -d "$CORPUS" ]; then
  good_token=$(ls "$CORPUS"/issue-*.token 2>/dev/null | head -n 1)
  if [ -n "$good_token" ]; then
    "$CLI" replay "$good_token" > /dev/null 2>&1
    check_exit "replay of a corpus token exits 0" 0 $?
    "$CLI" replay --token "$good_token" > /dev/null 2>&1
    check_exit "replay via --token exits 0" 0 $?
    "$CLI" replay "$good_token" --token "$good_token" > /dev/null 2>&1
    check_exit "replay with both operand and --token exits 2" 2 $?
  else
    echo "FAIL: no issue-*.token under $CORPUS"; fails=$((fails + 1))
  fi
  if [ -f "$CORPUS/divergent.token" ]; then
    "$CLI" replay "$CORPUS/divergent.token" > /dev/null 2>&1
    check_exit "replay fingerprint divergence exits 3" 3 $?
  else
    echo "FAIL: no divergent.token under $CORPUS"; fails=$((fails + 1))
  fi
else
  echo "note: no corpus dir supplied; skipping replay end-to-end checks"
fi

# --- campaign crash/resume across processes. ---
# A resumed process never registered the sites of the tests it replays from the journal,
# so the journal record must carry those tests' classified findings. Crash a checkpointed
# campaign with injected faults, resume it in a fresh process at another worker count, and
# require the uninterrupted run's output with every test either replayed or re-run. The
# resume recomputes every prep stage, so its log lines match too; only the resume count,
# the report path and sanitizer banners (they carry the process id) may differ.
work="${TMPDIR:-/tmp}/cli_smoke_resume.$$"
mkdir -p "$work"
campaign="campaign --seed 7 --budget 24 --trials 8 --workers 1 --corpus-size 32"
campaign="$campaign --corpus-iters 40"
# $campaign stays unquoted: it is a word list.
"$CLI" $campaign --report-dir "$work/A" > "$work/a.txt" 2>&1
check_exit "uninterrupted campaign exits 0" 0 $?
"$CLI" $campaign --checkpoint-dir "$work/D" --inject-faults 65 --fault-seed 1 \
    > /dev/null 2>&1
check_exit "campaign with injected faults exits 42" 42 $?
"$CLI" $campaign --checkpoint-dir "$work/D" --resume --workers 4 --report-dir "$work/B" \
    > "$work/b.txt" 2>&1
check_exit "resumed campaign exits 0" 0 $?
findings_block() { sed -n '/^findings:$/,/^report written/p' "$1" | grep -v '^report written'; }
run_output() {
  grep -v -e '^resumed [0-9]* of [0-9]* ' -e '^report written to ' -e '^==[0-9]*==' "$1"
}
metric() { grep -o "\"$2\": [0-9]*" "$1/report.json" | grep -o '[0-9]*$'; }
# The campaign prunes by default; a pruned trial adds no new edge.
if grep -q '^pruning: [0-9]* trials pruned (no new edge); [0-9]* tests saturated$' \
    "$work/a.txt"; then
  echo "ok: campaign prints its pruning line"
else
  echo "FAIL: campaign printed no 'pruning: N trials pruned (no new edge)' line"
  fails=$((fails + 1))
fi
if [ "$(findings_block "$work/a.txt" | wc -l)" -lt 2 ]; then
  echo "FAIL: uninterrupted campaign printed no findings"; fails=$((fails + 1))
elif [ "$(run_output "$work/a.txt")" != "$(run_output "$work/b.txt")" ]; then
  echo "FAIL: resumed output differs from the uninterrupted run's:"
  run_output "$work/a.txt" > "$work/a.cmp"
  run_output "$work/b.txt" > "$work/b.cmp"
  diff "$work/a.cmp" "$work/b.cmp"
  fails=$((fails + 1))
else
  echo "ok: resumed output matches the uninterrupted run"
fi
resumed=$(metric "$work/B" run.tests_resumed)
rerun=$(metric "$work/B" run.concurrent_tests_run)
if [ "${resumed:-0}" -gt 0 ] && [ $((${resumed:-0} + ${rerun:-0})) -eq 24 ]; then
  echo "ok: resume replayed $resumed journaled tests and ran $rerun"
else
  echo "FAIL: resume replayed '${resumed}' and ran '${rerun}' tests, want > 0 and a sum of 24"
  fails=$((fails + 1))
fi
rm -rf "$work"

# --- serve: argument surface, then a live daemon round-trip on a unix socket. ---
if [ -n "$SERVE" ] && [ -x "$SERVE" ]; then
  serve_help=$("$SERVE" --help 2>&1); check_exit "serve --help exits 0" 0 $?
  for needle in serve request --socket --root --workers --max-active --journal-flush \
      --path --method --body-file; do
    case "$serve_help" in
      *"$needle"*) ;;
      *) echo "FAIL: serve --help output missing '$needle'"; fails=$((fails + 1)) ;;
    esac
  done
  "$SERVE" > /dev/null 2>&1; check_exit "serve without command exits 2" 2 $?
  "$SERVE" frobnicate > /dev/null 2>&1; check_exit "serve unknown command exits 2" 2 $?
  "$SERVE" serve > /dev/null 2>&1; check_exit "serve without --socket/--root exits 2" 2 $?
  "$SERVE" serve --no-such-flag x > /dev/null 2>&1
  check_exit "serve unknown flag exits 2" 2 $?
  "$SERVE" request --socket /nonexistent.sock --path /healthz > /dev/null 2>&1
  check_exit "request without a daemon exits 1" 1 $?

  work="${TMPDIR:-/tmp}/cli_smoke_serve.$$"
  sock="$work/sb.sock"
  mkdir -p "$work/root"
  # Starts a daemon on the fleet root and waits for its socket; false if it never binds.
  start_daemon() {
    rm -f "$sock"  # A leftover socket would pass the readiness check before the bind.
    "$SERVE" serve --socket "$sock" --root "$work/root" --workers 2 > /dev/null 2>&1 &
    daemon=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
    if [ ! -S "$sock" ]; then
      echo "FAIL: daemon never bound $sock"; fails=$((fails + 1)); kill "$daemon" 2>/dev/null
      return 1
    fi
  }
  if start_daemon; then
    "$SERVE" request --socket "$sock" --path /healthz > /dev/null 2>&1
    check_exit "GET /healthz exits 0" 0 $?

    # Submit a tiny campaign and watch it finish.
    cat > "$work/spec.txt" <<'SPEC'
snowboard-campaign-spec-v2
name smoke-a
seed 7
corpus-size 8
corpus-iters 10
budget 5
trials 3
workers 2
SPEC
    "$SERVE" request --socket "$sock" --method POST --path /campaigns \
        --body-file "$work/spec.txt" > /dev/null 2>&1
    check_exit "POST /campaigns exits 0" 0 $?
    "$SERVE" request --socket "$sock" --method POST --path /campaigns \
        --body-file "$work/spec.txt" > /dev/null 2>&1
    check_exit "duplicate submit exits 4 (409)" 4 $?
    i=0
    while [ "$i" -lt 150 ]; do
      state=$("$SERVE" request --socket "$sock" --path /campaigns/smoke-a 2>/dev/null)
      case "$state" in *'"state": "done"'*) break ;; esac
      i=$((i + 1)); sleep 0.2
    done
    case "$state" in
      *'"state": "done"'*) echo "ok: smoke-a reached done" ;;
      *) echo "FAIL: smoke-a never reached done"; fails=$((fails + 1)) ;;
    esac
    a_totals=$(status_totals "$state")
    "$SERVE" request --socket "$sock" --path /campaigns/smoke-a/report 2>/dev/null \
        | grep -q '"schema": "snowboard-report-v1"'
    check_exit "GET report.json exits 0 and is a report" 0 $?

    # Cancel a second, much larger campaign mid-run.
    sed 's/^name smoke-a$/name smoke-b/; s/^budget 5$/budget 500/' \
        "$work/spec.txt" > "$work/spec_b.txt"
    "$SERVE" request --socket "$sock" --method POST --path /campaigns \
        --body-file "$work/spec_b.txt" > /dev/null 2>&1
    check_exit "POST second campaign exits 0" 0 $?
    "$SERVE" request --socket "$sock" --method POST \
        --path /campaigns/smoke-b/cancel > /dev/null 2>&1
    check_exit "POST cancel exits 0" 0 $?
    "$SERVE" request --socket "$sock" --path /campaigns/nope > /dev/null 2>&1
    check_exit "unknown campaign exits 4 (404)" 4 $?
    # A body past the daemon's 8 MiB read cap gets the daemon's answer (400), although the
    # client's send fails once the daemon stops reading and closes.
    head -c 16777216 /dev/zero | tr '\0' x > "$work/big.txt"
    "$SERVE" request --socket "$sock" --method POST --path /campaigns \
        --body-file "$work/big.txt" > /dev/null 2>&1
    check_exit "oversized body exits 4 (400)" 4 $?
    rm -f "$work/big.txt"

    "$SERVE" request --socket "$sock" --method POST --path /drain > /dev/null 2>&1
    check_exit "POST /drain exits 0 (202)" 0 $?
    wait "$daemon"
    check_exit "drained daemon exits 0" 0 $?

    # A second daemon on the same root re-adopts both campaigns from their markers:
    # smoke-a is done with the totals it reported before the drain, and smoke-b stays
    # cancelled although the drain landed a few milliseconds after its cancel.
    if start_daemon; then
      state=$("$SERVE" request --socket "$sock" --path /campaigns/smoke-a 2>/dev/null)
      case "$state" in
        *'"state": "done"'*) echo "ok: restarted daemon re-adopts smoke-a as done" ;;
        *) echo "FAIL: restarted daemon reports smoke-a not done"; fails=$((fails + 1)) ;;
      esac
      if [ -z "$a_totals" ] || [ "$(status_totals "$state")" != "$a_totals" ]; then
        echo "FAIL: smoke-a totals changed across the restart: '$a_totals' then" \
            "'$(status_totals "$state")'"
        fails=$((fails + 1))
      fi
      state=$("$SERVE" request --socket "$sock" --path /campaigns/smoke-b 2>/dev/null)
      case "$state" in
        *'"state": "cancelled"'*) echo "ok: restarted daemon keeps smoke-b cancelled" ;;
        *) echo "FAIL: restarted daemon reports smoke-b not cancelled"; fails=$((fails + 1)) ;;
      esac
      "$SERVE" request --socket "$sock" --method POST --path /drain > /dev/null 2>&1
      check_exit "POST /drain to the restarted daemon exits 0 (202)" 0 $?
      wait "$daemon"
      check_exit "restarted daemon exits 0" 0 $?
    fi
  fi
  rm -rf "$work"
else
  echo "note: no serve binary supplied; skipping daemon smoke checks"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails smoke check(s) failed"
  exit 1
fi
echo "all CLI smoke checks passed"
