#!/usr/bin/env bash
# Crash-safety drill (tier-1): prove the checkpoint journal survives a hard
# kill and that resume reproduces the uninterrupted output byte for byte.
#
# Four gates, each at --jobs 1 and --jobs max:
#   1. golden:   plain run, no journal — the reference output;
#   2. kill:     same run with --journal, SIGKILL'd mid-sweep (exit 137);
#   3. resume:   --resume against the survivor journal; output must be
#                byte-identical to golden (cmp, not diff);
#   4. torn:     the journal is truncated mid-record (simulating a crash
#                inside write()); resume must recover the whole-record
#                prefix and still reproduce golden exactly.
# The golden run stays at the serial default while every journaled run adds
# --engine-threads max, so the byte-compares double as proof that the
# threaded engine (and a resume under a different thread count) changes
# nothing.
# The SIGKILLed run's journal lock dies with it, so gate 3 is a plain
# --resume.
# Plus a faulty-cell gate (failed cells survive kill/resume as data), a
# budget gate (cells that exhaust --budget report structured
# [cell-budget-exceeded] rows and exit 0), a lock gate (while writer 1 is
# alive, a second writer on its journal exits non-zero with
# [journal-locked]), and a real-bench gate: makespan_scaling,
# ablation_inbox_policy and shared_pages run fully journaled, the journal
# is cut to half its bytes (a torn tail), and --resume must reproduce the
# golden output byte for byte.
#
# Usage: scripts/chaos.sh [path-to-chaos_sweep] [bench-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-./build/examples-bin/chaos_sweep}"
BENCH_DIR="${2:-./build/bench}"
BENCHES=(makespan_scaling ablation_inbox_policy shared_pages)
for bin in "${BIN}" "${BENCHES[@]/#/${BENCH_DIR}/}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "chaos.sh: ${bin} not built (cmake --build build)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

CELLS=24
KILL_AT=9

for JOBS in 1 max; do
  tag="jobs-${JOBS}"
  golden="${WORK}/golden-${tag}.txt"
  journal="${WORK}/journal-${tag}.ppgjrnl"

  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" > "${golden}"

  # Gate 2: SIGKILL mid-sweep. raise(SIGKILL) exits 137 via the shell; the
  # run must NOT complete (the kill fired) and must leave a journal.
  set +e
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${journal}" --kill-at "${KILL_AT}" \
           > "${WORK}/killed-${tag}.txt" 2>&1
  status=$?
  set -e
  if [[ "${status}" -ne 137 ]]; then
    echo "chaos.sh FAIL (${tag}): expected exit 137 from SIGKILL, got ${status}" >&2
    exit 1
  fi
  if [[ ! -s "${journal}" ]]; then
    echo "chaos.sh FAIL (${tag}): kill run left no journal" >&2
    exit 1
  fi

  # Gate 3: resume completes the sweep; stdout must match golden exactly.
  # The kernel released the killed run's lock, so a plain --resume works.
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${journal}" --resume \
           > "${WORK}/resumed-${tag}.txt" 2> "${WORK}/resumed-${tag}.err"
  cmp "${golden}" "${WORK}/resumed-${tag}.txt" || {
    echo "chaos.sh FAIL (${tag}): resumed output differs from golden" >&2
    exit 1
  }

  # Gate 4: tear the (now complete) journal mid-record and resume again.
  # The reader must truncate to the last whole record and recompute the
  # tail — still byte-identical.
  size=$(wc -c < "${journal}")
  torn="${WORK}/torn-${tag}.ppgjrnl"
  head -c "$((size - 13))" "${journal}" > "${torn}"
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${torn}" --resume \
           > "${WORK}/torn-${tag}.txt" 2> "${WORK}/torn-${tag}.err"
  cmp "${golden}" "${WORK}/torn-${tag}.txt" || {
    echo "chaos.sh FAIL (${tag}): torn-journal resume differs from golden" >&2
    exit 1
  }
done

# Faulty-cell gate: a sweep seeded with corrupt traces (--faulty-every)
# journals its [corrupt-trace] rows as data; a SIGKILL mid-sweep and a
# resume must reproduce the golden faulty output byte for byte — failures
# survive the crash exactly like successes.
faulty_golden="${WORK}/faulty-golden.txt"
faulty_journal="${WORK}/faulty.ppgjrnl"
"${BIN}" --cells "${CELLS}" --faulty-every 5 > "${faulty_golden}"
grep -q "corrupt-trace" "${faulty_golden}" || {
  echo "chaos.sh FAIL: faulty sweep did not report corrupt-trace rows" >&2
  exit 1
}
set +e
"${BIN}" --cells "${CELLS}" --faulty-every 5 --engine-threads max \
         --journal "${faulty_journal}" --kill-at "${KILL_AT}" \
         > "${WORK}/faulty-killed.txt" 2>&1
status=$?
set -e
if [[ "${status}" -ne 137 ]]; then
  echo "chaos.sh FAIL: faulty kill run expected exit 137, got ${status}" >&2
  exit 1
fi
"${BIN}" --cells "${CELLS}" --faulty-every 5 --engine-threads max \
         --journal "${faulty_journal}" --resume \
         > "${WORK}/faulty-resumed.txt" 2> "${WORK}/faulty-resumed.err"
cmp "${faulty_golden}" "${WORK}/faulty-resumed.txt" || {
  echo "chaos.sh FAIL: faulty-cell resume differs from golden" >&2
  exit 1
}

# Budget gate: exhausted cells are structured outcomes, not crashes.
budget_out="${WORK}/budget.txt"
"${BIN}" --cells 4 --budget 10 > "${budget_out}"
grep -q "cell-budget-exceeded" "${budget_out}" || {
  echo "chaos.sh FAIL: budget run did not report cell-budget-exceeded rows" >&2
  exit 1
}

# Lock gate: while writer 1 is alive and appending, a second writer on the
# same journal (fresh or --resume) must exit non-zero with structured
# [journal-locked] instead of interleaving records.
lock_journal="${WORK}/lock.ppgjrnl"
"${BIN}" --cells 4000 --journal "${lock_journal}" \
         > "${WORK}/lock-w1.txt" 2>&1 &
w1=$!
for _ in $(seq 1 200); do
  [[ -s "${lock_journal}" ]] && break
  sleep 0.05
done
[[ -s "${lock_journal}" ]] || {
  echo "chaos.sh FAIL: writer 1 never started its journal" >&2
  kill -KILL "${w1}" 2>/dev/null || true
  exit 1
}
for resume_flag in "" "--resume"; do
  set +e
  # shellcheck disable=SC2086  # resume_flag is intentionally word-split
  "${BIN}" --cells 4000 --journal "${lock_journal}" ${resume_flag} \
           > "${WORK}/lock-w2.txt" 2>&1
  status=$?
  set -e
  if [[ "${status}" -eq 0 ]] || ! grep -q "journal-locked" "${WORK}/lock-w2.txt"; then
    echo "chaos.sh FAIL: second writer (${resume_flag:-fresh}) did not refuse" \
         "with [journal-locked] (exit ${status})" >&2
    kill -KILL "${w1}" 2>/dev/null || true
    exit 1
  fi
done
kill -KILL "${w1}" 2>/dev/null || true
wait "${w1}" 2>/dev/null || true

# Real-bench gate: each bench runs golden, then fully journaled with the
# threaded engine; the journal is cut to half its bytes (a torn tail) and a
# --resume must recompute the lost cells and print golden byte for byte.
bench_gate() {
  local name="$1"
  shift
  local bin="${BENCH_DIR}/${name}"
  local dir="${WORK}/bench-${name}"
  mkdir -p "${dir}"
  "${bin}" "$@" > "${dir}/golden.txt"
  "${bin}" "$@" --engine-threads max --journal "${dir}/journal.ppgjrnl" \
      > "${dir}/journaled.txt"
  cmp "${dir}/golden.txt" "${dir}/journaled.txt" || {
    echo "chaos.sh FAIL (${name}): journaled output differs from golden" >&2
    exit 1
  }
  local size
  size=$(wc -c < "${dir}/journal.ppgjrnl")
  truncate -s "$((size / 2))" "${dir}/journal.ppgjrnl"
  "${bin}" "$@" --journal "${dir}/journal.ppgjrnl" --resume \
      > "${dir}/resumed.txt"
  cmp "${dir}/golden.txt" "${dir}/resumed.txt" || {
    echo "chaos.sh FAIL (${name}): half-journal resume differs from golden" >&2
    exit 1
  }
}
bench_gate makespan_scaling --quick --jobs max
bench_gate ablation_inbox_policy --jobs max
bench_gate shared_pages --jobs max

echo "chaos OK (kill/resume/torn byte-identical at --jobs 1 and max; budget rows structured; live writer locks the journal; 3 benches resume a half journal byte-identically)"
