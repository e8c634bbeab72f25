#!/usr/bin/env bash
# Project-invariant lint: greppable concurrency & correctness rules that
# the compilers cannot enforce on every toolchain (the thread-safety
# analysis only exists on clang; CI and local builds may be gcc). Runs in
# well under a second, so CI executes it before anything is built.
#
#   1. No naked standard-library synchronization primitives in src/.
#      Every mutex/condvar must be sim::Mutex / sim::MutexLock /
#      sim::CondVar (src/common/mutex.h) so acquisitions carry
#      thread-safety annotations. A std::mutex is invisible to the
#      analysis and to DESIGN.md §12's lock hierarchy.
#   2. No naked `new` in the src/exec and src/luc hot paths. Rows flow
#      through the per-statement arena (PR 7); the only tolerated `new`
#      is the `std::unique_ptr<X>(new X(...))` private-constructor idiom
#      (make_unique cannot reach a private constructor).
#   3. Every sim::Mutex member must be tied into the annotation scheme:
#      its declaration carries an ordering annotation (SIM_ACQUIRED_*)
#      or the same file references it from SIM_GUARDED_BY /
#      SIM_REQUIRES / SIM_EXCLUDES / SIM_ACQUIRE... An unreferenced
#      mutex guards nothing the analysis can see.
#   4. Status and Result<T> stay [[nodiscard]].
#   5. No `(void)` suppressions of sim::Status results in src/. A
#      destructor that cannot propagate failure must still account for
#      the dropped status (Cursor::~Cursor counts it in
#      simdb_dropped_status_total and logs under paranoid_checks).
#      `(void)` on libc calls (unlink in cleanup paths) and on unused
#      parameters is not a Status suppression.
#   6. kDataLoss is never silently swallowed. A quarantined page may be
#      tolerated (degraded service, DESIGN.md §13) but every tolerance
#      site must leave a trace: within the next few lines it either
#      counts the loss (++skipped, counter increment), neutralizes the
#      page (free-estimate assignment), or redirects (return). A bare
#      `continue;` after the code check would make records vanish with
#      no record of the vanishing — the exact failure mode the typed
#      kDataLoss code exists to prevent.
#   7. One drain loop. In src/, `root->Next(` (pulling rows from a plan
#      root) appears only in Database::Cursor::Next: ExecuteQuery and
#      ExplainAnalyze drain a cursor instead of keeping their own loops.
#      `RunReference` (the recursive reference interpreter) does not
#      appear at all; it is the parity suite's oracle and lives in tests/.
#
# Usage: scripts/lint_invariants.sh   (exits non-zero on any violation)
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
report() {
  echo "lint_invariants: $1" >&2
  shift
  printf '%s\n' "$@" >&2
  fail=1
}

# --- 1. naked standard-library synchronization primitives ---------------
naked_sync=$(grep -rnE \
  'std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)' \
  src --include='*.cc' --include='*.h' |
  grep -v '^src/common/mutex\.h:')
if [ -n "$naked_sync" ]; then
  report "naked std synchronization primitive (use sim::Mutex/MutexLock/CondVar from src/common/mutex.h):" \
    "$naked_sync"
fi

# --- 2. naked new in exec/luc hot paths ---------------------------------
# awk keeps one line of lookbehind so the wrapped form
#     auto p = std::unique_ptr<X>(
#         new X(...));
# is recognized as the private-constructor idiom.
naked_new=$(awk '
  /^[[:space:]]*\/\// { prev = $0; next }        # comment lines
  /[^A-Za-z0-9_]new[[:space:](]/ {
    if ($0 !~ /unique_ptr</ && prev !~ /unique_ptr</)
      printf "%s:%d: %s\n", FILENAME, FNR, $0
  }
  { prev = $0 }
' $(find src/exec src/luc -name '*.cc' -o -name '*.h'))
if [ -n "$naked_new" ]; then
  report "naked new in a hot path (rows go through the arena; wrap private ctors in unique_ptr<X>(new X)):" \
    "$naked_new"
fi

# --- 3. un-annotated mutex members --------------------------------------
while IFS=: read -r file line decl; do
  [ -z "$file" ] && continue
  name=$(printf '%s\n' "$decl" | sed -nE 's/.*Mutex[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/\1/p')
  [ -z "$name" ] && continue
  case "$decl" in
    *SIM_*) continue ;;  # ordering annotation on the declaration itself
  esac
  if ! grep -qE "SIM_[A-Z_]+\([^)]*\b${name}\b" "$file"; then
    report "sim::Mutex member '$name' is never referenced by a thread-safety annotation:" \
      "$file:$line: $decl"
  fi
done <<EOF
$(grep -rnE '(^|[[:space:]])(mutable[[:space:]]+)?(sim::)?Mutex[[:space:]]+[A-Za-z_]+' \
    src --include='*.h' | grep -v '^src/common/mutex\.h:')
EOF

# --- 4. Status / Result stay [[nodiscard]] ------------------------------
if ! grep -q 'class \[\[nodiscard\]\] Status' src/common/status.h; then
  report "sim::Status lost its [[nodiscard]] attribute (src/common/status.h)"
fi
if ! grep -q 'class \[\[nodiscard\]\] Result' src/common/status.h; then
  report "sim::Result<T> lost its [[nodiscard]] attribute (src/common/status.h)"
fi

# --- 5. (void) Status suppressions --------------------------------------
# A suppression is `(void)SomeCall(...)`. `(void)::libc_call` and
# `(void)identifier;` (unused parameter) are not Status discards.
suppressions=$(grep -rnE '\(void\)[A-Za-z_][A-Za-z0-9_:.>-]*\(' src --include='*.cc' --include='*.h' |
  grep -vE '\(void\)::' |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
unexpected=$(printf '%s\n' "$suppressions" | grep -v '^$')
if [ -n "$unexpected" ]; then
  report "new (void) suppression of a Status result (propagate it or Status::Update into the primary error):" \
    "$unexpected"
fi

# --- 6. kDataLoss never silently swallowed ------------------------------
# Every comparison against StatusCode::kDataLoss in src/ must be followed
# (within 5 lines) by an accounting action: an increment, an assignment
# that retargets future work, a counter, or a return that propagates.
dataloss_silent=$(awk '
  /StatusCode::kDataLoss/ && FILENAME ~ /\.cc$/ {
    found = 0
    for (i = 0; i <= 5 && (getline line) > 0; ++i) {
      if (line ~ /\+\+|[^=!<>]= |return|Increment|push_back/) { found = 1; break }
    }
    if (!found)
      printf "%s:%d: %s\n", FILENAME, FNR, $0
  }
' $(find src -name '*.cc'))
if [ -n "$dataloss_silent" ]; then
  report "kDataLoss tolerated with no accounting (count the loss, retarget, or propagate — never silently skip):" \
    "$dataloss_silent"
fi

# --- 7. one drain loop, no reference interpreter in src/ ----------------
# A function body runs from its definition line (column 0) to the next
# closing brace in column 0.
stray_drain=$(awk '
  FNR == 1 { in_next = 0 }
  /^[^[:space:]].*Database::Cursor::Next\(/ { in_next = 1 }
  /root->Next\(/ && !in_next { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  /^}/ { in_next = 0 }
' $(find src -name '*.cc' -o -name '*.h'))
if [ -n "$stray_drain" ]; then
  report "plan root drained outside Database::Cursor::Next (open a cursor and drain it):" \
    "$stray_drain"
fi
reference=$(grep -rn 'RunReference' src --include='*.cc' --include='*.h')
if [ -n "$reference" ]; then
  report "reference interpreter in src/ (it is a test oracle; keep it under tests/):" \
    "$reference"
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "lint_invariants: all invariants hold."
