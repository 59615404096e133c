#!/usr/bin/env bash
# Correctness gate for the whole tree: build + full test suite under
#   1. the plain configuration,
#   2. AddressSanitizer + UndefinedBehaviorSanitizer,
#   3. ThreadSanitizer,
# each in its own build directory.  Every configuration builds the
# threaded runtime, so the threaded conformance, chaos and example
# tests run in all three (and under TSan in the third).  The oslint
# static-analysis suite and its self-test run as ctest cases in every
# configuration.
#
# A fourth configuration, `tsafety`, compiles the tree with clang and
# -Wthread-safety -Werror, statically checking the OS_GUARDED_BY /
# OS_REQUIRES lock annotations (src/util/thread_annotations.h).  It
# needs a clang toolchain and is skipped with a notice when none is
# installed (CI runs it).
#
# Usage: scripts/check.sh [plain|asan|tsan|tsafety]...
#        (default: plain asan tsan)
#
# OCEANSTORE_CHECK_FILTER, when set, is passed to ctest as -R so a
# configuration can run one suite (e.g. the chaos matrix under ASan:
#   OCEANSTORE_CHECK_FILTER='^Chaos\.' scripts/check.sh asan).

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

# Sanitizer runtime knobs: fail hard on the first report so ctest
# turns any finding into a test failure.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

run_config() {
    local name="$1" sanitize="$2"
    local build="build-check-${name}"
    echo "=== [${name}] configure (-DOCEANSTORE_SANITIZE=${sanitize})"
    cmake -B "${build}" -S . -DOCEANSTORE_SANITIZE="${sanitize}" \
        > "${build}.cmake.log" 2>&1 \
        || { cat "${build}.cmake.log"; return 1; }
    echo "=== [${name}] build"
    cmake --build "${build}" -j "${jobs}"
    echo "=== [${name}] test"
    local filter=()
    [ -n "${OCEANSTORE_CHECK_FILTER:-}" ] &&
        filter=(-R "${OCEANSTORE_CHECK_FILTER}")
    (cd "${build}" && ctest --output-on-failure -j "${jobs}" \
        "${filter[@]}")
}

# Thread-safety analysis build: clang-only, compile is the test (the
# annotations are checked statically; -Werror turns any inconsistency
# into a build failure).
run_tsafety() {
    local clangxx
    clangxx="$(command -v clang++ || true)"
    if [ -z "${clangxx}" ]; then
        echo "=== [tsafety] SKIPPED: clang++ not installed" \
             "(the CI analysis job runs this configuration)"
        return 0
    fi
    local build="build-check-tsafety"
    echo "=== [tsafety] configure (clang, -Wthread-safety -Werror)"
    cmake -B "${build}" -S . \
        -DCMAKE_CXX_COMPILER="${clangxx}" \
        -DOCEANSTORE_THREAD_SAFETY=ON \
        > "${build}.cmake.log" 2>&1 \
        || { cat "${build}.cmake.log"; return 1; }
    echo "=== [tsafety] build (compile clean == pass)"
    cmake --build "${build}" -j "${jobs}"
}

configs=("$@")
[ "${#configs[@]}" -eq 0 ] && configs=(plain asan tsan)

for cfg in "${configs[@]}"; do
    case "${cfg}" in
    plain) run_config plain OFF ;;
    asan) run_config asan address ;;
    tsan) run_config tsan thread ;;
    tsafety) run_tsafety ;;
    *)
        echo "unknown config '${cfg}' (want plain|asan|tsan|tsafety)" >&2
        exit 2
        ;;
    esac
done

echo "=== all configurations passed"
