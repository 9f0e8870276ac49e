#!/usr/bin/env bash
# Tier-1 verification: the static analyzer, build + full test suite,
# optionally under sanitizers, plus a deterministic fault-sweep smoke run.
#
#   scripts/check.sh            # plain RelWithDebInfo build + ctest + smoke
#   scripts/check.sh --asan     # same, built with address+UB sanitizers
#   scripts/check.sh --tsan     # same, built with the thread sanitizer
#   scripts/check.sh --audit    # same, with JAWS_AUDIT_BUILD contract audits
#   scripts/check.sh --intsan   # same, with -fsanitize=signed-integer-overflow
#                               # (proves SimTime saturation leaves no UB)
#   scripts/check.sh --werror   # same, with every warning an error
#                               # (JAWS_WERROR, tests included)
#   scripts/check.sh --tidy     # static gates only: jaws_analyzer.py
#                               # (determinism, semantic and layering
#                               # rules) + clang-tidy over
#                               # compile_commands.json
#   scripts/check.sh --fast     # skip the sanitizer-unfriendly smoke run
#   scripts/check.sh --fuzz[=N] # build the libFuzzer harnesses (Clang only)
#                               # and run each over its seed corpus for N
#                               # seconds (default 30); crash artifacts land
#                               # in build-fuzzer/artifacts/<target>/
set -euo pipefail
cd "$(dirname "$0")/.."

preset=default
smoke=1
tidy=0
fuzz=0
fuzz_seconds=30
for arg in "$@"; do
    case "$arg" in
        --asan) preset=asan-ubsan ;;
        --tsan) preset=tsan ;;
        --audit) preset=audit ;;
        --intsan) preset=intsan ;;
        --werror) preset=werror ;;
        --tidy) tidy=1 ;;
        --fast) smoke=0 ;;
        --fuzz) fuzz=1 ;;
        --fuzz=*) fuzz=1; fuzz_seconds="${arg#--fuzz=}" ;;
        *) echo "usage: $0 [--asan|--tsan|--audit|--intsan|--werror|--tidy|--fuzz[=N]] [--fast]" >&2
           exit 2 ;;
    esac
done

echo "== static analyzer =="
# Content-stamped like clang-tidy below: the analyzer's input is the source
# tree plus the analyzer itself.
mkdir -p build
analyzer_stamp_file=build/analyzer.stamp
analyzer_stamp="$( (cat scripts/jaws_analyzer.py;
                    find src -type f \( -name '*.h' -o -name '*.cpp' \) -print0 |
                        sort -z | xargs -0 cat) | sha256sum | cut -d' ' -f1)"
if [[ -f "$analyzer_stamp_file" && "$(cat "$analyzer_stamp_file")" == "$analyzer_stamp" ]]; then
    echo "jaws_analyzer: cached clean run ($analyzer_stamp)"
else
    python3 scripts/jaws_analyzer.py --self-test
    python3 scripts/jaws_analyzer.py
    echo "$analyzer_stamp" > "$analyzer_stamp_file"
fi

if [[ "$tidy" == 1 ]]; then
    echo "== configure (default, for compile_commands.json) =="
    cmake --preset default

    command -v clang-tidy >/dev/null 2>&1 || {
        echo "check.sh --tidy: clang-tidy not found on PATH" >&2
        echo "(CI installs it; locally: apt-get install clang-tidy)" >&2
        exit 3
    }

    # Cache: skip the run when nothing that feeds clang-tidy has changed --
    # including the build configuration (CMakeLists.txt / CMakePresets.json
    # change compile flags, and flags change diagnostics).
    # CI persists build/tidy.stamp keyed the same way.
    stamp_file=build/tidy.stamp
    stamp="$( (clang-tidy --version; cat .clang-tidy CMakeLists.txt CMakePresets.json;
               find src -name CMakeLists.txt -print0 | sort -z | xargs -0 cat;
               find src -type f \( -name '*.h' -o -name '*.cpp' \) -print0 |
                   sort -z | xargs -0 cat) | sha256sum | cut -d' ' -f1)"
    if [[ -f "$stamp_file" && "$(cat "$stamp_file")" == "$stamp" ]]; then
        echo "== clang-tidy: cached clean run ($stamp) =="
        exit 0
    fi

    echo "== clang-tidy (zero-warnings gate over src/) =="
    mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build -quiet "${tidy_sources[@]}"
    else
        clang-tidy -p build --quiet "${tidy_sources[@]}"
    fi
    echo "$stamp" > "$stamp_file"
    echo "== clang-tidy clean =="
    exit 0
fi

if [[ "$fuzz" == 1 ]]; then
    command -v clang++ >/dev/null 2>&1 || {
        echo "check.sh --fuzz: clang++ not found on PATH" >&2
        echo "(libFuzzer needs Clang; the replay ctests cover the corpora" >&2
        echo " under any compiler: ctest -R FuzzReplay)" >&2
        exit 3
    }

    echo "== configure (fuzzer) =="
    cmake --preset fuzzer

    targets=(fuzz_event_queue fuzz_disk_model fuzz_config fuzz_trace)

    echo "== build (fuzzer) =="
    cmake --build --preset fuzzer -j "$(nproc)" --target "${targets[@]}"

    status=0
    for target in "${targets[@]}"; do
        artifacts="build-fuzzer/artifacts/$target"
        mkdir -p "$artifacts"
        echo "== fuzz $target (${fuzz_seconds}s) =="
        if ! "build-fuzzer/fuzz/$target" \
                -max_total_time="$fuzz_seconds" \
                -artifact_prefix="$artifacts/" \
                -print_final_stats=1 \
                "fuzz/corpus/$target"; then
            echo "check.sh --fuzz: $target found a crash; artifacts in $artifacts" >&2
            status=1
        fi
    done
    [[ "$status" == 0 ]] || exit "$status"
    echo "== fuzz smoke passed =="
    exit 0
fi

echo "== configure ($preset) =="
cmake --preset "$preset"

echo "== build =="
cmake --build --preset "$preset" -j "$(nproc)"

echo "== ctest =="
ctest --preset "$preset" -j "$(nproc)"

if [[ "$smoke" == 1 ]]; then
    build_dir=build
    case "$preset" in
        asan-ubsan) build_dir=build-asan ;;
        tsan) build_dir=build-tsan ;;
        audit) build_dir=build-audit ;;
        intsan) build_dir=build-intsan ;;
        werror) build_dir=build-werror ;;
    esac
    echo "== fault sweep smoke (determinism) =="
    "$build_dir/bench/fault_sweep" 10 > /tmp/jaws_fault_sweep_a.txt
    "$build_dir/bench/fault_sweep" 10 > /tmp/jaws_fault_sweep_b.txt
    diff /tmp/jaws_fault_sweep_a.txt /tmp/jaws_fault_sweep_b.txt
    echo "fault sweep reproducible"
fi

echo "== all checks passed =="
