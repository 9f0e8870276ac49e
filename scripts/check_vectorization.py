#!/usr/bin/env python3
"""Build-time check that the batched interpolation stencil vectorizes.

field::BatchInterpolator promises a SIMD-friendly stencil *without
intrinsics*: fixed trip counts, unit-stride interleaved rows and four
independent accumulator chains arranged so the compiler's vectorizer does
the packing. That property is silent — a refactor can de-vectorize the
kernel and every test still passes, only ~2x slower. This check recompiles
the kernel TU with the compiler's vectorization report enabled and fails
unless the report attributes at least one vectorization to
batch_interpolator.cpp.

Compiler specifics:
  * GCC   -- recompile with `-fopt-info-vec-optimized`. The stencil's
             floating-point reductions cannot *loop*-vectorize without
             reordering (which bit-exactness forbids, see DESIGN.md), so the
             expected evidence is SLP: "basic block part vectorized using
             N byte vectors". A "loop vectorized" line also counts.
  * Clang -- recompile with `-Rpass=loop-vectorize -Rpass=slp-vectorize`
             and accept either remark.
  * other -- skip with exit 0 and a note; the property is still covered on
             the CI toolchain.

The compile command comes from the build tree's compile_commands.json, so
the check sees exactly the production flags (-O2, -ffp-contract=off, ...),
minus any sanitizer flags: -fsanitize=... instrumentation stops GCC from
vectorizing the stencil, and the property guarded here is the production
build's, so the asan-ubsan and tsan trees check the same code the default
tree ships.

Usage:
    scripts/check_vectorization.py --compdb BUILD_DIR [--tu src/field/batch_interpolator.cpp]
    scripts/check_vectorization.py --self-test

Exit codes: 0 vectorized (or skipped), 1 not vectorized, 2 usage/internal.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys

DEFAULT_TU = "src/field/batch_interpolator.cpp"

# GCC attributes each optimization to file:line:col. SLP shows up as
# "basic block part vectorized"; a vectorized loop as "loop vectorized".
GCC_VEC_RE = re.compile(r"optimized:.*(basic block part vectorized|loop vectorized)")
# Clang: "remark: vectorized loop ..." / "remark: SLP vectorized ...".
CLANG_VEC_RE = re.compile(r"remark: .*(vectorized loop|SLP vectorized|Vectorized)")


def compiler_family(compiler: str) -> str:
    """'gcc', 'clang', or 'unknown' for the given compiler executable."""
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=30, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    head = out.splitlines()[0].lower() if out else ""
    if "clang" in head:
        return "clang"
    if "gcc" in head or "g++" in head or "free software foundation" in out.lower():
        return "gcc"
    return "unknown"


def load_command(compdb_dir: str, tu_suffix: str) -> tuple[list[str], str] | None:
    """(argv, directory) of the compile command for the TU, or None."""
    path = os.path.join(compdb_dir, "compile_commands.json")
    with open(path, encoding="utf-8") as f:
        db = json.load(f)
    for entry in db:
        if entry["file"].endswith(tu_suffix):
            argv = entry.get("arguments") or shlex.split(entry["command"])
            return argv, entry["directory"]
    return None


def production_flags(argv: list[str]) -> list[str]:
    """The compile command without its sanitizer flags (-fsanitize...,
    -fno-sanitize...)."""
    return [a for a in argv if not a.startswith(("-fsanitize", "-fno-sanitize"))]


def report_lines(argv: list[str], directory: str, family: str) -> str:
    """Recompile with the family's vectorization report; return its text."""
    cmd = production_flags(argv)
    # Drop the object output: the recompile is report-only.
    while "-o" in cmd:
        i = cmd.index("-o")
        del cmd[i:i + 2]
    if family == "gcc":
        cmd.append("-fopt-info-vec-optimized")
    else:
        cmd += ["-Rpass=loop-vectorize", "-Rpass=slp-vectorize"]
    cmd += ["-o", os.devnull]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"recompile failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    # GCC writes opt-info to stderr; clang writes remarks to stderr too.
    return proc.stderr + proc.stdout


def find_evidence(text: str, family: str, tu_basename: str) -> list[str]:
    """Vectorization-report lines attributed to the kernel TU."""
    pattern = GCC_VEC_RE if family == "gcc" else CLANG_VEC_RE
    hits = []
    for line in text.splitlines():
        if tu_basename in line and pattern.search(line):
            hits.append(line.strip())
    return hits


def self_test() -> int:
    gcc_sample = (
        "/root/repo/src/field/batch_interpolator.cpp:143:27: optimized: "
        "basic block part vectorized using 16 byte vectors\n"
        "/root/repo/src/field/other.cpp:9:1: optimized: loop vectorized\n"
        "/root/repo/src/field/batch_interpolator.cpp:90:5: note: not vectorized\n")
    hits = find_evidence(gcc_sample, "gcc", "batch_interpolator.cpp")
    assert len(hits) == 1, hits
    assert "16 byte vectors" in hits[0]
    assert not find_evidence(gcc_sample.replace("optimized:", "missed:"), "gcc",
                             "batch_interpolator.cpp")

    clang_sample = (
        "src/field/batch_interpolator.cpp:143:27: remark: SLP vectorized with "
        "cost -12 [-Rpass=slp-vectorize]\n"
        "src/field/batch_interpolator.cpp:80:5: remark: vectorized loop "
        "(vectorization width: 2) [-Rpass=loop-vectorize]\n")
    assert len(find_evidence(clang_sample, "clang", "batch_interpolator.cpp")) == 2

    assert GCC_VEC_RE.search("foo.cpp:1:1: optimized: loop vectorized using 32 byte vectors")

    asan = ["g++", "-O2", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-ffp-contract=off", "-c", "k.cpp"]
    assert production_flags(asan) == ["g++", "-O2", "-fno-omit-frame-pointer",
                                      "-ffp-contract=off", "-c", "k.cpp"], production_flags(asan)
    tsan = ["c++", "-fsanitize=thread", "-fno-tree-slp-vectorize", "-c", "k.cpp"]
    assert production_flags(tsan) == ["c++", "-fno-tree-slp-vectorize", "-c", "k.cpp"]
    print("check_vectorization self-test: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compdb", help="build directory containing compile_commands.json")
    parser.add_argument("--tu", default=DEFAULT_TU,
                        help=f"translation unit to check (default {DEFAULT_TU})")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.compdb:
        print("check_vectorization: --compdb is required (or --self-test)", file=sys.stderr)
        return 2

    found = load_command(args.compdb, args.tu)
    if found is None:
        print(f"check_vectorization: {args.tu} not found in compile_commands.json",
              file=sys.stderr)
        return 2
    argv, directory = found

    family = compiler_family(argv[0])
    if family == "unknown":
        print(f"check_vectorization: SKIP — unrecognised compiler '{argv[0]}' "
              "(vectorization is verified on the GCC/Clang CI toolchains)")
        return 0

    try:
        text = report_lines(argv, directory, family)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"check_vectorization: internal error: {err}", file=sys.stderr)
        return 2

    hits = find_evidence(text, family, os.path.basename(args.tu))
    if not hits:
        print(f"check_vectorization: FAIL — {family} reported no vectorization in "
              f"{args.tu}. The batched stencil has de-vectorized; see the header "
              "comment in src/field/batch_interpolator.h for the layout contract.",
              file=sys.stderr)
        relevant = [l for l in text.splitlines() if os.path.basename(args.tu) in l]
        for line in relevant[:20]:
            print(f"  {line.strip()}", file=sys.stderr)
        return 1

    print(f"check_vectorization: OK — {len(hits)} vectorized site(s) in {args.tu} "
          f"({family}):")
    for line in hits[:8]:
        print(f"  {line}")
    if len(hits) > 8:
        print(f"  ... and {len(hits) - 8} more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
