#!/usr/bin/env python3
"""Static gate for the JAWS source tree: determinism, semantics and layering.

Every scheduling and accounting result in this repository must be
bit-reproducible: the golden digests, the Eq. 1 cost-model shapes and the
seeded fault schedules all assume that no decision reads a wall clock,
unseeded randomness or hash order, and that the modules stay layered so
those contracts compose bottom-up. This script walks the seven modules
src/{util,field,storage,cache,workload,sched,core} once and checks ten
rules on that walk. Two more rules are the compiler's. No `==`/`!=` with a
floating operand: src/CMakeLists.txt builds every src/ target with
-Werror=float-equal, which knows each operand's type. No raw tick access:
SimTime's microsecond count is private, so no code outside
src/util/sim_time.h, in src/ or any other directory, can reach around its
saturating operators.

Determinism. wall-clock and ambient-random run only in the six decision
modules src/{core,sched,storage,cache,field,workload}; util/ is exempt
because util/wallclock.cpp is the sanctioned clock reader. The
unordered-container ban runs in all seven modules.

  wall-clock           std::chrono::{system,steady,high_resolution,...}_clock,
                       time()/clock()/gettimeofday()/clock_gettime() -- time
                       must come only from the virtual clock (util::SimTime)
                       or the util::wall_clock_ns tick source benches inject.
  ambient-random       rand()/srand(), std::random_device, and
                       default-constructed (unseeded) standard engines --
                       randomness must flow from an explicit seed
                       (util/rng.h).
  unordered-container  any unordered_{map,set,multimap,multiset} token,
                       an #include of one too: hash order is a function of
                       the standard library's bucket layout, so src/ keys
                       its id tables with util::SlotMap (walked in slot
                       order) and its tallies with ordered containers. A ban
                       on the type needs no inference, so no alias, typedef,
                       `auto` binding, comma declaration or other header can
                       hide an iteration from it.

Semantics:

  kernel-blocking      no blocking or wall-clock call may be reachable from a
                       discrete-event handler (a lambda passed to
                       EventQueue::schedule / SimResource::submit /
                       set_idle_hook / set_observer, or assigned to a
                       SimResource::Job hook): the kernel runs handlers on the
                       virtual timeline, so a sleep, condition-variable wait,
                       join, or steady_clock::now() inside one either stalls
                       the simulation or leaks wall time into it. Calls are
                       followed through helper functions defined in the same
                       file.
  narrowing-cast       static_cast to an integer narrower than 64 bits whose
                       operand involves SimTime/raw_micros() tick
                       arithmetic -- microsecond counters overflow int32
                       after ~36 minutes of virtual time.
  raw-id-api           raw integer parameters named like identities (atom,
                       node, channel, self, primary, owner, replica, and
                       their _id/_idx/_index forms) in the public headers of
                       src/{core,sched,storage,workload}: identity-carrying
                       API surfaces must take util::AtomKey / util::NodeIndex
                       / util::ChannelIndex so id spaces cannot be swapped
                       silently. Raw coordinates (morton) and cardinalities
                       (nodes, channels) stay plain integers.
  id-mixing            arithmetic combining `.value()` escapes of *distinct*
                       strong id types (e.g. AtomKey + NodeIndex): unwrapping
                       two different id spaces into one expression is the
                       exact mixing bug the types exist to prevent.

Layering, over every quoted #include:

    util  <  field  <  storage  <  cache  |  workload  <  sched  <  core

(util has no dependencies; cache and workload are siblings above storage;
sched sits above both because scheduling ranks workload::Job queries and
coordinates with the cache's utility oracle; core composes everything.)

  upward-include       a module including a header from a module outside its
                       allowed dependency set (e.g. storage including sched).
  unknown-module       a quoted include whose first path component is not a
                       known module (typos, accidental new top-level dirs).
  include-cycle        any cycle in the actual module include graph,
                       reported at its first edge. Waived includes still
                       count as edges, so this guards the day the allowed
                       sets themselves are loosened; the report itself
                       cannot be waived.

The rules read text, not types: comments and literals are blanked, then each
rule matches names, declarations and bracket structure in the file and its
paired header. DESIGN.md ("Static analyzer, module layering & contract
audits") records what that gives up.

Escape hatch: a line carrying
    // jaws-lint: allow(<rule>[, <rule>...])
suppresses those rules on its own line and through the comment lines below
it down to the first code line, so a multi-line justification stays
attached to the statement it covers. Every allow is expected to carry a
written justification proving the site safe.

Usage:
    scripts/jaws_analyzer.py [--root R]    # analyze the tree under R
    scripts/jaws_analyzer.py --self-test   # run the fixture suite

Exit codes: 0 clean, 1 violations found, 2 no src/ under the root.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from typing import NamedTuple

# module -> modules it may include (its own module is always allowed). The
# keys are also the walk: every rule runs over src/<module>/ for each key.
ALLOWED_DEPS: dict[str, set[str]] = {
    "util": set(),
    "field": {"util"},
    "storage": {"field", "util"},
    "cache": {"storage", "field", "util"},
    "workload": {"storage", "field", "util"},
    "sched": {"workload", "cache", "storage", "field", "util"},
    "core": {"sched", "workload", "cache", "storage", "field", "util"},
}
# wall-clock and ambient-random run only here.
DECISION_MODULES = ("core", "sched", "storage", "cache", "field", "workload")
# raw-id-api runs only on these modules' headers.
ID_API_MODULES = ("core", "sched", "storage", "workload")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

ALLOW_RE = re.compile(r"//\s*jaws-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "else", "do", "assert", "static_assert", "alignof", "decltype",
    "case", "throw", "co_await", "co_return",
}

# wall-clock / ambient-random
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock"
    r"|file_clock|utc_clock|tai_clock|gps_clock)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0|&|\))"
    r"|\bclock\s*\(\s*\)"
    r"|\b(?:localtime|gmtime|mktime)\s*\("
)
AMBIENT_RANDOM_RE = re.compile(
    r"std::random_device"
    r"|\bsrand\s*\("
    r"|\brand\s*\(\s*\)"
    # Default-constructed (unseeded) standard engines: `std::mt19937 gen;`
    # or `std::mt19937 gen{};`. Seeded forms `gen(seed)` / `gen{seed}` pass.
    r"|\b(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux24|ranlux48|ranlux24_base|ranlux48_base|knuth_b)\s+\w+\s*(?:;|\{\s*\})"
)

# unordered-container
UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

# kernel-blocking
BLOCKING_RE = re.compile(
    r"std::this_thread::sleep_(?:for|until)"
    r"|\busleep\s*\(|\bnanosleep\s*\(|\bsleep\s*\("
    r"|\.(?:wait|wait_for|wait_until|join)\s*\("
    r"|std::chrono::(?:system_clock|steady_clock|high_resolution_clock)::now"
    r"|\bwall_clock_ns\s*\("
)
HANDLER_CALL_RE = re.compile(
    r"\b(?:schedule|submit|set_idle_hook|set_observer)\s*\(")
HANDLER_ASSIGN_RE = re.compile(r"\.(?:on_start|on_complete|on_abort)\s*=")
CALLED_NAME_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
FUNC_HEAD_RE = re.compile(
    r"\b([A-Za-z_~]\w*)\s*\(((?:[^()]|\([^()]*\))*)\)\s*"
    r"(?:const\s*)?(?:noexcept(?:\s*\([^)]*\))?\s*)?(?:override\s*)?(?:final\s*)?"
    r"(?:->\s*[\w:<>&*,\s]+?)?(?:\s*:\s*[^{};]*)?\s*\{")

# narrowing-cast
NARROW_CAST_RE = re.compile(
    r"static_cast\s*<\s*((?:std::)?(?:u?int(?:8|16|32)_t|int|unsigned(?:\s+int)?"
    r"|short|unsigned\s+short|signed\s+char|unsigned\s+char|char))\s*>\s*\(")
TIME_OPERAND_RE = re.compile(r"\b(?:raw_)?micros\b|\bSimTime\b")

# raw-id-api
ID_PARAM_NAME_RE = re.compile(
    r"^(?:atom|node|channel|self|primary|owner|replica)"
    r"(?:_(?:id|idx|index))?$")
RAW_INT_PARAM_RE = re.compile(
    r"\b(?:const\s+)?(?:std::)?"
    r"(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t"
    r"|unsigned(?:\s+(?:long\s+long|long|int|short|char))?"
    r"|long\s+long|long|int|short)"
    r"\s+([A-Za-z_]\w*)\b")

# id-mixing: `.value()` escapes of distinct strong id types in one
# arithmetic expression, restricted to the canonical TypedId aliases.
ID_TYPE_NAMES = ("AtomKey", "NodeIndex", "ChannelIndex")
ID_DECL_RE = re.compile(
    r"\b(?:\w+::)*(" + "|".join(ID_TYPE_NAMES) + r")\b"
    r"(?:\s+const)?\s*&?\s*([A-Za-z_]\w*)")
ID_VALUE_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)(?:\.|->)value\s*\(\s*\)")
ARITH_OP_RE = re.compile(r"(?<![+\-*/%<>=!&|^])([+\-*/%])(?![+\-*/%=>])")
# Operand windows for id-mixing stop at statement-level boundaries only:
# `x.value()` ends in `)`, so a boundary at parentheses would hide every
# escape from its own operand window.
ID_MIX_BOUNDARY_RE = re.compile(
    r"[;{},?]|&&|\|\||\breturn\b|(?<![=!<>+\-*/%&|^])=(?![=])")

# upward-include / unknown-module / include-cycle
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


class Violation(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class IncludeEdge(NamedTuple):
    path: str
    line: int
    from_module: str
    include: str
    to_module: str | None  # None: the include names no known module


# ---------------------------------------------------------------------------
# Text helpers
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets and
    newlines so line numbers survive. Keeps `// jaws-lint:` directives out of
    pattern matching (they are read from the raw text separately)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed_rules_by_line(raw_lines: list[str]) -> dict[int, set[str]]:
    """Rules allowed per 1-based line. A directive covers its own line and
    extends through any directly following comment-only/blank lines (the
    justification text) to the first code line after it, so multi-line
    justifications remain attached to the statement they cover."""
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allowed.setdefault(lineno, set()).update(rules)
        cursor = lineno + 1
        while cursor <= len(raw_lines):
            allowed.setdefault(cursor, set()).update(rules)
            stripped = raw_lines[cursor - 1].strip()
            if stripped != "" and not stripped.startswith("//"):
                break  # first code line reached: coverage ends here
            cursor += 1
    return allowed


def match_bracket(code: str, start: int, open_ch: str, close_ch: str) -> int | None:
    """Offset of the bracket closing the one at `start`, or None."""
    assert code[start] == open_ch
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return None


def module_of(display_path: str) -> str:
    parts = display_path.split("/")
    return parts[1] if len(parts) > 2 and parts[0] == "src" else ""


def operand_windows(code: str, start: int, end: int) -> tuple[str, str]:
    """Text of the (approximate) left and right operands of the binary
    operator spanning [start, end), each cut at the nearest statement-level
    boundary."""
    left_src = code[max(0, start - 200):start]
    boundaries = [m.end() for m in ID_MIX_BOUNDARY_RE.finditer(left_src)]
    left = left_src[boundaries[-1]:] if boundaries else left_src
    right_src = code[end:end + 200]
    m = ID_MIX_BOUNDARY_RE.search(right_src)
    right = right_src[:m.start()] if m else right_src
    return left, right


# ---------------------------------------------------------------------------
# kernel-blocking
# ---------------------------------------------------------------------------

def function_bodies(code: str) -> dict[str, list[tuple[int, int]]]:
    """Map function/method name -> body ranges defined in this text."""
    bodies: dict[str, list[tuple[int, int]]] = {}
    for m in FUNC_HEAD_RE.finditer(code):
        name = m.group(1).lstrip("~")
        if name in KEYWORDS:
            continue
        brace = m.end() - 1
        end = match_bracket(code, brace, "{", "}")
        if end is None:
            continue
        bodies.setdefault(name, []).append((brace + 1, end))
    return bodies


def lambda_bodies_in(code: str, start: int, end: int) -> list[tuple[int, int]]:
    """Body ranges of lambda expressions whose introducer lies in [start, end)."""
    out: list[tuple[int, int]] = []
    i = start
    n = len(code)
    while i < min(end, n):
        if code[i] != "[":
            i += 1
            continue
        j = i - 1
        while j >= 0 and code[j] in " \t\n":
            j -= 1
        if j >= 0 and (code[j].isalnum() or code[j] in "_)]"):
            i += 1  # array subscript, not a lambda introducer
            continue
        close = match_bracket(code, i, "[", "]")
        if close is None:
            i += 1
            continue
        k = close + 1
        while k < n and code[k] in " \t\n":
            k += 1
        if k < n and code[k] == "(":
            pclose = match_bracket(code, k, "(", ")")
            if pclose is None:
                i = close + 1
                continue
            k = pclose + 1
        m = re.match(
            r"\s*(?:mutable\s*)?(?:noexcept(?:\s*\([^)]*\))?\s*)?"
            r"(?:->\s*[\w:<>&*\s]+?)?\s*\{", code[k:])
        if not m:
            i = close + 1
            continue
        bstart = k + m.end() - 1
        bend = match_bracket(code, bstart, "{", "}")
        if bend is None:
            i = close + 1
            continue
        out.append((bstart + 1, bend))
        i = bstart + 1  # descend: nested lambdas are handlers too
    return out


def handler_ranges(code: str) -> list[tuple[int, int]]:
    """Body ranges of every event-handler lambda in this text."""
    ranges: list[tuple[int, int]] = []
    for m in HANDLER_CALL_RE.finditer(code):
        paren = code.find("(", m.end() - 1)
        if paren < 0:
            continue
        close = match_bracket(code, paren, "(", ")")
        if close is None:
            continue
        ranges.extend(lambda_bodies_in(code, paren + 1, close))
    for m in HANDLER_ASSIGN_RE.finditer(code):
        stmt_end = code.find(";", m.end())
        if stmt_end < 0:
            stmt_end = len(code)
        ranges.extend(lambda_bodies_in(code, m.end(), stmt_end))
    return ranges


def reachable_ranges(code: str) -> list[tuple[int, int]]:
    """Handler bodies plus the bodies of every same-file function reachable
    from them (transitively)."""
    ranges = handler_ranges(code)
    if not ranges:
        return []
    bodies = function_bodies(code)
    seen_names: set[str] = set()
    frontier = list(ranges)
    while frontier:
        lo, hi = frontier.pop()
        for m in CALLED_NAME_RE.finditer(code, lo, hi):
            name = m.group(1)
            if name in KEYWORDS or name in seen_names:
                continue
            seen_names.add(name)
            for body in bodies.get(name, []):
                frontier.append(body)
                ranges.append(body)
    return ranges


# ---------------------------------------------------------------------------
# raw-id-api / id-mixing
# ---------------------------------------------------------------------------

def in_parameter_list(code: str, pos: int) -> bool:
    """True when `pos` sits inside a function's parameter parentheses: an
    unmatched `(` opens before it in the current statement and that paren is
    introduced by an identifier (the function name), not a control keyword."""
    depth = 0
    i = pos - 1
    while i >= 0:
        ch = code[i]
        if ch == ")":
            depth += 1
        elif ch == "(":
            if depth == 0:
                break
            depth -= 1
        elif ch in ";{}" and depth == 0:
            return False
        i -= 1
    else:
        return False
    j = i - 1
    while j >= 0 and code[j] in " \t\n":
        j -= 1
    end = j + 1
    while j >= 0 and (code[j].isalnum() or code[j] == "_"):
        j -= 1
    name = code[j + 1:end]
    return bool(name) and name not in KEYWORDS


def id_decl_types(code: str) -> dict[str, str]:
    """Variable/parameter name -> strong id type, for ID_TYPE_NAMES decls."""
    return {m.group(2): m.group(1) for m in ID_DECL_RE.finditer(code)}


def id_types_in(text: str, decls: dict[str, str]) -> set[str]:
    """Strong id types whose `.value()` escape appears in `text`."""
    return {decls[m.group(1)] for m in ID_VALUE_CALL_RE.finditer(text)
            if m.group(1) in decls}


# ---------------------------------------------------------------------------
# Per-file rules
# ---------------------------------------------------------------------------

def analyze_file(code: str, display_path: str, header: str) -> list[Violation]:
    """Findings of every rule but the layering ones in one source file.
    `code` is the file's comment-stripped text and `header` its paired
    header's ("" when it has none). Waivers are applied later."""
    module = module_of(display_path)
    violations: list[Violation] = []

    def flag(offset: int, rule: str, message: str) -> None:
        line = code.count("\n", 0, offset) + 1
        violations.append(Violation(display_path, line, rule, message))

    if module in DECISION_MODULES:
        for m in WALL_CLOCK_RE.finditer(code):
            flag(m.start(), "wall-clock",
                 f"wall-clock read `{m.group(0).strip()}` in deterministic core "
                 "(use util::SimTime / an injected tick source)")

        for m in AMBIENT_RANDOM_RE.finditer(code):
            flag(m.start(), "ambient-random",
                 f"ambient randomness `{m.group(0).strip()}` in deterministic "
                 "core (seed explicitly via util/rng.h)")

    for m in UNORDERED_RE.finditer(code):
        flag(m.start(), "unordered-container",
             f"`{m.group(0)}` in src/: hash order is not deterministic -- key "
             "the table with util::SlotMap or use an ordered container")

    ranges = reachable_ranges(code)
    if ranges:
        flagged: set[int] = set()
        for m in BLOCKING_RE.finditer(code):
            if m.start() in flagged:
                continue
            if any(lo <= m.start() < hi for lo, hi in ranges):
                flagged.add(m.start())
                flag(m.start(), "kernel-blocking",
                     f"blocking/wall-clock call `{m.group(0).strip()}` is "
                     "reachable from a discrete-event handler (handlers run on "
                     "the virtual timeline; model delays with "
                     "EventQueue::schedule instead)")

    for m in NARROW_CAST_RE.finditer(code):
        paren = code.rfind("(", 0, m.end())
        close = match_bracket(code, paren, "(", ")")
        arg = code[paren + 1:close] if close is not None else code[paren + 1:paren + 200]
        if TIME_OPERAND_RE.search(arg):
            flag(m.start(), "narrowing-cast",
                 f"static_cast<{m.group(1)}> narrows SimTime/tick arithmetic "
                 "(microsecond counts overflow 32 bits in ~36 virtual minutes; "
                 "keep tick math in std::int64_t)")

    if display_path.endswith((".h", ".hpp")) and module in ID_API_MODULES:
        for m in RAW_INT_PARAM_RE.finditer(code):
            name = m.group(1)
            if ID_PARAM_NAME_RE.match(name) and in_parameter_list(code, m.start()):
                flag(m.start(1), "raw-id-api",
                     f"parameter `{name}` carries an identity as a raw integer "
                     "in a public header; take util::AtomKey / util::NodeIndex "
                     "/ util::ChannelIndex so id spaces cannot be swapped "
                     "silently")

    id_decls = id_decl_types(code) | id_decl_types(header)
    if id_decls:
        for m in ARITH_OP_RE.finditer(code):
            left, right = operand_windows(code, m.start(), m.end())
            lt = id_types_in(left, id_decls)
            rt = id_types_in(right, id_decls)
            if lt and rt and lt.isdisjoint(rt):
                flag(m.start(), "id-mixing",
                     f"arithmetic mixes distinct id spaces "
                     f"({', '.join(sorted(lt))} vs {', '.join(sorted(rt))}); "
                     "unwrapping two different strong id types into one "
                     "expression defeats the typing")

    return violations


# ---------------------------------------------------------------------------
# Layering rules
# ---------------------------------------------------------------------------

def include_edges(raw: str, display_path: str) -> list[IncludeEdge]:
    """Every quoted #include in one file's raw text. A same-directory include
    ("foo.h") stays in the file's own module."""
    from_module = module_of(display_path)
    edges = []
    for m in INCLUDE_RE.finditer(raw):
        include = m.group(1)
        if "/" not in include:
            to_module = from_module
        else:
            first = include.split("/")[0]
            to_module = first if first in ALLOWED_DEPS else None
        edges.append(IncludeEdge(display_path, raw.count("\n", 0, m.start()) + 1,
                                 from_module, include, to_module))
    return edges


def module_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """The first cycle a depth-first search in sorted order meets, as a
    closed module path (first == last), or None."""
    state: dict[str, int] = {}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if state.get(nxt, 0) == 0:
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
        state[node] = 2
        stack.pop()
        return None

    for module in sorted(graph):
        if state.get(module, 0) == 0:
            cycle = dfs(module)
            if cycle is not None:
                return cycle
    return None


def layering_violations(edges: list[IncludeEdge]) -> list[Violation]:
    """upward-include and unknown-module findings, one per offending edge."""
    violations: list[Violation] = []
    for e in edges:
        if e.to_module is None:
            violations.append(Violation(
                e.path, e.line, "unknown-module",
                f'#include "{e.include}" does not start with a known module '
                f"({', '.join(sorted(ALLOWED_DEPS))})"))
            continue
        if e.to_module == e.from_module:
            continue
        if e.to_module not in ALLOWED_DEPS[e.from_module]:
            below = ", ".join(sorted(ALLOWED_DEPS[e.from_module])) or "(nothing)"
            violations.append(Violation(
                e.path, e.line, "upward-include",
                f"module `{e.from_module}` must not include `{e.include}`: "
                f"`{e.from_module}` may depend only on {below}"))
    return violations


def include_cycle(edges: list[IncludeEdge]) -> list[Violation]:
    """The first cycle in the actual module graph, reported at its first
    edge. Waived edges count, so the check is independent of the allowed
    sets; the caller adds this finding after the waiver filter."""
    first_site: dict[tuple[str, str], tuple[str, int]] = {}
    for e in edges:
        if e.to_module is not None and e.to_module != e.from_module:
            first_site.setdefault((e.from_module, e.to_module), (e.path, e.line))
    graph: dict[str, set[str]] = {m: set() for m in ALLOWED_DEPS}
    for a, b in first_site:
        graph[a].add(b)
    cycle = module_cycle(graph)
    if cycle is None:
        return []
    path, line = first_site[(cycle[0], cycle[1])]
    return [Violation(path, line, "include-cycle",
                      "module include cycle: " + " -> ".join(cycle))]


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

def tree_files(root: str) -> list[tuple[str, str]]:
    """(path, display path) of every source file under src/<module>/; the
    display path is relative to `root`, with '/' separators."""
    files: list[tuple[str, str]] = []
    for module in ALLOWED_DEPS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src", module)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    files.append((path, os.path.relpath(path, root).replace(os.sep, "/")))
    return files


def paired_header(display_path: str, code: dict[str, str]) -> str:
    """Stripped text of foo.h/foo.hpp for foo.cpp/foo.cc; "" when none."""
    if display_path.endswith((".cpp", ".cc")):
        stem = os.path.splitext(display_path)[0]
        for ext in (".h", ".hpp"):
            if stem + ext in code:
                return code[stem + ext]
    return ""


def filter_waived(violations: list[Violation],
                  waivers: dict[str, dict[int, set[str]]]) -> list[Violation]:
    """Drop findings covered by a `// jaws-lint: allow(<rule>)` directive;
    `waivers` maps display path -> line -> waived rules."""
    return [v for v in violations if v.rule not in waivers[v.path].get(v.line, ())]


def analyze_tree(root: str) -> list[Violation]:
    """Every unwaived finding of every rule under `root`, sorted by
    (path, line, rule); equal keys keep their match order."""
    raw: dict[str, str] = {}
    for path, display_path in tree_files(root):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw[display_path] = f.read()
    code = {p: strip_comments_and_strings(text) for p, text in raw.items()}
    found: list[Violation] = []
    edges: list[IncludeEdge] = []
    for p, text in raw.items():
        found.extend(analyze_file(code[p], p, paired_header(p, code)))
        edges.extend(include_edges(text, p))
    found.extend(layering_violations(edges))
    waivers = {p: allowed_rules_by_line(text.splitlines()) for p, text in raw.items()}
    kept = filter_waived(found, waivers) + include_cycle(edges)
    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return kept


# ---------------------------------------------------------------------------
# Self-test: every rule, seeded and clean, plus waivers and rule scopes.
# ---------------------------------------------------------------------------

# Declarations the semantic fixtures lean on, so each fixture reads as a
# self-contained translation unit (and the rules see the look-alike members
# -- steady_clock::now, EventQueue::schedule -- next to the code under
# test).
FIXTURE_PRELUDE = """
namespace std {
struct mutex { void lock(); void unlock(); };
struct condition_variable { template <class L> void wait(L&); };
namespace chrono { struct steady_clock { static long now(); }; }
namespace this_thread { template <class D> void sleep_for(D); }
template <class T> struct vector {
    T* begin(); T* end(); const T* begin() const; const T* end() const;
};
}  // namespace std
struct SimTime { long long micros; long long raw_micros() const; };
struct AtomKey { unsigned long long v; unsigned long long value() const; };
struct NodeIndex { unsigned v; unsigned value() const; };
struct ChannelIndex { unsigned long v; unsigned long value() const; };
struct EventQueue {
    template <class F> unsigned long schedule(SimTime, int, F);
};
"""

# (path under the fixture root, source, expected rules in file order). All
# share one tree: no fixture trips a rule meant for another.
FIXTURES = [
    # -- wall-clock, ambient-random, unordered-container, waiver syntax --
    ("src/core/bad_clock.cpp",
     """#include <chrono>
void f() {
    auto t0 = std::chrono::steady_clock::now();
    auto t1 = std::chrono::system_clock::now();
    (void)t0; (void)t1;
}
""",
     ["wall-clock", "wall-clock"]),
    ("src/core/bad_ctime.cpp",
     """#include <ctime>
long f() { return time(nullptr) + clock(); }
""",
     ["wall-clock", "wall-clock"]),
    ("src/core/ok_simtime.cpp",
     """// sim_time/next_time must not trip the `time(` pattern.
struct G { double sim_time(unsigned t) const { return t * 0.1; } };
double f(const G& g) { return g.sim_time(3); }
""",
     []),
    ("src/core/bad_random.cpp",
     """#include <random>
#include <cstdlib>
int f() {
    std::random_device rd;
    std::mt19937 gen;
    srand(42);
    return rand() + static_cast<int>(gen()) + static_cast<int>(rd());
}
""",
     ["ambient-random", "ambient-random", "ambient-random", "ambient-random"]),
    ("src/core/ok_seeded.cpp",
     """#include <random>
unsigned f(unsigned seed) {
    std::mt19937 gen(seed);       // seeded: fine
    std::mt19937_64 g2{seed};     // seeded: fine
    return static_cast<unsigned>(gen() + g2());
}
""",
     []),
    ("src/core/ok_multi_rule_allow.cpp",
     """// One directive may list several hyphenated rules (the analyzer's
// raw-id-api / id-mixing waivers share this parser).
#include <chrono>
long f() {
    // jaws-lint: allow(wall-clock, ambient-random) -- fixture: list syntax.
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
     []),
    # One finding per token, the include's too, however the declaration is
    # written: here one declaration names two containers.
    ("src/core/bad_unordered_comma.cpp",
     """#include <unordered_map>
int f() {
    std::unordered_map<int, int> a, b;
    int total = 0;
    for (const auto& [k, v] : b) total += v;
    return total + static_cast<int>(a.size());
}
""",
     ["unordered-container", "unordered-container"]),
    # Only code counts: the same names in comments and literals are text.
    ("src/core/ok_unordered_in_text.cpp",
     """// A std::unordered_map<int, int> in a comment declares nothing,
/* nor does #include <unordered_set> in a block comment. */
const char* f() { return "std::unordered_multimap<int, int> counts;"; }
""",
     []),
    ("src/core/ok_allowlisted.cpp",
     """#include <chrono>
#include <ctime>
long f() {
    // jaws-lint: allow(wall-clock) -- measurement sink, never fed back.
    auto t = std::chrono::steady_clock::now();
    (void)t;
    return time(nullptr);  // jaws-lint: allow(wall-clock) -- same-line waiver.
}
""",
     []),
    ("src/core/ok_strings_comments.cpp",
     """// std::chrono::steady_clock in a comment is fine.
const char* f() { return "std::random_device rand( time( "; }
""",
     []),
    ("src/core/ok_multiline_justification.cpp",
     """#include <chrono>
long f() {
    // jaws-lint: allow(wall-clock) -- a justification that
    // spans several comment lines must keep the directive attached
    // to the statement below it.
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
     []),
    # A .cpp reads its paired header's declarations: the two members mixed
    # here are declared with their id types only in paired.h.
    ("src/core/paired.h", FIXTURE_PRELUDE + """
struct Paired {
    unsigned long long fold() const;
    AtomKey atom_;
    NodeIndex node_;
};
""",
     []),
    ("src/core/paired.cpp",
     """#include "paired.h"
unsigned long long Paired::fold() const {
    return atom_.value() + node_.value();  // members from the header
}
""",
     ["id-mixing"]),
    # Pin the walk itself: a regression that drops a module from it makes
    # these fixtures silently pass and fails the self-test.
    ("src/workload/bad_workload_wall_clock.cpp",
     """#include <ctime>
long stamp() { return static_cast<long>(time(nullptr)); }
""",
     ["wall-clock"]),
    # Pin the scope of wall-clock and ambient-random: they follow the six
    # decision modules, not the walk, so util/ may read a clock (wallclock.cpp
    # is the sanctioned reader) and construct a random_device. The
    # unordered-container ban follows the walk, util/ included.
    ("src/util/ok_util_clock.cpp",
     """#include <chrono>
#include <random>
long stamp() {
    std::random_device rd;
    return std::chrono::steady_clock::now().time_since_epoch().count()
           + static_cast<long>(rd());
}
""",
     []),
    ("src/util/bad_util_unordered.h",
     """#pragma once
#include <unordered_set>
struct Registry {
    std::unordered_set<unsigned long> ids;
    std::unordered_multimap<unsigned, unsigned long> by_owner;
};
""",
     ["unordered-container", "unordered-container", "unordered-container"]),

    # -- kernel-blocking, narrowing-cast, raw-id-api, id-mixing --
    ("src/core/bad_blocking_direct.cpp", FIXTURE_PRELUDE + """
void f(EventQueue& q, SimTime t) {
    q.schedule(t, 0, [] { std::this_thread::sleep_for(5); });
}
""", ["kernel-blocking"]),
    ("src/core/bad_blocking_transitive.cpp", FIXTURE_PRELUDE + """
std::mutex m;
std::condition_variable cv;
void helper() { cv.wait(m); }
void f(EventQueue& q, SimTime t) {
    q.schedule(t, 0, [] { helper(); });
}
""", ["kernel-blocking"]),
    ("src/core/ok_blocking_unreachable.cpp", FIXTURE_PRELUDE + """
// Blocking outside any handler is the thread pool's business, not ours.
void shutdown_path() { std::this_thread::sleep_for(5); }
void f(EventQueue& q, SimTime t) {
    q.schedule(t, 0, [] { int x = 1; (void)x; });
}
""", []),
    ("src/core/ok_blocking_waived.cpp", FIXTURE_PRELUDE + """
void f(EventQueue& q, SimTime t) {
    q.schedule(t, 0, [] {
        // jaws-lint: allow(kernel-blocking) -- fixture: proven-safe site.
        std::this_thread::sleep_for(5);
    });
}
""", []),
    ("src/core/bad_narrow_cast.cpp", FIXTURE_PRELUDE + """
int f(SimTime t) { return static_cast<int>(t.micros); }
unsigned g(SimTime t) { return static_cast<unsigned int>(t.micros / 1000); }
int h(SimTime t) { return static_cast<int>(t.raw_micros()); }
""", ["narrowing-cast", "narrowing-cast", "narrowing-cast"]),
    ("src/core/ok_wide_cast.cpp", FIXTURE_PRELUDE + """
long long f(SimTime t) { return static_cast<long long>(t.micros); }
double g(SimTime t) { return static_cast<double>(t.micros); }
int h(int count) { return static_cast<int>(count + 1); }
""", []),
    ("src/core/bad_raw_id_api.h", FIXTURE_PRELUDE + """
struct Router {
    void route(unsigned node,
               int channel);
    unsigned long owner_of(unsigned long long atom) const;
};
""", ["raw-id-api", "raw-id-api", "raw-id-api"]),
    ("src/core/ok_typed_id_api.h", FIXTURE_PRELUDE + """
struct Router {
    void route(NodeIndex node, AtomKey atom);
    NodeIndex owner_of(unsigned long long morton, unsigned long nodes) const;
};
""", []),
    ("src/core/bad_id_mixing.cpp", FIXTURE_PRELUDE + """
unsigned long long fold(AtomKey atom, NodeIndex node) {
    return atom.value() + node.value();
}
""", ["id-mixing"]),
    ("src/core/ok_id_same_space.cpp", FIXTURE_PRELUDE + """
unsigned ring_distance(NodeIndex a, NodeIndex b, AtomKey atom) {
    unsigned long long morton = atom.value() * 2;
    return a.value() - b.value() + static_cast<unsigned>(morton);
}
""", []),

    # -- upward-include, unknown-module --
    ("src/util/ok_leaf.h", '#include "util/other.h"\n#include <vector>\n', []),
    ("src/storage/ok_down.h",
     '#include "field/grid.h"\n#include "util/morton.h"\n#include "local.h"\n', []),
    ("src/storage/bad_up.h", '#include "sched/scheduler.h"\n', ["upward-include"]),
    ("src/cache/bad_sibling.h", '#include "workload/job.h"\n', ["upward-include"]),
    ("src/field/bad_unknown.h", '#include "vendor/blas.h"\n', ["unknown-module"]),
    ("src/field/ok_waived.h",
     '// jaws-lint: allow(upward-include) -- fixture: sanctioned exception.\n'
     '#include "cache/buffer_cache.h"\n', []),
    ("src/core/ok_top.cpp",
     '#include "sched/scheduler.h"\n#include "workload/job.h"\n'
     '#include "util/sim_time.h"\n', []),
]

# A tree whose *edges* form a cycle strictly inside the allowed sets is
# impossible (the sets are a partial order), so a cycle needs a waived
# upward edge; each cycle tree must report exactly one include-cycle. They
# get their own trees because the cycle report names no single fixture file.
CYCLE_TREES = {
    "cycle tree": [
        ("src/util/a.h", '// jaws-lint: allow(upward-include) -- fixture.\n'
                         '#include "field/b.h"\n', []),
        ("src/field/b.h", '#include "util/a.h"\n', []),
    ],
    # The cycle is reported at b.h:1; a waiver there does not hide it.
    "waived cycle tree": [
        ("src/util/a.h", '// jaws-lint: allow(upward-include) -- fixture.\n'
                         '#include "field/b.h"\n', []),
        ("src/field/b.h",
         '#include "util/a.h"  // jaws-lint: allow(include-cycle) -- fixture.\n', []),
    ],
}
CYCLE_EXPECTED = ["include-cycle"]


def write_fixture_tree(root: str, fixtures) -> None:
    for rel, source, _expected in fixtures:
        path = os.path.join(root, *rel.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)


def self_test() -> int:
    failures = 0

    def check(what: str, expected: list[str], found: list[Violation]) -> None:
        nonlocal failures
        if [v.rule for v in found] != expected:
            failures += 1
            print(f"SELF-TEST FAIL {what}: expected {expected}, "
                  f"got {[v.rule for v in found]}", file=sys.stderr)
            for v in found:
                print(f"    {v}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="jaws_analyzer_selftest_") as tmp:
        write_fixture_tree(tmp, FIXTURES)
        by_file: dict[str, list[Violation]] = {}
        for v in analyze_tree(tmp):
            by_file.setdefault(v.path, []).append(v)
        for rel, _source, expected in FIXTURES:
            check(rel, expected, by_file.get(rel, []))
    for name, fixtures in CYCLE_TREES.items():
        with tempfile.TemporaryDirectory(prefix="jaws_analyzer_cycle_") as tmp:
            write_fixture_tree(tmp, fixtures)
            check(name, CYCLE_EXPECTED, analyze_tree(tmp))
    if failures:
        return 1
    print(f"jaws_analyzer self-test: {len(FIXTURES) + len(CYCLE_TREES)} fixtures ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the script's parent repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's own fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"jaws_analyzer: no src/ under {root}", file=sys.stderr)
        return 2

    violations = analyze_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"\njaws_analyzer: {len(violations)} violation(s). Fix "
              "them, or waive a proven-safe site with "
              "`// jaws-lint: allow(<rule>)` plus a justification.",
              file=sys.stderr)
        return 1
    print("jaws_analyzer: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
