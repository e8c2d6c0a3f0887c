#!/usr/bin/env python3
"""sight-lint: repo-specific static checks that clang-tidy cannot express.

Enforces the Sight library conventions documented in DESIGN.md §10:

  nodiscard-status   Every function declared in src/**/*.h returning Status
                     or Result<T> carries [[nodiscard]].
  no-exceptions      No `throw` / `try` / `catch` in src/ — the library is
                     exception-free; errors flow through Status/Result.
  no-raw-stdio       No `std::cout` / `std::cerr` in src/ — diagnostics go
                     through util/logging.h (SIGHT_CHECK / fprintf(stderr)),
                     data output through an ostream* parameter.
  checked-value      No naked `.value()` on a Result without an `ok()` check
                     (or SIGHT_ASSIGN_OR_RETURN / value_or) naming the same
                     receiver earlier in the enclosing scope.
  no-raw-thread      No `std::thread` / `std::jthread` / `std::async` outside
                     util/thread_pool — all parallelism goes through
                     ThreadPool / ParallelFor so determinism and shutdown
                     stay centralized.
  no-direct-engine   No `RiskEngine::Create` outside src/service/ — library
                     code goes through the resident RiskService so
                     per-owner state, carry, and deprecation stay behind
                     one front door (DESIGN.md §13).
  no-hot-rebuild     No `EncodedProfileTable::Build` inside src/service/ —
                     the serving hot path carries one encoded table per
                     owner (StrangerEncodeCache, DESIGN.md §14); per-tick
                     rebuilds belong to the cache's own cold-fallback
                     helper, never to service code. (First-line textual
                     guard; tools/sight_analyzer.py enforces the same
                     invariant semantically over the whole call graph.)
  nan-interval       No `x < lo || x > hi` interval test in src/ (either
                     order, `<=`/`>=` too): every comparison with NaN is
                     false, so that form lets a NaN through. Write the
                     NaN-safe `!(x >= lo && x <= hi)` instead.
  layering           A src/ file includes only its own module and modules
                     of lower layers. Layers, lowest first: util; graph;
                     learning, clustering; similarity; core; sim, service;
                     io. Two modules of one layer may not include each
                     other, so dependencies point one way (ROADMAP aim 2).
                     A new src/ module is placed in LAYERS before it can
                     include anything.
  no-const-cast      No `const_cast` in src/. A const method must not
                     write: concurrent reads of a shared table are safe
                     only while reads never write (DESIGN.md §8), so state
                     a read needs is built before the object is shared.
  no-sleep-in-tests  No `std::this_thread::sleep_for/sleep_until` in
                     tests/ — sleeping for "long enough" is the classic
                     flake; wait on the condition instead (WaitFor,
                     Poll-until-version, condition_variable predicates).

Usage:
  tools/sight_lint.py                 # lint src/ + tests/ under the root
  tools/sight_lint.py --root DIR      # lint DIR/src (used by the self-test)
  tools/sight_lint.py --list-rules

Exit status: 0 when clean, 1 when violations were found, 2 on tool error
(unreadable/undecodable input, bad usage) — tools/check.sh distinguishes
the two failure modes.
"""

import argparse
import pathlib
import re
import sys

# Files where a rule does not apply, relative to the src/ root.
ALLOWLIST = {
    "no-raw-thread": {"util/thread_pool.h", "util/thread_pool.cc"},
    # util/logging.h is the sanctioned diagnostic sink; it owns the one
    # permitted stderr write (via fprintf, but keep it exempt for clarity).
    "no-raw-stdio": {"util/logging.h"},
    # The service owns the one resident engine; the engine's own files
    # name the symbol in declarations/definitions.
    "no-direct-engine": {"service/risk_service.cc", "core/risk_engine.h",
                         "core/risk_engine.cc"},
    # Currently empty: the cold-rebuild fallback lives inside
    # StrangerEncodeCache::Refresh (graph/profile_codec.cc), not in the
    # service. A future service-side helper would be exempted here.
    "no-hot-rebuild": set(),
}

# src/ modules by layer, lowest first (rule layering, DESIGN.md §10).
LAYERS = [
    {"util"},
    {"graph"},
    {"learning", "clustering"},
    {"similarity"},
    {"core"},
    {"sim", "service"},
    {"io"},
]
LAYER_OF = {module: rank for rank, layer in enumerate(LAYERS)
            for module in layer}

# A quoted include's module: the first component of the header name.
INCLUDE_RE = re.compile(r'\s*#\s*include\s*"([^"/]+)/')
# A line up to the opening quote of an #include's header name.
INCLUDE_PREFIX_RE = re.compile(r"\s*#\s*include\s*")

# Function declarations returning Status or Result<T>. Mirrors the shape of
# every declaration in the codebase: optional specifiers, the return type,
# then the function name and an opening paren on the same line.
DECL_RE = re.compile(
    r"^(\s*)((?:(?:static|virtual|inline|friend|constexpr|explicit)\s+)*)"
    r"((?:sight::)?(?:Status|Result<.+>))\s+([A-Za-z_]\w*)\s*\("
)

# `.value()` with no arguments — ProfileTable::value(attr) takes arguments
# and never matches.
VALUE_RE = re.compile(r"\.\s*value\s*\(\s*\)")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Identifiers that can appear inside a receiver expression but never name
# the Result object itself.
RECEIVER_NOISE = {
    "std", "move", "static_cast", "const_cast", "reinterpret_cast",
    "size_t", "int", "auto", "get", "front", "back", "at",
}


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal contents, preserving
    line structure so reported line numbers stay accurate. The header
    name of an `#include "..."` is not a string literal and is kept."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                line_start = text.rfind("\n", 0, i) + 1
                close = text.find('"', i + 1)
                if INCLUDE_PREFIX_RE.fullmatch(text, line_start, i) and \
                        close != -1 and "\n" not in text[i:close]:
                    out.append(text[i:close + 1])
                    i = close + 1
                    continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; recover
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def check_nodiscard(rel, lines, violations):
    """Rule nodiscard-status: applies to headers only (the attribute binds
    to the first declaration; definitions in .cc inherit it)."""
    if not rel.endswith(".h"):
        return
    for idx, line in enumerate(lines):
        m = DECL_RE.match(line)
        if not m:
            continue
        if "[[nodiscard]]" in line:
            continue
        # Attribute on its own line directly above also counts.
        if idx > 0 and "[[nodiscard]]" in lines[idx - 1]:
            continue
        violations.append(Violation(
            rel, idx + 1, "nodiscard-status",
            f"function '{m.group(4)}' returns {m.group(3).split('<')[0]}"
            " but is not [[nodiscard]]"))


def check_exceptions(rel, lines, violations):
    kw = re.compile(r"\b(throw|try|catch)\b")
    for idx, line in enumerate(lines):
        m = kw.search(line)
        if m:
            violations.append(Violation(
                rel, idx + 1, "no-exceptions",
                f"'{m.group(1)}' is forbidden in src/ — use Status/Result"
                " (DESIGN.md: the library is exception-free)"))


def check_stdio(rel, lines, violations):
    if rel in ALLOWLIST["no-raw-stdio"]:
        return
    pat = re.compile(r"std\s*::\s*(cout|cerr)\b")
    for idx, line in enumerate(lines):
        m = pat.search(line)
        if m:
            violations.append(Violation(
                rel, idx + 1, "no-raw-stdio",
                f"std::{m.group(1)} in library code — route diagnostics"
                " through util/logging.h or take an ostream* parameter"))


def check_thread(rel, lines, violations):
    if rel in ALLOWLIST["no-raw-thread"]:
        return
    pat = re.compile(r"std\s*::\s*(jthread|thread|async)\b")
    for idx, line in enumerate(lines):
        m = pat.search(line)
        if m:
            violations.append(Violation(
                rel, idx + 1, "no-raw-thread",
                f"std::{m.group(1)} outside util/thread_pool — use"
                " ThreadPool / ParallelFor"))


def receiver_identifiers(prefix):
    """Identifiers naming the receiver of `.value()`, rightmost first.

    For `std::move(*created[p])` returns [p, created]; for `schema` returns
    [schema]. Noise like std/move/casts is dropped.
    """
    idents = [t for t in IDENT_RE.findall(prefix)
              if t not in RECEIVER_NOISE]
    return list(reversed(idents[-2:])) if idents else []


def enclosing_scope_start(lines, idx):
    """Walks upward to the most recent line that closes a top-level block
    (`}` at column 0) — an approximation of the enclosing function start
    that matches the repo's 2-space indentation style."""
    for j in range(idx - 1, -1, -1):
        if lines[j].startswith("}"):
            return j
    return 0


def check_value(rel, lines, violations):
    ok_token = re.compile(r"\b(ok\s*\(\s*\)|SIGHT_ASSIGN_OR_RETURN|value_or)")
    for idx, line in enumerate(lines):
        for m in VALUE_RE.finditer(line):
            prefix = line[:m.start()]
            idents = receiver_identifiers(prefix)
            start = enclosing_scope_start(lines, idx)
            scope = lines[start:idx + 1]
            checked = False
            for scope_line in scope:
                if not ok_token.search(scope_line):
                    continue
                if not idents:
                    checked = True  # temporary receiver; ok() on same line
                    break
                if any(re.search(rf"\b{re.escape(i)}\b", scope_line)
                       for i in idents):
                    checked = True
                    break
            if not checked:
                name = idents[0] if idents else "<temporary>"
                violations.append(Violation(
                    rel, idx + 1, "checked-value",
                    f"naked .value() on '{name}' with no ok() check in the"
                    " enclosing scope — an errored Result aborts the"
                    " process"))


def multiline_matches(lines, pattern):
    """Yields 1-based line numbers where `pattern` matches the joined
    text. `\\s` in the pattern crosses newlines, so calls wrapped by
    clang-format (`RiskEngine::\\n    Create(...)`) still match; comments
    and strings were already blanked out by the caller."""
    text = "\n".join(lines)
    for m in re.finditer(pattern, text):
        yield text.count("\n", 0, m.start()) + 1


def check_direct_engine(rel, lines, violations):
    if rel in ALLOWLIST["no-direct-engine"]:
        return
    for line_no in multiline_matches(lines, r"\bRiskEngine\s*::\s*Create\b"):
        violations.append(Violation(
            rel, line_no, "no-direct-engine",
            "direct RiskEngine::Create outside src/service/ — go"
            " through RiskService; see DESIGN.md §13"))


def check_hot_rebuild(rel, lines, violations):
    """Rule no-hot-rebuild: only service/ files are in scope — the carried
    StrangerEncodeCache (and its cold-rebuild fallback) lives below the
    service, so any Build here is a per-tick rebuild on the hot path."""
    if not rel.startswith("service/"):
        return
    if rel in ALLOWLIST["no-hot-rebuild"]:
        return
    for line_no in multiline_matches(
            lines, r"\bEncodedProfileTable\s*::\s*Build\b"):
        violations.append(Violation(
            rel, line_no, "no-hot-rebuild",
            "EncodedProfileTable::Build in service code rebuilds the"
            " encode every tick — go through the owner's carried"
            " StrangerEncodeCache (DESIGN.md §14)"))


def interval_re(first, second):
    """`x <first> lo || x <second> hi` on one expression x (an identifier
    with member accesses or subscripts), `=` allowed after either
    operator; shifts and `->` are not comparisons."""
    operand = r"(?<![\w.>\]])(?P<x>[A-Za-z_]\w*(?:(?:\.|->)\w+|\[\w+\])*)"
    return re.compile(
        operand + r"\s*" + first + r"=?(?![<>=])[^|;{}]*?\|\|"
        r"\s*(?P=x)\s*" + second + r"=?(?![<>=])")


NAN_INTERVAL_RES = (interval_re("<", ">"), interval_re(">", "<"))


def check_nan_interval(rel, lines, violations):
    text = "\n".join(lines)
    for pattern in NAN_INTERVAL_RES:
        for m in pattern.finditer(text):
            x = m.group("x")
            violations.append(Violation(
                rel, text.count("\n", 0, m.start()) + 1, "nan-interval",
                f"'{x}' is range-checked as `< lo || > hi`, which a NaN"
                f" passes — write `!({x} >= lo && {x} <= hi)`"))


def check_layering(rel, lines, violations):
    module = rel.split("/", 1)[0] if "/" in rel else None
    if module is None:
        return
    for idx, line in enumerate(lines):
        m = INCLUDE_RE.match(line)
        if not m or m.group(1) == module:
            continue
        target = m.group(1)
        if module not in LAYER_OF:
            violations.append(Violation(
                rel, idx + 1, "layering",
                f"module '{module}' has no layer — place it in LAYERS"
                " (tools/sight_lint.py) before it includes other modules"))
        elif target in LAYER_OF and LAYER_OF[target] >= LAYER_OF[module]:
            violations.append(Violation(
                rel, idx + 1, "layering",
                f"'{module}' includes '{target}', which is not in a lower"
                " layer — dependencies point one way: util → graph →"
                " learning/clustering → similarity → core → sim/service"
                " → io (DESIGN.md §10)"))


def check_const_cast(rel, lines, violations):
    for line_no in multiline_matches(lines, r"\bconst_cast\b"):
        violations.append(Violation(
            rel, line_no, "no-const-cast",
            "const_cast lets a const read write, which races when"
            " several threads read a shared object — build the state"
            " before the object is shared (DESIGN.md §8)"))


def check_sleep_in_tests(rel, lines, violations):
    for line_no in multiline_matches(
            lines, r"std\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\b"):
        violations.append(Violation(
            rel, line_no, "no-sleep-in-tests",
            "sleeping in a test races the scheduler and flakes under"
            " sanitizers — wait on the condition itself (WaitFor, a"
            " condition_variable predicate, or polling the published"
            " version)"))


RULES = {
    "nodiscard-status": check_nodiscard,
    "no-exceptions": check_exceptions,
    "no-raw-stdio": check_stdio,
    "checked-value": check_value,
    "no-raw-thread": check_thread,
    "no-direct-engine": check_direct_engine,
    "no-hot-rebuild": check_hot_rebuild,
    "nan-interval": check_nan_interval,
    "layering": check_layering,
    "no-const-cast": check_const_cast,
}

# Rules applied to the tests/ tree (tests legitimately use raw stdio,
# threads, and direct engine access, so the src/ rules stay out).
TEST_RULES = {
    "no-sleep-in-tests": check_sleep_in_tests,
}


def lint_file(path, src_root, rules=None):
    rel = str(path.relative_to(src_root))
    text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
    lines = text.splitlines()
    violations = []
    for check in (rules or RULES).values():
        check(rel, lines, violations)
    return violations


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repo root (lints <root>/src); default: cwd")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: all of src/)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in list(RULES) + list(TEST_RULES):
            print(name)
        return 0

    root = pathlib.Path(args.root)
    src_root = root / "src"
    tests_root = root / "tests"
    if args.paths:
        files = [(pathlib.Path(p), None) for p in args.paths]
    else:
        if not src_root.is_dir():
            print(f"sight-lint: no src/ under {root}", file=sys.stderr)
            return 2
        files = [(p, RULES) for p in sorted(src_root.rglob("*"))
                 if p.suffix in (".h", ".cc")]
        if tests_root.is_dir():
            files += [(p, TEST_RULES)
                      for p in sorted(tests_root.rglob("*"))
                      if p.suffix in (".h", ".cc")]

    all_violations = []
    errors = []
    for f, rules in files:
        if rules is TEST_RULES or (
                rules is None and tests_root in f.resolve().parents):
            rel_root, rules = tests_root, TEST_RULES
        else:
            try:
                rel_root = src_root if src_root in f.resolve().parents or \
                    f.is_relative_to(src_root) else f.parent
            except ValueError:
                rel_root = f.parent
            rules = RULES
        try:
            all_violations.extend(lint_file(f, rel_root, rules))
        except (OSError, UnicodeDecodeError) as e:
            errors.append(f"sight-lint: cannot lint {f}: {e}")

    if errors:
        # Tool failure, not a lint verdict: report everything and exit 2
        # so callers don't mistake a broken run for findings.
        for e in errors:
            print(e, file=sys.stderr)
        return 2
    for v in all_violations:
        print(v)
    if all_violations:
        print(f"sight-lint: {len(all_violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"sight-lint: {len(files)} files clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
