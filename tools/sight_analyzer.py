#!/usr/bin/env python3
"""sight-analyzer: semantic cross-TU checks over compile_commands.json.

Where tools/sight_lint.py matches single-line regexes, this analyzer
builds a project-wide model — every function definition, its tokens, and
a cross-translation-unit call graph — and checks the invariants the
serving path actually relies on (DESIGN.md §15):

  epoch-discipline   Every non-const method of SocialGraph/ProfileTable/
                     VisibilityTable that writes member state must bump
                     mutation_epoch_ before every return that follows a
                     mutation. AssessCarry fingerprints are keyed on the
                     epochs; a missed bump silently serves stale reports.
  lock-discipline    No ParallelFor / ThreadPool::Submit / ThreadPool::
                     Wait — direct or via the call graph — while a mutex
                     scope in src/service/ is held (the drain-loop
                     deadlock class RiskServiceConfig::Validate
                     documents), no condition-variable wait with two or
                     more locks held, and no inconsistent lock
                     acquisition order across mutex pairs.
  hot-path-rebuild   Call-graph walk from the RiskService drain/assess
                     entry points: EncodedProfileTable::Build,
                     SimilarityTriangle::Compact, and ProfileCodec
                     construction may only be reached through the
                     sanctioned cold-rebuild fallbacks (the carried
                     caches of DESIGN.md §14), never from new call
                     sites. Replaces the textual no-hot-rebuild rule
                     with reachability.
  status-discipline  Semantic (not regex) check that every call to a
                     Status/Result<T>-returning function consumes the
                     result: a bare `Foo(...);` statement is flagged
                     even when macros or [[nodiscard]] gaps would let
                     the compiler miss it.
  round-path-hash    Call-graph walk from PoolLearner::RunRound: no
                     function an active-learning round reaches may
                     declare a std::unordered_set or std::unordered_map.
                     A round runs dozens of times per assessment, and a
                     per-call hash container there is allocation churn
                     a dense per-index array avoids.

Frontends: with the libclang python bindings installed (python3-clang +
libclang), translation units are parsed by libclang and function bodies
are lifted from real cursors. Without them the built-in frontend — a
C++ tokenizer plus a scope-tracking function extractor tuned to this
repo's subset of C++20 — produces the same model. `--frontend` forces a
choice; the default autoselects.

Call resolution is a conservative name-union bounded by the layers: a
method matched by name only (a receiver call, or a plain name that is
neither a method of the caller's class nor a free function) resolves
within the caller's src/ module and the layers below it, in the order
of tools/sight_lint.py's LAYERS.

Suppressions: a finding is waived by a comment on the same line or the
line above:

    // SIGHT_ANALYZER_OK(rule): reason

or by an entry in the baseline file (tools/sight_analyzer_baseline.json,
regenerate with --write-baseline). Both are reported in the summary so
waivers stay visible.

Usage:
  tools/sight_analyzer.py --root . --build-dir build          # all rules
  tools/sight_analyzer.py --rule epoch-discipline ...         # one rule
  tools/sight_analyzer.py --list-rules

Exit status: 0 clean, 1 findings, 2 tool error (missing/stale
compile_commands.json, unparseable TU, bad usage).
"""

import argparse
import json
import pathlib
import re
import sys
from collections import deque

import sight_lint  # LAYER_OF: the src/ layer order of the layering rule

# --------------------------------------------------------------------------
# Configuration: the semantic contract being enforced. Extend here (and
# document in DESIGN.md §15) when new classes/entry points join the
# serving path.

# Classes whose mutation epoch gates the AssessCarry fingerprints.
EPOCH_CLASSES = {"SocialGraph", "ProfileTable", "VisibilityTable"}
EPOCH_COUNTER = "mutation_epoch_"

# Container methods that mutate observable state when called on a member.
MUTATING_METHODS = {
    "resize", "push_back", "emplace_back", "emplace", "insert", "erase",
    "clear", "assign", "reserve", "pop_back", "swap", "try_emplace",
}

# Directory (relative to src/) whose lock scopes are analyzed.
LOCK_SCOPE_DIR = "service/"

LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
CV_WAITS = {"wait", "wait_for", "wait_until"}
# Method names that block on a thread pool when the receiver names one.
POOL_BLOCKING_METHODS = {"Submit", "Wait"}

# Serving entry points for the hot-path walk: the background drain chain
# and the synchronous warm tick.
HOT_PATH_ENTRIES = {
    "RiskService::DrainShard",
    "RiskService::ApplyOwnerBatch",
    "RiskService::AssessLocked",
    "RiskService::AssessSync",
}

# Rebuild primitives the walk looks for.
HOT_REBUILD_QUALIFIED = {("EncodedProfileTable", "Build")}
# Compact resolves to SimilarityTriangle::Compact, the O(n^2) dense CSR
# build. No src/ function calls it (a dense pool's graph is factored), so
# any call that reaches the serving path is a finding.
HOT_REBUILD_METHODS = {"Compact"}
HOT_REBUILD_CTORS = {"ProfileCodec"}

# Functions sanctioned to call rebuild primitives: the fingerprint-guarded
# cold fallback and the codec machinery itself (DESIGN.md §14/§15).
HOT_REBUILD_SANCTIONED = {
    "StrangerEncodeCache::Refresh",   # encode cold rebuild on epoch mismatch
}
# ... and everything defined in the codec's own translation unit.
HOT_REBUILD_SANCTIONED_FILES = {"graph/profile_codec.cc",
                                "graph/profile_codec.h"}

# Entry point of the round-path walk: one active-learning round (sample,
# query, re-solve, stabilization check).
ROUND_PATH_ENTRIES = {"PoolLearner::RunRound"}
# Hash containers a round-path function may not declare.
ROUND_PATH_HASH_TYPES = {"unordered_set", "unordered_map"}

RULE_NAMES = ["epoch-discipline", "lock-discipline", "hot-path-rebuild",
              "status-discipline", "round-path-hash"]

SUPPRESS_RE = re.compile(
    r"SIGHT_ANALYZER_OK\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "new", "delete", "catch", "throw", "case", "do", "else",
    "goto", "co_await", "co_return", "co_yield", "static_assert",
    "alignas", "typeid", "noexcept", "requires", "assert", "defined",
}


class ToolError(Exception):
    """Environment/input problem: reported with exit code 2, never 1."""


# --------------------------------------------------------------------------
# Tokenizer


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # id | num | str | chr | punct
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


MULTI_PUNCT = [
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=",
]

ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")


def tokenize(text, path="<buffer>"):
    """Tokens plus {line: set(rules)} suppressions and quoted includes."""
    tokens = []
    suppressions = {}
    includes = []  # (line, "quoted/path.h")
    pending_rules = set()  # carried forward to the next code token's line
    i, n = 0, len(text)
    line = 1

    def comment(body, at_line):
        m = SUPPRESS_RE.search(body)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            suppressions.setdefault(at_line, set()).update(rules)
            pending_rules.update(rules)

    def emit(token):
        # A suppression comment also covers the next code line, however
        # far below, so wrapped statements stay suppressible.
        if pending_rules:
            suppressions.setdefault(token.line, set()).update(pending_rules)
            pending_rules.clear()
        tokens.append(token)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and (not tokens or tokens[-1].line != line):
            # Preprocessor directive: consume to EOL (honoring \-splices).
            start = i
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                if text[i] == "\n":
                    break
                i += 1
            directive = text[start:i]
            m = re.match(r'#\s*include\s*"([^"]+)"', directive)
            if m:
                includes.append((line, m.group(1)))
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comment(text[i:j], line)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise ToolError(f"{path}:{line}: unterminated block comment")
            body = text[i:j]
            comment(body, line)
            line += body.count("\n")
            i = j + 2
            continue
        if c == '"' or (c == "R" and text[i:i + 2] == 'R"'):
            if c == "R":
                m = re.match(r'R"([^()\s\\]*)\(', text[i:])
                if m:
                    delim = m.group(1)
                    end = text.find(f"){delim}\"", i + m.end())
                    if end < 0:
                        raise ToolError(
                            f"{path}:{line}: unterminated raw string")
                    lit = text[i:end + len(delim) + 2]
                    emit(Token("str", '""', line))
                    line += lit.count("\n")
                    i = end + len(delim) + 2
                    continue
                # plain identifier starting with R
            if c == '"':
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == '"' or text[j] == "\n":
                        break
                    j += 1
                emit(Token("str", '""', line))
                i = j + 1 if j < n and text[j] == '"' else j
                continue
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'" or text[j] == "\n":
                    break
                j += 1
            emit(Token("chr", "''", line))
            i = j + 1 if j < n and text[j] == "'" else j
            continue
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            emit(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            emit(Token("num", text[i:j], line))
            i = j
            continue
        for p in MULTI_PUNCT:
            if text.startswith(p, i):
                emit(Token("punct", p, line))
                i += len(p)
                break
        else:
            emit(Token("punct", c, line))
            i += 1
    return tokens, suppressions, includes


# --------------------------------------------------------------------------
# Function model


class Function:
    def __init__(self, file, line, cls, name, is_const, body, ret_tokens):
        self.file = file          # repo-relative path
        self.line = line
        self.cls = cls            # enclosing/qualifying class or None
        self.name = name
        self.is_const = is_const
        self.body = body          # tokens including outer braces
        self.ret_tokens = ret_tokens
        self.calls = None         # lazy: list of Call

    @property
    def qualname(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def returns_status(self):
        for t in self.ret_tokens:
            if t.kind == "id" and t.text in ("Status", "Result"):
                return True
        return False


class Call:
    __slots__ = ("name", "qual", "receiver", "idx", "line")

    def __init__(self, name, qual, receiver, idx, line):
        self.name = name
        self.qual = qual          # "Cls" for Cls::name(...), else None
        self.receiver = receiver  # textual receiver for x.name()/x->name()
        self.idx = idx            # token index of the name within the body
        self.line = line


def match_group(tokens, i, open_t, close_t):
    """Index just past the group's closing token; tokens[i] == open_t."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ToolError("unbalanced group")


def skip_template_args(tokens, i):
    """tokens[i] == '<': best-effort skip of a template argument list.
    Returns index past '>' or i when it does not look like one."""
    depth = 0
    j = i
    n = len(tokens)
    while j < n and j < i + 400:
        t = tokens[j].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}") :
            return i
        j += 1
    return i


def extract_functions(tokens, rel_path):
    """Scope-tracking scan: function definitions and declarations.

    Returns (functions, declarations) where declarations are Function
    records with empty bodies (used for the Status/Result return map).
    """
    funcs, decls = [], []
    n = len(tokens)
    # scope stack entries: (kind, name, depth_at_open)
    scopes = []
    depth = 0
    i = 0
    stmt_start = 0

    def current_class():
        for kind, name, _ in reversed(scopes):
            if kind == "class":
                return name
        return None

    def parse_candidate(start, name_idx):
        """tokens[name_idx] is the id right before '('. Returns the index
        to resume at, or None when this is not a function."""
        # Qualified name: walk back over (id ::)* pairs.
        cls = None
        k = name_idx
        while k - 2 >= start and tokens[k - 1].text == "::" and \
                tokens[k - 2].kind == "id":
            cls = tokens[k - 2].text
            k -= 2
        head_end = k
        name = tokens[name_idx].text
        # Reject obvious non-declarations: head must not contain control
        # keywords or assignment (those appear in expressions, not decls).
        for t in tokens[start:head_end]:
            if t.text in CPP_KEYWORDS or t.text in ("=",):
                return None
        j = match_group(tokens, name_idx + 1, "(", ")")
        is_const = False
        while j < n:
            t = tokens[j].text
            if t == "const":
                is_const = True
                j += 1
            elif t in ("noexcept", "override", "final", "&", "&&",
                       "mutable", "volatile", "throw"):
                j += 1
                if j < n and tokens[j].text == "(":
                    j = match_group(tokens, j, "(", ")")
            elif t == "->":  # trailing return type
                j += 1
                while j < n and tokens[j].text not in ("{", ";", "="):
                    if tokens[j].text == "<":
                        j = skip_template_args(tokens, j)
                    else:
                        j += 1
            else:
                break
        if j >= n:
            return None
        t = tokens[j].text
        ret = [tok for tok in tokens[start:head_end]]
        enclosing = current_class()
        qual_cls = cls or enclosing
        if t == ";":
            decls.append(Function(rel_path, tokens[name_idx].line, qual_cls,
                                  name, is_const, [], ret))
            return j + 1
        if t == "=":
            # = default / = delete / = 0  → declaration-ish
            while j < n and tokens[j].text != ";":
                j += 1
            decls.append(Function(rel_path, tokens[name_idx].line, qual_cls,
                                  name, is_const, [], ret))
            return j + 1 if j < n else j
        if t == ":":
            # Constructor initializer list: name(args) or name{args} pairs.
            j += 1
            while j < n:
                while j < n and tokens[j].text not in ("(", "{", ";"):
                    if tokens[j].text == "<":
                        j = skip_template_args(tokens, j)
                    else:
                        j += 1
                if j >= n or tokens[j].text == ";":
                    return None
                close = ")" if tokens[j].text == "(" else "}"
                j = match_group(tokens, j, tokens[j].text, close)
                if j < n and tokens[j].text == ",":
                    j += 1
                    continue
                break
            if j >= n or tokens[j].text != "{":
                return None
            t = "{"
        if t == "{":
            end = match_group(tokens, j, "{", "}")
            funcs.append(Function(rel_path, tokens[name_idx].line, qual_cls,
                                  name, is_const, tokens[j:end], ret))
            return end
        return None

    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text == "namespace":
            j = i + 1
            while j < n and tokens[j].kind == "id" or \
                    (j < n and tokens[j].text == "::"):
                j += 1
            if j < n and tokens[j].text == "{":
                name = tokens[i + 1].text if tokens[i + 1].kind == "id" \
                    else ""
                scopes.append(("namespace", name, depth))
                depth += 1
                i = j + 1
                stmt_start = i
                continue
        if t.kind == "id" and t.text in ("class", "struct") and \
                not (i > 0 and tokens[i - 1].text == "enum"):
            j = i + 1
            name = None
            while j < n and tokens[j].text not in ("{", ";", "("):
                if tokens[j].kind == "id" and tokens[j].text not in (
                        "final", "alignas", "public", "private",
                        "protected", "virtual"):
                    if name is None:
                        name = tokens[j].text
                elif tokens[j].text == "<":
                    j = skip_template_args(tokens, j)
                    continue
                j += 1
            if j < n and tokens[j].text == "{" and name is not None:
                scopes.append(("class", name, depth))
                depth += 1
                i = j + 1
                stmt_start = i
                continue
            # fwd declaration / variable of class type: fall through
        if t.kind == "id" and t.text == "enum":
            # enum [class] Name [: type] { ... };  — skip the body.
            j = i + 1
            while j < n and tokens[j].text not in ("{", ";"):
                j += 1
            if j < n and tokens[j].text == "{":
                j = match_group(tokens, j, "{", "}")
            i = j
            stmt_start = i
            continue
        if t.kind == "id" and t.text == "template":
            if i + 1 < n and tokens[i + 1].text == "<":
                i = skip_template_args(tokens, i + 1)
                continue
        if t.text == "{":
            depth += 1
            scopes.append(("block", "", depth - 1))
            i += 1
            stmt_start = i
            continue
        if t.text == "}":
            depth -= 1
            while scopes and scopes[-1][2] >= depth:
                scopes.pop()
            i += 1
            stmt_start = i
            continue
        if t.text == ";":
            i += 1
            stmt_start = i
            continue
        if t.kind == "id" and t.text == "operator":
            # operator<sym>(...) — consume symbol tokens up to '('.
            j = i + 1
            while j < n and tokens[j].text != "(":
                j += 1
            if j < n:
                resumed = parse_candidate(stmt_start, j - 1) \
                    if tokens[j - 1].kind == "id" else None
                if resumed is None:
                    # Treat as declaration-ish; skip to ; or body.
                    k = match_group(tokens, j, "(", ")")
                    while k < n and tokens[k].text not in (";", "{"):
                        k += 1
                    if k < n and tokens[k].text == "{":
                        k = match_group(tokens, k, "{", "}")
                    i = k
                else:
                    i = resumed
                stmt_start = i
                continue
        if t.kind == "id" and t.text not in CPP_KEYWORDS and \
                i + 1 < n and tokens[i + 1].text == "(":
            resumed = parse_candidate(stmt_start, i)
            if resumed is not None:
                i = resumed
                stmt_start = i
                continue
        i += 1
    return funcs, decls


MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


def extract_calls(fn):
    """Call expressions in a function body (memoized on the Function)."""
    if fn.calls is not None:
        return fn.calls
    calls = []
    toks = fn.body
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text in CPP_KEYWORDS:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        if MACRO_RE.match(t.text) and "_" in t.text:
            continue  # SIGHT_CHECK(...) etc: arguments still scanned
        qual = None
        receiver = None
        if i >= 2 and toks[i - 1].text == "::" and toks[i - 2].kind == "id":
            qual = toks[i - 2].text
        elif i >= 1 and toks[i - 1].text in (".", "->"):
            j = i - 1
            parts = [toks[i - 1].text]
            while j > 0:
                p = toks[j - 1]
                if p.kind == "id" and p.text in CPP_KEYWORDS and \
                        p.text != "this":
                    break
                if p.kind in ("id", "num") or p.text in (
                        ".", "->", "::", "this"):
                    parts.append(p.text)
                    j -= 1
                    continue
                if p.text in (")", "]"):
                    # Include a call/index group only when it belongs to
                    # a postfix expression (id right before the opener),
                    # so `if (cond) x->Wait()` keeps receiver == "x->".
                    bal = 1
                    closer = p.text
                    opener = "(" if closer == ")" else "["
                    k = j - 1
                    group = [p.text]
                    while k > 0 and bal > 0:
                        q = toks[k - 1].text
                        if q == closer:
                            bal += 1
                        elif q == opener:
                            bal -= 1
                        group.append(q)
                        k -= 1
                    before = toks[k - 1] if k > 0 else None
                    if before is not None and (
                            before.kind == "id" and
                            before.text not in CPP_KEYWORDS or
                            before.text in ("]", ")")):
                        parts.extend(group)
                        j = k
                        continue
                    break
                break
            receiver = "".join(reversed(parts))
        calls.append(Call(t.text, qual, receiver, i, t.line))
    fn.calls = calls
    return calls


# --------------------------------------------------------------------------
# Project model


class Model:
    def __init__(self):
        self.functions = []         # all Function definitions
        self.by_qual = {}           # qualname -> [Function]
        self.methods_by_name = {}   # bare name -> set(qualname)
        self.status_names = {}      # name -> True (all status) / False
        self.status_quals = set()   # qualnames returning Status/Result
        self.classes = set()        # classes with a method definition
        self.suppressions = {}      # rel_path -> {line: set(rules)}
        self.files = set()

    def add_file(self, rel_path, funcs, decls, suppressions):
        self.files.add(rel_path)
        if suppressions:
            self.suppressions.setdefault(rel_path, {})
            for line, rules in suppressions.items():
                self.suppressions[rel_path].setdefault(line, set()).update(
                    rules)
        for fn in funcs:
            self.functions.append(fn)
            self.by_qual.setdefault(fn.qualname, []).append(fn)
            self.methods_by_name.setdefault(fn.name, set()).add(fn.qualname)
            if fn.cls:
                self.classes.add(fn.cls)
        for d in list(decls) + list(funcs):
            is_status = d.returns_status()
            if d.name in self.status_names:
                self.status_names[d.name] = \
                    self.status_names[d.name] and is_status
            else:
                self.status_names[d.name] = is_status
            if is_status:
                self.status_quals.add(d.qualname)

    def resolve(self, fn, call):
        """Possible callee qualnames for a call, conservative union."""
        out = set()
        if call.qual is not None:
            q = f"{call.qual}::{call.name}"
            if q in self.by_qual:
                out.add(q)
            elif call.qual not in self.classes and call.name in self.by_qual:
                # A namespace qualifier (ps_kernels::BuildGraphs): free
                # functions are keyed by their bare name.
                out.add(call.name)
            return out
        if call.receiver is not None:
            return self.methods_in_reach(fn, call.name)
        # Plain name: same-class method first, then a free function,
        # then any method with that name.
        if fn.cls and f"{fn.cls}::{call.name}" in self.by_qual:
            out.add(f"{fn.cls}::{call.name}")
            return out
        if call.name in self.by_qual:
            out.add(call.name)
            return out
        return self.methods_in_reach(fn, call.name)

    def methods_in_reach(self, fn, name):
        """Methods named `name` that `fn` can call: those defined in its
        own src/ module or in a lower layer (sight-lint's LAYER_OF), since
        the layering rule keeps a module from including anything above
        it. A name-only match into a higher layer is a name collision
        (ThreadPool::Submit vs RiskService::Submit) or a virtual call to
        an override above the caller, which the walks do not follow. A
        module with no layer bounds nothing."""
        def module(f):
            return f.file.removeprefix("src/").split("/")[0]

        rank = sight_lint.LAYER_OF.get(module(fn))

        def in_reach(target):
            return rank is None or module(target) == module(fn) or \
                sight_lint.LAYER_OF.get(module(target), -1) < rank

        return {q for q in self.methods_by_name.get(name, ())
                if any(in_reach(t) for t in self.by_qual[q])}

    def is_suppressed(self, rel_path, line, rule):
        per_file = self.suppressions.get(rel_path)
        if not per_file:
            return False
        for ln in (line, line - 1):
            rules = per_file.get(ln)
            if rules and (rule in rules or "all" in rules):
                return True
        return False


class Finding:
    def __init__(self, rule, file, line, function, detail, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.function = function
        self.detail = detail      # stable discriminator (no line numbers)
        self.message = message

    def key(self):
        return f"{self.rule}|{self.file}|{self.function}|{self.detail}"

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Frontends


def load_compile_commands(build_dir):
    cc_path = build_dir / "compile_commands.json"
    if not cc_path.is_file():
        raise ToolError(
            f"no compile_commands.json under {build_dir} — configure the "
            "build first: `cmake -B build -S .` "
            "(CMAKE_EXPORT_COMPILE_COMMANDS is ON by default; see "
            "README 'Linting & CI')")
    try:
        entries = json.loads(cc_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ToolError(f"{cc_path}: not valid JSON ({e}) — re-run the "
                        "cmake configure step")
    return entries, cc_path


def command_args(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    return entry.get("command", "").split()


def include_dirs_of(entry):
    dirs = []
    args = command_args(entry)
    for k, a in enumerate(args):
        if a.startswith("-I") and len(a) > 2:
            dirs.append(a[2:])
        elif a == "-I" and k + 1 < len(args):
            dirs.append(args[k + 1])
        elif a.startswith("-isystem") and len(a) > 8:
            dirs.append(a[8:])
    return dirs


def gather_tus(entries, cc_path, root, src_root):
    """Validated TU list: (abs_path, include_dirs). Raises ToolError for
    stale entries (deleted sources, renamed headers)."""
    tus = []
    problems = []
    for entry in entries:
        f = pathlib.Path(entry["file"])
        if not f.is_absolute():
            f = pathlib.Path(entry.get("directory", ".")) / f
        try:
            f.relative_to(src_root)
        except ValueError:
            continue  # tests/bench/examples: out of scope
        if not f.is_file():
            problems.append(
                f"{cc_path.name} lists {f}, which no longer exists — the "
                "compile commands are stale; re-run the cmake configure "
                "step to regenerate them")
            continue
        tus.append((f, include_dirs_of(entry)))
    if problems:
        raise ToolError("\n".join(problems))
    if not tus:
        raise ToolError(
            f"{cc_path} contains no translation units under {src_root} — "
            "wrong --build-dir, or the project layout changed")
    return tus


def check_includes(tu_path, includes, include_dirs, src_root):
    problems = []
    for line, inc in includes:
        candidates = [tu_path.parent / inc]
        candidates += [pathlib.Path(d) / inc for d in include_dirs]
        candidates.append(src_root / inc)
        if not any(c.is_file() for c in candidates):
            problems.append(
                f"{tu_path}:{line}: include \"{inc}\" cannot be resolved "
                "against the TU's include directories — a header was "
                "renamed or removed after the last cmake configure; "
                "re-run the configure step (and fix the include if it is "
                "genuinely gone)")
    return problems


def build_model_internal(tus, root, src_root):
    """Built-in frontend: parse every TU plus every header under src/."""
    model = Model()
    problems = []
    seen = set()

    def parse_one(path):
        rel = str(path.relative_to(root)) if root in path.parents \
            else str(path)
        if rel in seen:
            return None
        seen.add(rel)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            problems.append(f"{path}: unreadable ({e})")
            return None
        try:
            tokens, suppressions, includes = tokenize(text, str(path))
            funcs, decls = extract_functions(tokens, rel)
        except ToolError as e:
            problems.append(
                f"failed to parse {path}: {e} — the file may use syntax "
                "outside the analyzer's C++ subset; fix the construct, "
                "install the libclang frontend, or suppress the file")
            return None
        except RecursionError:
            problems.append(f"failed to parse {path}: nesting too deep")
            return None
        model.add_file(rel, funcs, decls, suppressions)
        return includes

    for tu_path, inc_dirs in tus:
        includes = parse_one(tu_path)
        if includes is not None:
            problems.extend(
                check_includes(tu_path, includes, inc_dirs, src_root))
    for header in sorted(src_root.rglob("*.h")):
        parse_one(header)
    if problems:
        raise ToolError("\n".join(problems))
    return model


def build_model_libclang(tus, root, src_root):
    """libclang frontend: real TU parses, same model shape."""
    from clang import cindex  # noqa: import guarded by caller

    model = Model()
    index = cindex.Index.create()
    parsed_files = set()

    def lift_tokens(tu, extent):
        out = []
        for tok in tu.get_tokens(extent=extent):
            kind = {
                cindex.TokenKind.IDENTIFIER: "id",
                cindex.TokenKind.KEYWORD: "id",
                cindex.TokenKind.LITERAL: "num",
                cindex.TokenKind.PUNCTUATION: "punct",
            }.get(tok.kind)
            if kind is None:
                continue  # comments handled via the raw-text scan
            text = tok.spelling
            if kind == "num" and text.startswith(('"', "'")):
                kind, text = "str", '""'
            out.append(Token(kind, text, tok.location.line))
        return out

    def visit(cursor, tu):
        for c in cursor.get_children():
            loc_file = c.location.file
            if loc_file is None:
                continue
            p = pathlib.Path(loc_file.name)
            try:
                p.relative_to(src_root)
            except ValueError:
                continue
            if c.kind in (cindex.CursorKind.NAMESPACE,
                          cindex.CursorKind.CLASS_DECL,
                          cindex.CursorKind.STRUCT_DECL,
                          cindex.CursorKind.UNEXPOSED_DECL):
                visit(c, tu)
                continue
            if c.kind in (cindex.CursorKind.CXX_METHOD,
                          cindex.CursorKind.FUNCTION_DECL,
                          cindex.CursorKind.CONSTRUCTOR,
                          cindex.CursorKind.DESTRUCTOR):
                rel = str(p.relative_to(root)) if root in p.parents \
                    else str(p)
                cls = None
                parent = c.semantic_parent
                if parent is not None and parent.kind in (
                        cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL):
                    cls = parent.spelling
                is_const = c.kind == cindex.CursorKind.CXX_METHOD and \
                    c.is_const_method()
                ret = [Token("id", w, c.location.line)
                       for w in re.findall(r"\w+",
                                           c.result_type.spelling or "")]
                body = []
                if c.is_definition():
                    for child in c.get_children():
                        if child.kind == cindex.CursorKind.COMPOUND_STMT:
                            body = lift_tokens(tu, child.extent)
                fn = Function(rel, c.location.line, cls, c.spelling,
                              is_const, body, ret)
                key = (rel, c.location.line, fn.qualname, bool(body))
                if key not in parsed_files:
                    parsed_files.add(key)
                    model.add_file(rel, [fn] if body else [],
                                   [fn] if not body else [], {})

    problems = []
    for tu_path, inc_dirs in tus:
        args = ["-std=c++20", "-xc++"] + [f"-I{d}" for d in inc_dirs]
        try:
            tu = index.parse(str(tu_path), args=args)
        except cindex.TranslationUnitLoadError as e:
            problems.append(f"libclang failed to load {tu_path}: {e}")
            continue
        fatal = [d for d in tu.diagnostics if d.severity >=
                 cindex.Diagnostic.Fatal]
        if fatal:
            problems.append(
                f"libclang could not parse {tu_path}: "
                + "; ".join(d.spelling for d in fatal))
            continue
        visit(tu.cursor, tu)
    if problems:
        raise ToolError("\n".join(problems))
    # Suppressions and includes still come from the raw text.
    for rel in list(model.files):
        p = root / rel
        try:
            _, suppressions, _ = tokenize(p.read_text(encoding="utf-8"),
                                          str(p))
        except (OSError, ToolError, UnicodeDecodeError):
            continue
        model.add_file(rel, [], [], suppressions)
    return model


def build_model(tus, root, src_root, frontend):
    if frontend == "internal":
        return build_model_internal(tus, root, src_root), "internal"
    try:
        import clang.cindex  # noqa: F401
        have_libclang = True
    except ImportError:
        have_libclang = False
    if frontend == "libclang":
        if not have_libclang:
            raise ToolError(
                "--frontend=libclang requested but the clang python "
                "bindings are not importable — install python3-clang and "
                "libclang (apt: python3-clang libclang-dev), or use "
                "--frontend=internal")
        return build_model_libclang(tus, root, src_root), "libclang"
    # auto
    if have_libclang:
        try:
            return build_model_libclang(tus, root, src_root), "libclang"
        except ToolError:
            raise
        except Exception as e:  # defensive: never lose the run to a
            print(f"sight-analyzer: libclang frontend failed ({e}); "
                  "falling back to the built-in frontend", file=sys.stderr)
    return build_model_internal(tus, root, src_root), "internal"


# --------------------------------------------------------------------------
# Rule: epoch-discipline


def token_is_member(text):
    return text.endswith("_") and len(text) > 1


def mutation_events(fn):
    """(idx, line, kind, what) for member writes; kind strong|weak|bump."""
    toks = fn.body
    n = len(toks)
    events = []
    assign_ops = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
                  "<<=", ">>="}
    for i, t in enumerate(toks):
        if t.kind != "id" or not token_is_member(t.text):
            continue
        is_counter = t.text == EPOCH_COUNTER
        prev = toks[i - 1].text if i > 0 else ""
        prev2 = toks[i - 2] if i > 1 else None
        kind = None
        # this->member_ is still a member access.
        if prev in (".", "->") and not (
                prev2 is not None and prev2.text == "this"):
            continue  # someone else's field (state->mutex etc.)
        j = i + 1
        if prev in ("++", "--"):
            kind = "strong"
        elif j < n and toks[j].text in ("++", "--"):
            kind = "strong"
        elif j < n and toks[j].text in assign_ops:
            kind = "strong"
        elif j < n and toks[j].text == "[":
            k = match_group(toks, j, "[", "]")
            if k < n and (toks[k].text in assign_ops or
                          toks[k].text in ("++", "--")):
                kind = "strong"
            elif k + 1 < n and toks[k].text == "." and \
                    toks[k + 1].text in MUTATING_METHODS:
                kind = "strong"
        elif j + 1 < n and toks[j].text == "." and \
                toks[j + 1].text in MUTATING_METHODS and \
                j + 2 < n and toks[j + 2].text == "(":
            kind = "strong"
        elif prev == "&" and (prev2 is None or prev2.kind not in
                              ("id", "num") and prev2.text not in (")", "]")):
            kind = "weak"
        if kind is None:
            continue
        if is_counter:
            if kind == "strong":
                events.append((i, t.line, "bump", t.text))
        else:
            events.append((i, t.line, kind, t.text))
    return events


def return_positions(fn):
    toks = fn.body
    out = [i for i, t in enumerate(toks)
           if t.kind == "id" and t.text == "return"]
    out.append(len(toks))  # implicit end-of-body exit
    return out


def rule_epoch(model, findings):
    for fn in model.functions:
        if fn.cls not in EPOCH_CLASSES or fn.is_const or not fn.body:
            continue
        if fn.name == fn.cls or fn.name == f"~{fn.cls}" or \
                fn.name.startswith("operator"):
            continue
        events = mutation_events(fn)
        strong = [e for e in events if e[2] == "strong"]
        weak = [e for e in events if e[2] == "weak"]
        bumps = [e for e in events if e[2] == "bump"]
        if not strong and not weak:
            continue
        if not bumps:
            first = (strong or weak)[0]
            findings.append(Finding(
                "epoch-discipline", fn.file, first[1], fn.qualname,
                f"no-bump:{first[3]}",
                f"{fn.qualname} writes member state ('{first[3]}') but "
                f"never bumps {EPOCH_COUNTER} — carried caches keyed on "
                "the epoch will serve stale data (DESIGN.md §14/§15)"))
            continue
        if not strong:
            continue  # aliased writes: any bump in the method suffices
        bump_positions = [e[0] for e in bumps]
        for r in return_positions(fn):
            muts_before = [e for e in strong if e[0] < r]
            if not muts_before:
                continue
            if any(b < r for b in bump_positions):
                continue
            line = fn.body[r].line if r < len(fn.body) else muts_before[-1][1]
            findings.append(Finding(
                "epoch-discipline", fn.file, line, fn.qualname,
                f"path:{muts_before[-1][3]}",
                f"{fn.qualname} can return after mutating "
                f"'{muts_before[-1][3]}' without bumping {EPOCH_COUNTER} "
                "on that path (DESIGN.md §15)"))
            break  # one path finding per method is enough


# --------------------------------------------------------------------------
# Rule: lock-discipline


def direct_blocking_events(fn):
    """(idx, line, kind, label): kind pool-block | cv-wait."""
    events = []
    for call in extract_calls(fn):
        if call.name == "ParallelFor" and call.receiver is None:
            events.append((call.idx, call.line, "pool-block", "ParallelFor"))
        elif call.name in POOL_BLOCKING_METHODS and call.receiver and \
                "pool" in call.receiver.lower():
            events.append((call.idx, call.line, "pool-block",
                           f"{call.receiver}{call.name}()"))
        elif call.name in CV_WAITS and call.receiver:
            events.append((call.idx, call.line, "cv-wait",
                           f"{call.receiver}{call.name}()"))
    return events


def compute_reaches_blocking(model):
    """qualname -> (primitive_label, next_hop or None) witness map."""
    reaches = {}
    worklist = deque()
    for fn in model.functions:
        for _, _, kind, label in direct_blocking_events(fn):
            if fn.qualname not in reaches:
                reaches[fn.qualname] = (label, None)
                worklist.append(fn.qualname)
            break
    # Reverse edges by scanning all calls once.
    callers_of = {}
    for fn in model.functions:
        for call in extract_calls(fn):
            for target in model.resolve(fn, call):
                callers_of.setdefault(target, set()).add(fn.qualname)
    while worklist:
        q = worklist.popleft()
        label, _ = reaches[q]
        for caller in callers_of.get(q, ()):
            if caller not in reaches:
                reaches[caller] = (label, q)
                worklist.append(caller)
    return reaches


def witness_chain(reaches, start, limit=6):
    chain = [start]
    label, nxt = reaches[start]
    while nxt is not None and len(chain) < limit:
        chain.append(nxt)
        label, nxt = reaches[nxt]
    return " -> ".join(chain + [label])


def lock_scopes_walk(fn, on_event):
    """Simulates lock scopes over the body; calls on_event(idx, active)
    for every token index, where active is the list of held mutexes
    (normalized text, acquisition order)."""
    toks = fn.body
    n = len(toks)
    depth = 0
    active = []  # (var, mutex_text, depth)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "{":
            depth += 1
            i += 1
            continue
        if t.text == "}":
            depth -= 1
            while active and active[-1][2] > depth:
                active.pop()
            i += 1
            continue
        if t.kind == "id" and t.text in LOCK_TYPES:
            j = i + 1
            if j < n and toks[j].text == "<":
                j = skip_template_args(toks, j)
            if j < n and toks[j].kind == "id" and j + 1 < n and \
                    toks[j + 1].text == "(":
                var = toks[j].text
                end = match_group(toks, j + 1, "(", ")")
                args = toks[j + 2:end - 1]
                # scoped_lock may hold several mutexes: split on top commas
                mutexes = []
                cur = []
                bal = 0
                for a in args:
                    if a.text in ("(", "[", "<"):
                        bal += 1
                    elif a.text in (")", "]", ">"):
                        bal -= 1
                    if a.text == "," and bal == 0:
                        mutexes.append(cur)
                        cur = []
                    else:
                        cur.append(a)
                if cur:
                    mutexes.append(cur)
                for m in mutexes:
                    text = "".join(x.text for x in m)
                    text = text.replace("this->", "")
                    if text in ("std::adopt_lock", "std::defer_lock",
                                "std::try_to_lock"):
                        continue
                    active.append((var, text, depth))
                i = end
                continue
        if t.kind == "id" and i + 2 < n and toks[i + 1].text == "." and \
                toks[i + 2].text == "unlock":
            active = [a for a in active if a[0] != t.text]
            i += 3
            continue
        on_event(i, [a[1] for a in active])
        i += 1


def rule_lock(model, findings):
    reaches = compute_reaches_blocking(model)
    order_pairs = {}  # (first, second) -> (file, line, function)

    for fn in model.functions:
        in_scope = fn.file.startswith("src/" + LOCK_SCOPE_DIR)
        calls_by_idx = {c.idx: c for c in extract_calls(fn)}
        events = direct_blocking_events(fn)
        direct_by_idx = {e[0]: e for e in events}
        last_active = [[]]

        def on_event(idx, active, fn=fn, calls_by_idx=calls_by_idx,
                     direct_by_idx=direct_by_idx, in_scope=in_scope,
                     last_active=last_active):
            if len(active) > len(last_active[0]) and len(active) >= 2:
                pair = (active[-2], active[-1])
                if pair[0] != pair[1] and pair not in order_pairs:
                    tok = fn.body[idx]
                    order_pairs[pair] = (fn.file, tok.line, fn.qualname)
            last_active[0] = list(active)
            if not in_scope or not active:
                return
            direct = direct_by_idx.get(idx)
            if direct is not None:
                _, line, kind, label = direct
                if kind == "pool-block":
                    findings.append(Finding(
                        "lock-discipline", fn.file, line, fn.qualname,
                        f"block:{label}",
                        f"{fn.qualname} calls {label} while holding "
                        f"{', '.join(active)} — a drain task waiting on "
                        "the pool it runs inside deadlocks "
                        "(DESIGN.md §13/§15)"))
                elif kind == "cv-wait" and len(active) >= 2:
                    findings.append(Finding(
                        "lock-discipline", fn.file, line, fn.qualname,
                        f"cv:{label}",
                        f"{fn.qualname} waits on {label} with "
                        f"{len(active)} locks held "
                        f"({', '.join(active)}) — the wait releases only "
                        "its own lock; the others stay held across the "
                        "block (DESIGN.md §15)"))
                return
            call = calls_by_idx.get(idx)
            if call is None:
                return
            for target in model.resolve(fn, call):
                if target == fn.qualname:
                    continue
                if target in reaches:
                    chain = witness_chain(reaches, target)
                    findings.append(Finding(
                        "lock-discipline", fn.file, call.line, fn.qualname,
                        f"reach:{call.name}",
                        f"{fn.qualname} calls {call.name} while holding "
                        f"{', '.join(active)}, and {chain} can block on "
                        "the worker pool or a condition variable "
                        "(DESIGN.md §15)"))
                    break

        lock_scopes_walk(fn, on_event)

    for (a, b), (file, line, function) in sorted(order_pairs.items()):
        if (b, a) in order_pairs:
            other = order_pairs[(b, a)]
            findings.append(Finding(
                "lock-discipline", file, line, function,
                f"order:{a}|{b}",
                f"inconsistent lock order: {function} acquires "
                f"'{a}' then '{b}' but {other[2]} "
                f"({other[0]}:{other[1]}) acquires them in the opposite "
                "order — ABBA deadlock (DESIGN.md §15)"))


# --------------------------------------------------------------------------
# Rule: hot-path-rebuild


def rebuild_primitive_events(fn):
    """(line, label, detail) for rebuild primitives in a body."""
    events = []
    toks = fn.body
    n = len(toks)
    for call in extract_calls(fn):
        if (call.qual, call.name) in HOT_REBUILD_QUALIFIED:
            events.append((call.line, f"{call.qual}::{call.name}",
                           f"{call.qual}::{call.name}"))
        elif call.name in HOT_REBUILD_METHODS and call.receiver is not None:
            events.append((call.line, f"{call.receiver}{call.name}()",
                           f"method:{call.name}"))
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in HOT_REBUILD_CTORS:
            j = i + 1
            if j < n and toks[j].kind == "id":
                j += 1  # declaration form: ProfileCodec codec(...)
            if j < n and toks[j].text == "(" and \
                    (i == 0 or toks[i - 1].text not in ("::", ".", "->",
                                                        "class", "struct")):
                events.append((t.line, f"{t.text} construction",
                               f"ctor:{t.text}"))
    return events


def call_graph_walk(model, entries):
    """BFS over the call graph from `entries`: {qualname: caller} for
    every reachable function (None for an entry)."""
    parent = {}
    queue = deque()
    for entry in sorted(entries):
        if entry in model.by_qual:
            parent[entry] = None
            queue.append(entry)
    visited_calls = set()
    while queue:
        q = queue.popleft()
        for fn in model.by_qual.get(q, ()):
            for call in extract_calls(fn):
                key = (q, call.name, call.qual)
                if key in visited_calls:
                    continue
                visited_calls.add(key)
                for target in model.resolve(fn, call):
                    if target not in parent:
                        parent[target] = q
                        queue.append(target)
    return parent


def chain_of(parent, qual):
    """The witness call chain from an entry point down to `qual`."""
    chain = []
    cur = qual
    while cur is not None and len(chain) < 12:
        chain.append(cur)
        cur = parent.get(cur)
    return " -> ".join(reversed(chain))


def rule_hot_path(model, findings):
    parent = call_graph_walk(model, HOT_PATH_ENTRIES)
    for qual in sorted(parent):
        if qual in HOT_REBUILD_SANCTIONED:
            continue
        for fn in model.by_qual.get(qual, ()):
            if fn.file.removeprefix("src/") in HOT_REBUILD_SANCTIONED_FILES:
                continue
            for line, label, detail in rebuild_primitive_events(fn):
                findings.append(Finding(
                    "hot-path-rebuild", fn.file, line, fn.qualname,
                    detail,
                    f"{label} is reachable from the serving path "
                    f"({chain_of(parent, qual)}) outside the sanctioned "
                    "cold-rebuild fallbacks — per-tick rebuilds belong "
                    "to the carried caches (DESIGN.md §14/§15)"))


# --------------------------------------------------------------------------
# Rule: status-discipline


def rule_status(model, findings):
    for fn in model.functions:
        toks = fn.body
        n = len(toks)
        # Statement boundaries: ; { } at any nesting level.
        start = 0
        i = 0
        while i < n:
            t = toks[i].text
            if t in ("{", "}", ";"):
                if t == ";" and i > start:
                    check_statement(model, fn, toks, start, i, findings)
                start = i + 1
            elif t == "(":
                i = match_group(toks, i, "(", ")") - 1
            i += 1


def check_statement(model, fn, toks, start, end, findings):
    """Flags `receiver.Foo(...);` / `Foo(...);` statements discarding a
    Status/Result return. `end` indexes the terminating ';'."""
    if toks[end - 1].text != ")":
        return
    # Find the matching '(' of the final call.
    bal = 0
    j = end - 1
    while j >= start:
        if toks[j].text == ")":
            bal += 1
        elif toks[j].text == "(":
            bal -= 1
            if bal == 0:
                break
        j -= 1
    if j <= start or toks[j - 1].kind != "id":
        return
    name_idx = j - 1
    name = toks[name_idx].text
    if name in CPP_KEYWORDS or (MACRO_RE.match(name) and "_" in name):
        return
    # Everything before the name must be a pure receiver chain.
    k = name_idx - 1
    qual = None
    if k >= start and toks[k].text == "::":
        if k - 1 >= start and toks[k - 1].kind == "id":
            qual = toks[k - 1].text
            k -= 2
        else:
            return
    while k >= start:
        t = toks[k]
        if t.kind == "id" and t.text in CPP_KEYWORDS:
            if t.text in ("if", "else", "do", "while", "for", "switch",
                          "case"):
                k -= 1  # `if (cond) Foo();` still discards Foo's result
                continue
            return  # return/throw/co_return/... consume the value
        if t.text in (".", "->", "::") or t.kind == "id":
            k -= 1
            continue
        if t.text in (")", "]"):
            closer = t.text
            opener = "(" if closer == ")" else "["
            bal = 1
            k -= 1
            while k >= start and bal > 0:
                if toks[k].text == closer:
                    bal += 1
                elif toks[k].text == opener:
                    bal -= 1
                k -= 1
            continue
        return  # return/auto/=/(void)/... — the value is consumed
    is_status = False
    if qual is not None:
        is_status = f"{qual}::{name}" in model.status_quals
    elif fn.cls and f"{fn.cls}::{name}" in model.status_quals and \
            name_idx == start:
        is_status = True
    else:
        is_status = model.status_names.get(name, False)
    if not is_status:
        return
    line = toks[name_idx].line
    findings.append(Finding(
        "status-discipline", fn.file, line, fn.qualname,
        f"discard:{name}",
        f"{fn.qualname} discards the Status/Result returned by "
        f"{name}(...) — check it, propagate it, or call .IgnoreError() "
        "(DESIGN.md §10/§15)"))


# --------------------------------------------------------------------------
# Rule: round-path-hash


def rule_round_path_hash(model, findings):
    parent = call_graph_walk(model, ROUND_PATH_ENTRIES)
    for qual in sorted(parent):
        for fn in model.by_qual.get(qual, ()):
            for t in fn.body:
                if t.kind != "id" or t.text not in ROUND_PATH_HASH_TYPES:
                    continue
                findings.append(Finding(
                    "round-path-hash", fn.file, t.line, fn.qualname,
                    f"hash:{t.text}",
                    f"{fn.qualname} declares a std::{t.text} and is "
                    f"reachable from an active-learning round "
                    f"({chain_of(parent, qual)}) — index a dense per-index "
                    "array instead (DESIGN.md §15)"))


RULES = {
    "epoch-discipline": rule_epoch,
    "lock-discipline": rule_lock,
    "hot-path-rebuild": rule_hot_path,
    "status-discipline": rule_status,
    "round-path-hash": rule_round_path_hash,
}


# --------------------------------------------------------------------------
# Baseline


def load_baseline(path):
    if not path.is_file():
        return set()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ToolError(f"{path}: invalid baseline JSON ({e})")
    if not isinstance(data, dict) or "findings" not in data:
        raise ToolError(f"{path}: baseline must be "
                        '{"findings": [{"key": ..., "reason": ...}]}')
    return {entry["key"] for entry in data["findings"]}


def write_baseline(path, findings):
    payload = {
        "comment": "Accepted sight-analyzer findings. Prefer inline "
                   "// SIGHT_ANALYZER_OK(rule): reason suppressions; use "
                   "the baseline only for findings that have no natural "
                   "source line. Regenerate with --write-baseline.",
        "findings": [
            {"key": f.key(), "reason": "baselined (add a reason)",
             "message": f.message}
            for f in findings
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Driver


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".",
                        help="repo root (analyzes <root>/src)")
    parser.add_argument("--build-dir", default="build",
                        help="build dir containing compile_commands.json "
                             "(relative to --root unless absolute)")
    parser.add_argument("--rule", action="append", choices=RULE_NAMES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--frontend", default="auto",
                        choices=["auto", "internal", "libclang"])
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "<root>/tools/sight_analyzer_baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings as the new baseline")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in RULE_NAMES:
            print(name)
        return 0

    root = pathlib.Path(args.root).resolve()
    src_root = root / "src"
    if not src_root.is_dir():
        print(f"sight-analyzer: no src/ under {root}", file=sys.stderr)
        return 2
    build_dir = pathlib.Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    baseline_path = pathlib.Path(args.baseline) if args.baseline else \
        root / "tools" / "sight_analyzer_baseline.json"

    try:
        entries, cc_path = load_compile_commands(build_dir)
        tus = gather_tus(entries, cc_path, root, src_root)
        model, frontend = build_model(tus, root, src_root, args.frontend)
        baseline = load_baseline(baseline_path)

        findings = []
        for name in (args.rule or RULE_NAMES):
            RULES[name](model, findings)
    except ToolError as e:
        print(f"sight-analyzer: error: {e}", file=sys.stderr)
        return 2

    suppressed, baselined, active = [], [], []
    for f in findings:
        if model.is_suppressed(f.file, f.line, f.rule):
            suppressed.append(f)
        elif f.key() in baseline:
            baselined.append(f)
        else:
            active.append(f)

    if args.write_baseline:
        write_baseline(baseline_path, active)
        print(f"sight-analyzer: wrote {len(active)} finding(s) to "
              f"{baseline_path}", file=sys.stderr)
        return 0

    active.sort(key=lambda f: (f.file, f.line, f.rule))
    for f in active:
        print(f)
    if args.verbose:
        for f in suppressed:
            print(f"suppressed: {f}")
        for f in baselined:
            print(f"baselined:  {f}")
    print(f"sight-analyzer: {len(model.files)} files, "
          f"{len(model.functions)} functions ({frontend} frontend); "
          f"{len(active)} finding(s), {len(suppressed)} suppressed, "
          f"{len(baselined)} baselined", file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
