#!/usr/bin/env python3
"""crnet-analyze: the static checker for the crnet tree.

Enforces, on every path of the call graph rooted at the annotated
entry points (src/core/annotations.hh), the properties the runtime
suite only spot-checks:

  alloc          No heap allocation reachable from a CRNET_HOT_PATH
                 root: `new`, malloc-family calls, make_unique/
                 make_shared, or allocating std container methods.
  unordered-iter No iteration over std::unordered_map/unordered_set
                 reachable from a CRNET_RESULT_AFFECTING root —
                 hash order must never feed a reported result.
  wallclock      No wall-clock/time source (time(), gettimeofday(),
                 clock_gettime(), std::chrono::*_clock) anywhere in
                 src/ outside the bench timing shim
                 (src/sim/walltime.hh). Whole-tree rule.
  global-state   No mutable namespace-scope or function-local-static
                 state in src/ outside registered singletons.
                 Whole-tree rule.

and, file by file, five token rules (no suppression; each has at
most one exempt file):

  raw-random     No rand()/srand()/random() call or std::mt19937
                 engine in src/, tests/, bench/, examples/ or tools/
                 outside src/sim/rng.hh: every experiment is seeded
                 through SimConfig.
  raw-output     No printf/fprintf/puts/perror, cout/cerr/clog or
                 abort() call in src/ outside log.hh: library code
                 reports through src/sim/log.hh, and panic() aborts
                 after reporting.
  raw-assert     No assert() in src/: invariants use panic(), which
                 fires in every build type (assert is compiled out
                 under NDEBUG).
  raw-env        No getenv/secure_getenv/setenv/putenv/unsetenv call
                 in src/: every setting is a SimConfig key, so a run
                 is described by its command line alone.
  include-guard  Every src/ header is guarded by CRNET_<PATH>_HH, its
                 path under src/.

CRNET_ALLOW(rule, reason) suppresses one call-graph or whole-tree rule
inside the annotated function (or variable) and stops propagation of
that rule through it. The reason string is mandatory; an empty reason
is itself a violation (rule `allow-missing-reason`).

The frontend is a self-contained C++ tokenizer + declaration scanner
with no toolchain dependency: it recognizes the CRNET_* macros
textually, so it produces identical reports on any host. The token
rules read the same tokens, so comments and string literals never
trip them. A report line reads
`file:line: rule: detail [chain: root -> ... -> fn]`.

Exit status: 0 = clean, 1 = violations reported, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------

RULES = ("alloc", "unordered-iter", "wallclock", "global-state")

# Annotation name -> rule it roots.
ROOT_RULE = {"hot_path": "alloc", "result_affecting": "unordered-iter"}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "throw", "new", "delete", "static_assert", "decltype",
    "noexcept", "alignas", "case", "default", "do", "else", "goto",
    "typedef", "using", "template", "typename", "operator", "co_await",
    "co_return", "co_yield", "requires", "concept", "explicit",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "defined", "public", "private", "protected", "assert",
}

UNORDERED_TYPES = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
}

# Free functions that allocate.
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "to_string",
}

# std container methods that can allocate. Only counted when the call
# does not resolve to a function defined in this repository.
ALLOC_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "resize", "reserve", "assign", "append",
    "push", "substr", "str",
}

# Wall-clock sources (rule `wallclock`).
WALLCLOCK_NAMES = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get", "localtime",
    "gmtime", "mktime",
}
# `time(`/`clock(` only when std:: or :: qualified (bare names are too
# common as locals/members).
WALLCLOCK_QUALIFIED_ONLY = {"time", "clock"}


@dataclass
class Primitive:
    """A potential violation site inside one function."""
    rule: str
    file: str
    line: int
    detail: str


@dataclass
class CallSite:
    name: str                  # bare callee name
    recv: str | None = None    # receiver class, when statically known


@dataclass
class FunctionInfo:
    qname: str                 # Class::name or ns-qualified bare name
    cls: str | None
    name: str
    file: str
    line: int
    annotations: set = field(default_factory=set)
    allows: dict = field(default_factory=dict)   # rule -> reason
    calls: list = field(default_factory=list)    # [CallSite]
    primitives: list = field(default_factory=list)

    def merge(self, other: "FunctionInfo") -> None:
        """Fold a redefinition/declaration of the same function in."""
        self.annotations |= other.annotations
        for rule, reason in other.allows.items():
            self.allows.setdefault(rule, reason)
        self.calls.extend(other.calls)
        self.primitives.extend(other.primitives)


@dataclass
class GlobalVar:
    """Mutable namespace-scope state found outside any function."""
    name: str
    file: str
    line: int
    allows: dict = field(default_factory=dict)


@dataclass
class Program:
    functions: dict = field(default_factory=dict)  # qname -> FunctionInfo
    globals: list = field(default_factory=list)    # [GlobalVar]

    def add_function(self, fn: FunctionInfo) -> None:
        if fn.qname in self.functions:
            self.functions[fn.qname].merge(fn)
        else:
            self.functions[fn.qname] = fn


# --------------------------------------------------------------------------
# Tokenizer (internal frontend)
# --------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str   # id | str | num | punct
    text: str
    line: int


TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*|/\*.*?\*/)
      | (?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
      | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
      | (?P<id>[A-Za-z_]\w*)
      | (?P<punct>->|::|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~<>=.,;:?(){}\[\]#\\])
    """,
    re.VERBOSE | re.DOTALL,
)


def strip_preprocessor(text: str) -> str:
    """Blank out preprocessor directives, preserving line numbers."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            # Consume through backslash continuations.
            j = i
            while j < n:
                nl = text.find("\n", j)
                if nl < 0:
                    j = n
                    break
                k = nl - 1
                while k >= j and text[k] in " \t\r":
                    k -= 1
                if k >= j and text[k] == "\\":
                    j = nl + 1
                    continue
                j = nl
                break
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
            at_line_start = True
            continue
        if c == "\n":
            at_line_start = True
        elif c not in " \t\r":
            at_line_start = False
        out.append(c)
        i += 1
    return "".join(out)


def tokenize(text: str) -> list:
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        if m.start() != pos:
            # Unrecognized byte; skip it (keeps the scanner total).
            line += text.count("\n", pos, m.start())
        pos = m.end()
        frag = m.group(0)
        if m.lastgroup == "ws" or m.lastgroup == "comment":
            line += frag.count("\n")
            continue
        toks.append(Tok(m.lastgroup, frag, line))
        line += frag.count("\n")
    return toks


def skip_angle(toks: list, i: int) -> int:
    """From toks[i] == '<', return index past the matching '>'."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            return i  # Not a template argument list after all.
        i += 1
    return i


def is_template_head(toks: list, i: int) -> bool:
    """toks[i] starts a `template <...>` parameter list."""
    return (toks[i].text == "template" and i + 1 < len(toks)
            and toks[i + 1].text == "<")


def match_forward(toks: list, i: int, opener: str, closer: str) -> int:
    """Return index past the token matching toks[i] == opener."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


# --------------------------------------------------------------------------
# Internal frontend: declaration index (pass 1)
# --------------------------------------------------------------------------

class DeclIndex:
    """Cross-file name knowledge for the internal frontend."""

    def __init__(self) -> None:
        self.unordered_aliases: set = set()     # using X = unordered_*
        self.unordered_names: set = set()       # members/vars of such
        self.unordered_returning: set = set()   # fns returning them
        self.wallclock_aliases: set = set()     # using X = *_clock
        self.classes: set = set()
        self.class_members: dict = {}   # class -> {member name -> class}
        self.member_types: dict = {}    # member name -> class, any class

    def scan_aliases(self, toks: list) -> None:
        for i, t in enumerate(toks):
            if (t.text == "using" and i + 2 < len(toks)
                    and toks[i + 1].kind == "id"
                    and toks[i + 2].text == "="):
                j = i + 3
                while j < len(toks) and toks[j].text != ";":
                    if toks[j].text in UNORDERED_TYPES:
                        self.unordered_aliases.add(toks[i + 1].text)
                        break
                    if toks[j].text in WALLCLOCK_NAMES:
                        self.wallclock_aliases.add(toks[i + 1].text)
                        break
                    j += 1

    def scan(self, toks: list) -> None:
        unordered_like = UNORDERED_TYPES | self.unordered_aliases
        i = 0
        while i < len(toks):
            t = toks[i]
            if is_template_head(toks, i):
                i = skip_angle(toks, i + 1)
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                if i + 1 < len(toks) and toks[i + 1].kind == "id":
                    self.classes.add(toks[i + 1].text)
            if t.kind == "id" and t.text in unordered_like:
                j = i + 1
                if j < len(toks) and toks[j].text == "<":
                    j = skip_angle(toks, j)
                while j < len(toks) and toks[j].text in ("&", "*",
                                                         "const"):
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    name = toks[j].text
                    nxt = toks[j + 1].text if j + 1 < len(toks) else ""
                    if nxt == "(":
                        self.unordered_returning.add(name)
                    elif nxt in (";", "=", "{"):
                        self.unordered_names.add(name)
                i = j
                continue
            i += 1

    def scan_members(self, toks: list) -> None:
        """Type the data members of every class (Foo x_; const Foo& f
        = ...), per class and by name across classes. Only a
        declaration directly in a class body is a member: one inside a
        function body is a local, typed for its own function alone
        (local_types). Runs after scan() has registered every class of
        every file."""
        scopes: list = []   # per open brace: its class name, or None
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if is_template_head(toks, i):
                i = skip_angle(toks, i + 1)
                continue
            if t.kind == "id" and t.text in ("class", "struct") \
                    and i + 1 < n and toks[i + 1].kind == "id":
                j = i + 2
                while j < n and toks[j].text not in ("{", ";"):
                    j = skip_angle(toks, j) if toks[j].text == "<" \
                        else j + 1
                if j < n and toks[j].text == "{":
                    scopes.append(toks[i + 1].text)
                    i = j + 1
                    continue
            if t.text == "{":
                scopes.append(None)
            elif t.text == "}":
                if scopes:
                    scopes.pop()
            elif (scopes and scopes[-1] is not None and t.kind == "id"
                  and i + 1 < n and toks[i + 1].text in (";", "=", "{")):
                declared, cls = declaration_at(toks, i, self.classes)
                if declared and cls is not None:
                    self.class_members.setdefault(
                        scopes[-1], {}).setdefault(t.text, cls)
                    self.member_types.setdefault(t.text, cls)
            i += 1


def declaration_at(toks: list, i: int, classes: set) -> tuple:
    """Whether the name at toks[i] is declared there, and its class.

    Walks the declaration backwards to a statement or parameter
    boundary. It declares the name when a type word (any identifier
    but a keyword) stands before it, so `x = 1;` and `*p = v;` declare
    nothing. Its class is the first repo class named outside angle
    brackets: `vector<Foo> xs_;` types nothing, since its calls are
    the container's, not Foo's. Returns (declared, class or None)."""
    j = i - 1
    cls = None
    declared = False
    steps = 0
    angle = 0
    while j >= 0 and steps < 24:
        tj = toks[j]
        if tj.text in (";", "{", "}", "(", ")", "return", ".", "->") \
                or (tj.text == "," and angle <= 0):
            break
        if tj.text == ">":
            angle += 1
        elif tj.text == ">>":
            angle += 2
        elif tj.text == "<":
            angle -= 1
        elif tj.kind == "id" and tj.text not in CPP_KEYWORDS:
            declared = True
            if angle <= 0 and tj.text in classes:
                cls = tj.text
                break
        j -= 1
        steps += 1
    return declared, cls


def local_types(toks: list, params: tuple, body: int, body_end: int,
                classes: set) -> dict:
    """Name -> class (None: no repo class) of every parameter and local
    of one function: its parameters in toks[params[0]:params[1]], and
    in its body [body, body_end) each declaration, lambda parameter and
    range-for variable. First declaration wins."""
    found: dict = {}

    def note(i: int) -> None:
        declared, cls = declaration_at(toks, i, classes)
        if declared:
            found.setdefault(toks[i].text, cls)

    def note_params(lo: int, hi: int) -> None:
        depth = 0
        for j in range(lo + 1, hi - 1):
            tj = toks[j].text
            if tj in ("(", "[", "{"):
                depth += 1
            elif tj in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and toks[j].kind == "id" \
                    and toks[j + 1].text in (",", ")", "="):
                note(j)

    note_params(*params)
    in_for = []  # close-paren index of each enclosing `for (`
    for i in range(body + 1, body_end):
        t = toks[i]
        while in_for and i >= in_for[-1]:
            in_for.pop()
        if t.text == "(" and toks[i - 1].text == "]":
            note_params(i, match_forward(toks, i, "(", ")"))
        elif t.text == "for" and toks[i + 1].text == "(":
            in_for.append(match_forward(toks, i + 1, "(", ")"))
        elif t.kind == "id" and i + 1 < body_end:
            nxt = toks[i + 1].text
            if nxt in (";", "=", "{") or (nxt == ":" and in_for):
                note(i)
    return found


# --------------------------------------------------------------------------
# Internal frontend: function extraction (pass 2)
# --------------------------------------------------------------------------

ANNOTATION_MACROS = {
    "CRNET_HOT_PATH": "hot_path",
    "CRNET_RESULT_AFFECTING": "result_affecting",
}


def parse_string_args(toks: list, i: int) -> tuple:
    """Parse CRNET_ALLOW(...) args from toks[i] == '('. Returns
    ((rule, reason), index past ')'). Adjacent literals concatenate."""
    end = match_forward(toks, i, "(", ")")
    args, cur, have = [], "", False
    for t in toks[i + 1:end - 1]:
        if t.kind == "str":
            cur += t.text[1:-1]
            have = True
        elif t.text == ",":
            args.append(cur if have else None)
            cur, have = "", False
    args.append(cur if have else None)
    rule = args[0] if len(args) >= 1 else None
    reason = args[1] if len(args) >= 2 else None
    return (rule, reason), end


def gather_qname(toks: list, i: int) -> tuple:
    """Walk backwards from the name token at i, collecting a
    Qualified::name. Returns (qname, cls, bare, start_index)."""
    parts = [toks[i].text]
    j = i
    while j - 2 >= 0 and toks[j - 1].text == "::" \
            and toks[j - 2].kind == "id":
        parts.insert(0, toks[j - 2].text)
        j -= 2
    if j - 1 >= 0 and toks[j - 1].text == "~":
        parts[-1] = "~" + parts[-1] if len(parts) == 1 else parts[-1]
    cls = parts[-2] if len(parts) >= 2 else None
    return "::".join(parts), cls, parts[-1], j


def body_start(toks: list, close_paren: int) -> int | None:
    """Given the index just past a signature's ')', return the index
    of the body '{', or None when this is not a definition."""
    i = close_paren
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "{":
            return i
        if t in ("const", "noexcept", "override", "final", "&", "&&",
                 "mutable"):
            i += 1
            continue
        if t == "->":  # trailing return type
            i += 1
            while i < n and toks[i].text not in ("{", ";"):
                if toks[i].text == "<":
                    i = skip_angle(toks, i)
                else:
                    i += 1
            continue
        if t == "(":   # noexcept(...) operand
            i = match_forward(toks, i, "(", ")")
            continue
        if t == ":":   # ctor member-init list
            i += 1
            while i < n:
                tt = toks[i].text
                if tt == "(":
                    i = match_forward(toks, i, "(", ")")
                elif tt == "<":
                    i = skip_angle(toks, i)
                elif tt == "{":
                    prev = toks[i - 1].text
                    if prev == ")" or prev == "}":
                        return i
                    if toks[i - 1].kind == "id" or prev == ">":
                        i = match_forward(toks, i, "{", "}")
                    else:
                        return i
                elif tt == ";":
                    return None
                elif tt == "," or toks[i].kind in ("id", "str", "num") \
                        or tt in ("::", ".", "&", "*", "-", "+"):
                    i += 1
                else:
                    return None
            return None
        return None if t != ";" else None
    return None


class InternalFrontend:
    """Tokenizer-based extraction, no toolchain required."""

    def __init__(self, root: Path, src_files: list) -> None:
        self.root = root
        self.files = src_files
        self.index = DeclIndex()
        self.program = Program()

    def run(self) -> Program:
        toks_by_file = {}
        for path in self.files:
            text = strip_preprocessor(
                path.read_text(encoding="utf-8", errors="replace"))
            toks_by_file[path] = tokenize(text)
        for toks in toks_by_file.values():
            self.index.scan_aliases(toks)
        for toks in toks_by_file.values():
            self.index.scan(toks)
        for toks in toks_by_file.values():
            self.index.scan_members(toks)
        for path, toks in toks_by_file.items():
            self._scan_file(path, toks)
        return self.program

    # -- declaration walk ------------------------------------------------

    def _scan_file(self, path: Path, toks: list) -> None:
        rel = str(path.relative_to(self.root))
        n = len(toks)
        i = 0
        scopes = []   # ("ns"|"class", name, brace_depth_at_entry)
        depth = 0
        pending_annotations: set = set()
        pending_allows: dict = {}
        stmt_start = 0  # token index where the current statement began

        def clear_pending():
            pending_annotations.clear()
            pending_allows.clear()

        while i < n:
            t = toks[i]
            if t.kind == "id" and t.text in ANNOTATION_MACROS:
                pending_annotations.add(ANNOTATION_MACROS[t.text])
                i += 1
                continue
            if t.kind == "id" and t.text == "CRNET_ALLOW":
                if i + 1 < n and toks[i + 1].text == "(":
                    (rule, reason), i = parse_string_args(toks, i + 1)
                    pending_allows[rule or ""] = reason
                    continue
                i += 1
                continue
            # `class Io` in a template parameter list names a
            # parameter, not a class: never open a scope for it.
            if is_template_head(toks, i):
                i = skip_angle(toks, i + 1)
                continue
            if t.kind == "id" and t.text in ("namespace",):
                if i + 1 < n and toks[i + 1].kind == "id" \
                        and toks[i + 2].text == "{":
                    scopes.append(("ns", toks[i + 1].text, depth))
                    depth += 1
                    i += 3
                elif i + 1 < n and toks[i + 1].text == "{":
                    scopes.append(("ns", "", depth))
                    depth += 1
                    i += 2
                else:
                    i += 1
                stmt_start = i
                continue
            if t.kind == "id" and t.text in ("class", "struct") \
                    and i + 1 < n and toks[i + 1].kind == "id":
                name = toks[i + 1].text
                j = i + 2
                while j < n and toks[j].text not in ("{", ";"):
                    if toks[j].text == "<":
                        j = skip_angle(toks, j)
                    else:
                        j += 1
                if j < n and toks[j].text == "{":
                    scopes.append(("class", name, depth))
                    depth += 1
                    i = j + 1
                else:
                    i = j + 1
                stmt_start = i
                clear_pending()
                continue
            if t.text == "{":
                depth += 1
                i += 1
                stmt_start = i
                clear_pending()
                continue
            if t.text == "}":
                depth -= 1
                while scopes and scopes[-1][2] == depth:
                    scopes.pop()
                i += 1
                stmt_start = i
                clear_pending()
                continue
            if t.text == ";":
                self._maybe_global_var(rel, toks, stmt_start, i,
                                       scopes, pending_allows)
                i += 1
                stmt_start = i
                clear_pending()
                continue
            if t.text == "(" and i >= 1 and toks[i - 1].kind == "id" \
                    and toks[i - 1].text not in CPP_KEYWORDS:
                close = match_forward(toks, i, "(", ")")
                body = body_start(toks, close)
                qname, cls, bare, _ = gather_qname(toks, i - 1)
                if cls is None:
                    for kind, nm, _d in reversed(scopes):
                        if kind == "class":
                            cls = nm
                            qname = f"{cls}::{bare}"
                            break
                if body is not None:
                    fn = FunctionInfo(qname, cls, bare, rel,
                                      toks[i - 1].line)
                    fn.annotations |= pending_annotations
                    fn.allows.update(pending_allows)
                    clear_pending()
                    body_end = match_forward(toks, body, "{", "}")
                    self._scan_body(fn, toks, (i, close), body,
                                    body_end)
                    self.program.add_function(fn)
                    i = body_end
                    stmt_start = i
                    continue
                # Declaration only: attach annotations by name.
                if pending_annotations or pending_allows:
                    fn = FunctionInfo(qname, cls, bare, rel,
                                      toks[i - 1].line)
                    fn.annotations |= pending_annotations
                    fn.allows.update(pending_allows)
                    clear_pending()
                    self.program.add_function(fn)
                i = close
                continue
            i += 1

    def _maybe_global_var(self, rel: str, toks: list, start: int,
                          end: int, scopes: list,
                          allows: dict) -> None:
        """Statement [start, end) at namespace scope ending in ';' —
        flag `static`/`thread_local` non-const data definitions."""
        if any(kind == "class" for kind, _n, _d in scopes):
            return
        stmt = toks[start:end]
        words = {t.text for t in stmt}
        if not ({"static", "thread_local"} & words):
            return
        if {"const", "constexpr", "constinit", "consteval"} & words:
            return
        if "(" in {t.text for t in stmt}:
            return  # Function declaration/definition artifact.
        name, line = None, toks[start].line if stmt else 0
        for j in range(len(stmt) - 1, -1, -1):
            if stmt[j].kind == "id" and stmt[j].text not in (
                    "static", "thread_local"):
                name, line = stmt[j].text, stmt[j].line
                break
            if stmt[j].text in ("=", "{"):
                continue
        if name is None:
            return
        self.program.globals.append(
            GlobalVar(name, rel, line, dict(allows)))

    # -- body walk -------------------------------------------------------

    def _scan_body(self, fn: FunctionInfo, toks: list, params: tuple,
                   body: int, body_end: int) -> None:
        idx = self.index
        unordered_like = idx.unordered_names
        # A receiver is typed by the declaration in scope: this
        # function's parameters and locals, then its class's members,
        # then a member of any class (the `stats` of `ctx.stats->x()`).
        # A local never types a name in another function.
        locals_ = local_types(toks, params, body, body_end, idx.classes)
        own_members = idx.class_members.get(fn.cls, {})
        # `name = [` defines a local lambda; its body is this body's
        # tokens, so a call to it is no edge to a same-named function.
        lambdas: set = set()
        i = body + 1
        while i < body_end:
            t = toks[i]
            if t.kind != "id" and t.text not in ("::",):
                if t.text == "::" :
                    pass
                i += 1
                continue
            txt = t.text

            # Nested CRNET_ALLOW inside a body applies to the whole
            # enclosing function (scoped suppression).
            if txt == "CRNET_ALLOW" and i + 1 < body_end \
                    and toks[i + 1].text == "(":
                (rule, reason), i = parse_string_args(toks, i + 1)
                fn.allows.setdefault(rule or "", reason)
                continue

            # `new` expression.
            if txt == "new":
                fn.primitives.append(Primitive(
                    "alloc", fn.file, t.line, "operator new"))
                i += 1
                continue

            # Function-local static state.
            if txt in ("static", "thread_local"):
                j = i + 1
                const_like = False
                while j < body_end and toks[j].text not in (";", "=",
                                                            "{", "("):
                    if toks[j].text in ("const", "constexpr",
                                        "constinit"):
                        const_like = True
                    j += 1
                if not const_like and j < body_end \
                        and toks[j].text != "(":
                    fn.primitives.append(Primitive(
                        "global-state", fn.file, t.line,
                        f"function-local {txt} state"))
                i += 1
                continue

            # Wall-clock sources.
            if txt in WALLCLOCK_NAMES or txt in idx.wallclock_aliases:
                fn.primitives.append(Primitive(
                    "wallclock", fn.file, t.line, f"{txt}"))
                i += 1
                continue
            if txt in WALLCLOCK_QUALIFIED_ONLY and i >= 1 \
                    and toks[i - 1].text == "::" \
                    and i + 1 < body_end and toks[i + 1].text == "(":
                fn.primitives.append(Primitive(
                    "wallclock", fn.file, t.line, f"{txt}()"))
                i += 1
                continue

            # Range-for over an unordered container.
            if txt == "for" and i + 1 < body_end \
                    and toks[i + 1].text == "(":
                close = match_forward(toks, i + 1, "(", ")")
                colon = None
                depth = 0
                for j in range(i + 2, close - 1):
                    tj = toks[j].text
                    if tj in ("(", "[", "{"):
                        depth += 1
                    elif tj in (")", "]", "}"):
                        depth -= 1
                    elif tj == ":" and depth == 0 \
                            and toks[j - 1].text != ":" \
                            and (j + 1 >= close
                                 or toks[j + 1].text != ":"):
                        colon = j
                        break
                if colon is not None:
                    range_toks = toks[colon + 1:close - 1]
                    hit = self._unordered_expr(range_toks)
                    if hit is not None:
                        fn.primitives.append(Primitive(
                            "unordered-iter", fn.file, t.line,
                            f"range-for over unordered "
                            f"container '{hit}'"))
                i = colon + 1 if colon is not None else close
                continue

            if i + 2 < body_end and toks[i + 1].text == "=" \
                    and toks[i + 2].text == "[":
                lambdas.add(txt)
                i += 1
                continue

            # Member or free call.
            if i + 1 < body_end and toks[i + 1].text == "(":
                recv_name = None
                accessor = toks[i - 1].text if i >= 1 else ""
                if accessor not in (".", "->", "::") and txt in lambdas:
                    i += 1
                    continue
                if accessor in (".", "->") and i >= 2 \
                        and toks[i - 2].kind == "id":
                    recv_name = toks[i - 2].text
                elif accessor == "::" and i >= 2 \
                        and toks[i - 2].kind == "id":
                    recv_name = toks[i - 2].text

                # begin/cbegin start an iteration; bare end()/cend()
                # calls are overwhelmingly `it != x.end()` guards after
                # a point lookup (find), which is order-independent.
                if txt in ("begin", "cbegin") \
                        and recv_name in unordered_like:
                    fn.primitives.append(Primitive(
                        "unordered-iter", fn.file, t.line,
                        f"iterator over unordered container "
                        f"'{recv_name}'"))
                    i += 1
                    continue
                if txt in CPP_KEYWORDS:
                    i += 1
                    continue
                if txt in ALLOC_CALLS:
                    fn.primitives.append(Primitive(
                        "alloc", fn.file, t.line, f"{txt}()"))
                    i += 1
                    continue
                recv_cls = None
                if recv_name is not None:
                    if recv_name in idx.classes:
                        recv_cls = recv_name
                    elif recv_name in locals_:
                        recv_cls = locals_[recv_name]
                    elif recv_name in own_members:
                        recv_cls = own_members[recv_name]
                    else:
                        recv_cls = idx.member_types.get(recv_name)
                fn.calls.append(CallSite(txt, recv_cls))
                if accessor in (".", "->") and txt in ALLOC_METHODS \
                        and recv_cls is None:
                    fn.primitives.append(Primitive(
                        "alloc", fn.file, t.line,
                        f".{txt}() container growth"))
                i += 1
                continue
            i += 1

    def _unordered_expr(self, toks: list) -> str | None:
        idx = self.index
        for j, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in idx.unordered_names:
                return t.text
            if t.text in idx.unordered_returning \
                    and j + 1 < len(toks) and toks[j + 1].text == "(":
                return t.text + "()"
        return None


# --------------------------------------------------------------------------
# Propagation + reporting core
# --------------------------------------------------------------------------

@dataclass
class Violation:
    file: str
    line: int
    rule: str
    detail: str
    chain: list

    def render(self) -> str:
        s = f"{self.file}:{self.line}: {self.rule}: {self.detail}"
        if self.chain:
            s += " [chain: " + " -> ".join(self.chain) + "]"
        return s


def build_call_index(program: Program) -> dict:
    by_name: dict = {}
    for fn in program.functions.values():
        by_name.setdefault(fn.name, []).append(fn.qname)
    return by_name


def edge_targets(program: Program, by_name: dict,
                 call: CallSite) -> list:
    if call.recv is not None:
        q = f"{call.recv}::{call.name}"
        if q in program.functions:
            return [q]
    return by_name.get(call.name, [])


def propagate(program: Program, rule: str,
              annotation: str) -> list:
    by_name = build_call_index(program)
    roots = [fn.qname for fn in program.functions.values()
             if annotation in fn.annotations]
    parent: dict = {}
    queue = deque()
    for r in roots:
        parent[r] = None
        queue.append(r)
    violations = []
    seen_sites: set = set()
    while queue:
        q = queue.popleft()
        fn = program.functions[q]
        if rule in fn.allows:
            continue  # Suppressed: do not report, do not descend.
        for prim in fn.primitives:
            if prim.rule != rule:
                continue
            site = (prim.file, prim.line, prim.rule)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            chain = []
            cur = q
            while cur is not None:
                chain.append(cur)
                cur = parent[cur]
            violations.append(Violation(
                prim.file, prim.line, rule, prim.detail,
                list(reversed(chain))))
        for call in fn.calls:
            for tgt in edge_targets(program, by_name, call):
                if tgt not in parent:
                    parent[tgt] = q
                    queue.append(tgt)
    return violations


def whole_tree(program: Program, rule: str) -> list:
    violations = []
    for fn in program.functions.values():
        if rule in fn.allows:
            continue
        for prim in fn.primitives:
            if prim.rule == rule:
                violations.append(Violation(
                    prim.file, prim.line, rule, prim.detail,
                    [fn.qname]))
    return violations


def global_state_violations(program: Program) -> list:
    violations = whole_tree(program, "global-state")
    for var in program.globals:
        if "global-state" in var.allows:
            continue
        violations.append(Violation(
            var.file, var.line, "global-state",
            f"mutable namespace-scope state '{var.name}'", []))
    return violations


def allow_reason_violations(program: Program) -> list:
    violations = []
    for fn in program.functions.values():
        for rule, reason in fn.allows.items():
            if not rule or rule not in RULES:
                violations.append(Violation(
                    fn.file, fn.line, "allow-missing-reason",
                    f"CRNET_ALLOW with unknown rule "
                    f"'{rule or '<empty>'}' on {fn.qname}", []))
            elif not (reason or "").strip():
                violations.append(Violation(
                    fn.file, fn.line, "allow-missing-reason",
                    f"CRNET_ALLOW(\"{rule}\") on {fn.qname} has no "
                    f"reason string", []))
    for var in program.globals:
        for rule, reason in var.allows.items():
            if rule in RULES and not (reason or "").strip():
                violations.append(Violation(
                    var.file, var.line, "allow-missing-reason",
                    f"CRNET_ALLOW(\"{rule}\") on '{var.name}' has "
                    f"no reason string", []))
    return violations


def analyze(program: Program) -> list:
    violations = []
    violations += propagate(program, "alloc", "hot_path")
    violations += propagate(program, "unordered-iter",
                            "result_affecting")
    violations += whole_tree(program, "wallclock")
    violations += global_state_violations(program)
    violations += allow_reason_violations(program)
    return violations


# --------------------------------------------------------------------------
# Token rules (file by file)
# --------------------------------------------------------------------------

CPP_SUFFIXES = (".cc", ".hh", ".cpp", ".hpp", ".h")
HEADER_SUFFIXES = (".hh", ".hpp", ".h")

# Trees the token rules read. The fixture corpus holds planted
# violations by design, so only its own fixture runs read it.
TOKEN_RULE_DIRS = ("src", "tests", "bench", "examples", "tools")
FIXTURE_DIR = Path("tests") / "analyze_fixtures"

RAW_RANDOM_ENGINES = {"mt19937", "mt19937_64"}
RAW_RANDOM_CALLS = {"rand", "srand", "random"}
RAW_OUTPUT_NAMES = {"printf", "fprintf", "puts", "perror",
                    "cout", "cerr", "clog"}
RAW_ENV_CALLS = {"getenv", "secure_getenv", "setenv", "putenv",
                 "unsetenv"}


def expected_guard(rel: Path) -> str:
    """CRNET_<PATH>_HH for the header at `rel` (under src/)."""
    parts = [p.upper().replace("-", "_").replace(".", "_")
             for p in rel.parts[1:]]
    return "CRNET_" + "_".join(parts)


def include_guard_violation(rel: Path, toks: list) -> Violation | None:
    """The header's first `#ifndef NAME` must name its guard."""
    want = expected_guard(rel)
    for i in range(len(toks) - 2):
        if toks[i].text == "#" and toks[i + 1].text == "ifndef":
            name = toks[i + 2].text
            if name == want:
                return None
            return Violation(str(rel), toks[i].line, "include-guard",
                             f"{name} should be {want}", [])
    return Violation(str(rel), 1, "include-guard",
                     f"missing include guard ({want})", [])


def token_rule_violations(root: Path, files: list) -> list:
    violations = []
    for path in files:
        rel = path.relative_to(root)
        toks = tokenize(path.read_text(encoding="utf-8", errors="replace"))
        in_src = rel.parts[0] == "src"
        check_random = rel != Path("src/sim/rng.hh")
        check_output = in_src and rel.name != "log.hh"

        def report(tok: Tok, rule: str, detail: str) -> None:
            violations.append(Violation(str(rel), tok.line, rule,
                                        detail, []))

        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            call = i + 1 < len(toks) and toks[i + 1].text == "("
            if check_random and (t.text in RAW_RANDOM_ENGINES or (
                    call and t.text in RAW_RANDOM_CALLS)):
                report(t, "raw-random",
                       f"{t.text}{'()' if call else ''}; "
                       "use src/sim/rng.hh")
            if check_output and (t.text in RAW_OUTPUT_NAMES or (
                    call and t.text == "abort")):
                report(t, "raw-output",
                       f"{t.text}{'()' if call else ''}; "
                       "use src/sim/log.hh")
            if in_src and call and t.text == "assert" \
                    and toks[i - 1].text != ".":
                report(t, "raw-assert",
                       "assert(); use panic() (active in all builds)")
            if in_src and call and t.text in RAW_ENV_CALLS \
                    and toks[i - 1].text not in (".", "->"):
                report(t, "raw-env",
                       f"{t.text}(); settings are SimConfig keys")
        if in_src and path.suffix in HEADER_SUFFIXES:
            v = include_guard_violation(rel, toks)
            if v is not None:
                violations.append(v)
    return violations


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_sources(root: Path, tops: tuple) -> list:
    files = []
    for top in tops:
        base = root / top
        if base.is_dir():
            files += [p for p in base.rglob("*")
                      if p.suffix in CPP_SUFFIXES and p.is_file()
                      and not p.relative_to(root).is_relative_to(
                          FIXTURE_DIR)]
    return sorted(files)


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(
        prog="crnet_analyze.py",
        description="Static checks over the crnet tree.")
    ap.add_argument("root", nargs="?", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--report", metavar="FILE",
                    help="also write the report to FILE")
    args = ap.parse_args(argv[1:])

    root = Path(args.root).resolve()
    src_files = collect_sources(root, ("src",))
    if not src_files:
        print(f"crnet_analyze: no C++ sources under {root}/src",
              file=sys.stderr)
        return 2
    files = collect_sources(root, TOKEN_RULE_DIRS)

    program = InternalFrontend(root, src_files).run()
    violations = analyze(program) + token_rule_violations(root, files)
    violations.sort(key=lambda v: (v.file, v.line, v.rule, v.detail))
    lines = [v.render() for v in violations]
    summary = (f"crnet_analyze: {len(files)} files "
               f"({len(src_files)} in src/), "
               f"{len(program.functions)} functions, "
               f"{len(violations)} violation(s)")
    out = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(out)
    if args.report:
        Path(args.report).write_text(out, encoding="utf-8")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
