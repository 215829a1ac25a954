#!/usr/bin/env python3
"""protocol_lint.py -- static analysis of the repo's memory-ordering and
reclamation contracts (stdlib only, like perf_gate.py / trace_summarize.py).

The paper's correctness argument rests on a handful of ordering and
reclamation invariants (freeze-before-copy publication, txn-word CAS edges,
seq_cst fences around cache installs, unlinker-retires-exactly-once). This
pass makes them machine-checked instead of comment-checked. Five rule
families, documented in DESIGN.md section 2f:

  Atomics discipline
    atomics.default-order      atomic .load/.store/.exchange/.fetch_* call
                               without an explicit std::memory_order_* --
                               intentional seq_cst must be spelled out
    atomics.cas-failure-order  compare_exchange_{weak,strong} naming only the
                               success order; the failure order must be
                               explicit too

  Ordering-contract annotations (edge table:
  src/util/ordering_contracts.hpp, X-macro style)
    contract.unknown-edge      a [publishes:]/[acquires:] tag names an edge
                               that the table does not declare
    contract.orphan-annotation a tag with no atomic op / fence on the same
                               line or within the next few lines to bind to
    contract.relaxed-acquire   a memory_order_relaxed load carrying an
                               [acquires:] tag (a relaxed read synchronizes
                               with nothing)
    contract.publish-on-load   a pure load carrying a [publishes:] tag
    contract.missing-publish   a declared edge with no [publishes:] site
    contract.missing-acquire   a declared edge with no [acquires:] site

  SMR discipline
    smr.retire-outside-guard   retire/retire_raw/retire_raw_sized (or a
                               retire_* wrapper) called in a function that
                               neither pins a guard before the call nor is
                               annotated [smr: caller-pinned]
    smr.helper-retires         a function annotated [helper: no-retire]
                               nevertheless retires
    smr.raw-delete             raw `delete` of a protocol node outside the
                               designated make/destroy helpers and without a
                               [delete: unpublished] tag (protocol dirs only)
    smr.raw-new                raw `new` outside the designated make helpers
                               (protocol dirs only)
    smr.lifecycle-bypass       in a cachetrie/ file, a direct `<Node>::make(`
                               or `<Node>::destroy(` call, a `delete`, or a
                               `Reclaimer::retire*` call outside the trie's
                               lifecycle functions make, retire, discard and
                               node_bytes -- the only places that book the
                               bounded mode's byte ledger

  Read-path discipline (functions annotated [read-path])
    readpath.rmw               an atomic read-modify-write (.fetch_*,
                               .exchange, .compare_exchange_*) in the body
    readpath.seq-cst           a seq_cst (or defaulted) .store, or a seq_cst
                               atomic_thread_fence, in the body
                               Each of these is a locked instruction or a
                               full barrier on x86. The rule reads only the
                               marked body, not its callees, and cannot see
                               operator forms such as ++ on an atomic.

  Trie-word codec (cachetrie/ paths only)
    codec.raw-word             outside a scope annotated [codec], a
                               std::atomic<T> or a reinterpret_cast<T> whose
                               T is a raw trie word: `Word`, `uintptr_t`, a
                               node pointer (`...Node...*`) or an atomic of
                               one. Slot, txn, result and cache words are
                               AtomicRefs (nodes.hpp); loading, storing or
                               CASing one around that codec would drop the
                               tag that travels with the pointer. Inside
                               [codec], an atomic call that forwards its
                               caller's order parameters is not a defaulted
                               order: the callers' own sites are checked.

  Chaos-site table (src/testkit/chaos.hpp, X-macro style)
    chaos.dead-row             a CACHETRIE_CHAOS_SITES row that no
                               chaos_point( crosses: no file that calls
                               chaos_point( names the row as Site::<handle>
                               (directly, or through a variable such as a
                               site parameter or a constant that holds it)

  Suppression hygiene (warnings; never fail the run)
    suppression.undocumented   scripts/lint_suppressions.txt entry without a
                               justification comment directly above it
    suppression.unused         suppression entry that matched nothing
    tsan-supp.undocumented     scripts/tsan.supp entry without a one-line
                               justification comment directly above it

Annotation grammar (inside any C++ comment):
    [publishes: EDGE_A, EDGE_B]   release side of the named edge(s); binds to
                                  the next atomic op or fence within 3 lines
    [acquires: EDGE_A]            acquire side; same binding rule
    [smr: caller-pinned]          this function retires under the caller's
                                  guard (binds to the enclosing function, or
                                  to one starting within 5 lines below)
    [helper: no-retire]           this function is a helping path and must
                                  never retire (same binding rule)
    [read-path]                   this function is on the lookup fast path
                                  and may not use an atomic RMW or a
                                  seq_cst store or fence (same binding rule)
    [delete: unpublished]         this `delete` destroys a node that was
                                  never published, so no grace period applies
    [codec]                       this class or function is the trie-word
                                  codec (binds to the enclosing scope, or to
                                  a class or function starting within 5
                                  lines below)

Usage:
    protocol_lint.py [PATHS...]           lint (default: src/ next to repo)
    protocol_lint.py --json [FILE]        also emit lint-findings-v1 JSON;
                                          with no FILE, honors
                                          $CACHETRIE_LINT_OUT (file, or a
                                          directory to hold LINT_findings.json)
                                          and falls back to stdout
    protocol_lint.py --self-test DIR      fixture mode: each file is analyzed
                                          alone, suppressions are ignored and
                                          `// expect: <rule>` comments must
                                          match the findings exactly

Exit status: 0 when there are no unsuppressed error findings (warnings never
fail the run), 1 otherwise, 2 on usage errors.
"""

import fnmatch
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")

ATOMIC_METHODS = {
    "load", "store", "exchange",
    "compare_exchange_weak", "compare_exchange_strong",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
}
CAS_METHODS = {"compare_exchange_weak", "compare_exchange_strong"}
RMW_METHODS = ATOMIC_METHODS - {"load", "store"}

# Directories whose raw new/delete traffic must flow through make/destroy
# helpers (the protocol node types live here). "net" carries no protocol
# nodes, but the serving layer buys into the same discipline: connection
# and buffer ownership is RAII-only, so any raw new/delete appearing there
# is a bug by construction.
PROTOCOL_NODE_DIRS = {"cachetrie", "ctrie", "chashmap", "skiplist", "net"}

# Enclosing-function names allowed to use raw new/delete on protocol nodes.
DESIGNATED_HELPER_RE = re.compile(
    r"^(~|make$|make_|destroy|free_|delete_|clone)")

# The cache-trie makes, retires and frees every node through one lifecycle
# function each, which also book its byte ledger; nothing else in these
# directories may allocate, retire or free a node directly.
LIFECYCLE_DIRS = {"cachetrie"}
LIFECYCLE_FUNCS = {"make", "retire", "discard", "node_bytes"}
NODE_TYPE_RE = re.compile(r"^(?:[A-Z]\w*Node\w*|CacheArray)$")

# A template argument that is a raw trie word: the word type itself, an
# integer wide enough to hold one, or a pointer to a node type.
CODEC_DIRS = {"cachetrie"}
CODEC_ANNOTATION_RE = re.compile(r"\[codec\]")
RAW_WORD_RE = re.compile(
    r"^(?:(?:std::)?uintptr_t|(?:\w+::)*Word|(?:const\s*)?(?:\w+::)*\w*Node\w*"
    r"(?:<.*>)?\s*\*|(?:std::)?atomic<.*>\s*\*?)$")
# Order arguments an atomic call takes when none is defaulted.
FULL_ORDER_ARGS = {"load": 1, "store": 2, "exchange": 2,
                   "compare_exchange_weak": 4, "compare_exchange_strong": 4}

CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "catch", "return",
}
TYPE_SCOPE_KEYWORDS = {"struct", "class", "union", "enum", "namespace"}

ANNOTATION_RE = re.compile(
    r"\[(publishes|acquires):\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\]")
# Function annotations: Scope attribute -> (pattern, spelling).
FUNC_ANNOTATIONS = {
    "caller_pinned": (re.compile(r"\[smr:\s*caller-pinned\s*\]"),
                      "smr: caller-pinned"),
    "no_retire": (re.compile(r"\[helper:\s*no-retire\s*\]"),
                  "helper: no-retire"),
    "read_path": (re.compile(r"\[read-path\]"), "read-path"),
}
DELETE_ANNOTATION_RE = re.compile(r"\[delete:\s*unpublished\s*\]")
EXPECT_RE = re.compile(r"expect:\s*([a-z0-9.\-]+)")
RETIRE_NAME_RE = re.compile(r"^retire(_[A-Za-z0-9_]+)?$")
EDGE_MACRO_RE = re.compile(r"^\s*#\s*define\s+CACHETRIE_ORDERING_EDGES\b")
CHAOS_MACRO_RE = re.compile(r"^\s*#\s*define\s+CACHETRIE_CHAOS_SITES\b")
TABLE_ENTRY_RE = re.compile(r"\bX\(\s*([A-Za-z0-9_]+)\s*,")

MAX_ANNOTATION_BIND_LINES = 3
MAX_FUNC_ANNOTATION_BIND_LINES = 5


class Finding:
    def __init__(self, rule, path, line, message, severity="error"):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.severity = severity
        self.suppressed_by = None

    def as_json(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed_by is not None,
        }

    def render(self):
        tag = "warning" if self.severity == "warning" else "error"
        sup = "  [suppressed: {}]".format(self.suppressed_by) \
            if self.suppressed_by else ""
        return "{}:{}: {}: [{}] {}{}".format(
            self.path, self.line, tag, self.rule, self.message, sup)


class Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token({!r}@{})".format(self.text, self.line)


class Comment:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line


PUNCT3 = ("<=>", "->*", "...", "<<=", ">>=")
PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")
ID_START = re.compile(r"[A-Za-z_]")
ID_CHARS = re.compile(r"[A-Za-z0-9_]*")


def tokenize(text):
    """Returns (tokens, comments). Strings and chars collapse to one token;
    preprocessor logical lines (with continuations) are skipped entirely so
    macro bodies cannot unbalance the scope tree."""
    tokens = []
    comments = []
    i = 0
    n = len(text)
    line = 1
    col = 1
    at_line_start = True

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c == "\n":
            advance(1)
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            advance(1)
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                if j < 0:
                    j = n
                comments.append(Comment(text[i:j], line))
                advance(j - i)
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j < 0 else j + 2
                start_line = line
                body = text[i:j]
                # Multi-line block comments register one Comment per line so
                # annotations bind from the line they are written on.
                for off, part in enumerate(body.split("\n")):
                    comments.append(Comment(part, start_line + off))
                advance(j - i)
                continue
        if c == "#" and at_line_start:
            # Preprocessor logical line (follow backslash continuations).
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                    break
                if text[k - 1] == "\\" or (k >= 2 and text[k - 2:k] == "\\\r"):
                    j = k + 1
                    continue
                break
            advance(k - i)
            continue
        at_line_start = False
        if c == '"':
            if tokens and tokens[-1].text == "R":
                # Raw string literal R"delim( ... )delim"
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i - 1:i + 20])
                if m:
                    delim = ")" + m.group(1) + '"'
                    j = text.find(delim, i)
                    j = n if j < 0 else j + len(delim)
                    tokens[-1] = Token("<str>", tokens[-1].line,
                                       tokens[-1].col)
                    advance(j - i)
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token("<str>", line, col))
            advance(min(j + 1, n) - i)
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token("<chr>", line, col))
            advance(min(j + 1, n) - i)
            continue
        if ID_START.match(c):
            m = ID_CHARS.match(text, i + 1)
            word = text[i:m.end()]
            tokens.append(Token(word, line, col))
            advance(len(word))
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("<num>", line, col))
            advance(j - i)
            continue
        three = text[i:i + 3]
        if three in PUNCT3:
            tokens.append(Token(three, line, col))
            advance(3)
            continue
        two = text[i:i + 2]
        if two in PUNCT2:
            tokens.append(Token(two, line, col))
            advance(2)
            continue
        tokens.append(Token(c, line, col))
        advance(1)
    return tokens, comments


class Scope:
    """One {...} region. kind: 'function' | 'type' | 'control' | 'other'."""
    __slots__ = ("kind", "name", "open_index", "close_index", "parent",
                 "open_line", "header_line", "caller_pinned", "no_retire",
                 "read_path", "codec")

    def __init__(self, kind, name, open_index, open_line, header_line,
                 parent):
        self.kind = kind
        self.name = name
        self.open_index = open_index
        self.close_index = None
        self.open_line = open_line
        self.header_line = header_line
        self.parent = parent
        self.caller_pinned = False
        self.no_retire = False
        self.read_path = False
        self.codec = False


def classify_scope(tokens, open_idx, boundary_idx):
    """Classifies the scope opened by tokens[open_idx] == '{' using its
    header: the tokens since the last top-level ';', '{' or '}'. Returns
    (kind, name, header_line)."""
    header = tokens[boundary_idx + 1:open_idx]
    if not header:
        return "other", "", tokens[open_idx].line
    header_line = header[0].line
    words = [t.text for t in header]
    # Strip access-specifier prefixes that survive the boundary cut.
    while len(words) >= 2 and words[0] in ("public", "private", "protected") \
            and words[1] == ":":
        words = words[2:]
        header = header[2:]
        if header:
            header_line = header[0].line
    if not words:
        return "other", "", header_line
    for w in words:
        if w in TYPE_SCOPE_KEYWORDS:
            return "type", "", header_line
    if words[0] in CONTROL_KEYWORDS or words[-1] == "else":
        return "control", "", header_line
    if "(" not in words:
        # Braced initializer / requires clause / etc.
        return "other", "", header_line
    paren = words.index("(")
    if paren == 0:
        return "control", "", header_line
    name = words[paren - 1]
    if name in CONTROL_KEYWORDS:
        return "control", "", header_line
    if name == "]":  # lambda introducer [..](..) { }
        return "function", "<lambda>", header_line
    if paren >= 2 and words[paren - 2] == "~":
        name = "~" + name
    return "function", name, header_line


def build_scopes(tokens):
    """Returns (scopes, scope_at_index): a scope tree plus, for every token
    index, the innermost enclosing scope (or None at namespace level --
    namespace scopes are kind 'type')."""
    scopes = []
    scope_at = [None] * len(tokens)
    stack = []
    boundary = -1  # index of last ';' '{' '}' at current nesting
    boundary_stack = []
    for idx, tok in enumerate(tokens):
        scope_at[idx] = stack[-1] if stack else None
        if tok.text == "{":
            kind, name, header_line = classify_scope(tokens, idx, boundary)
            sc = Scope(kind, name, idx, tok.line, header_line,
                       stack[-1] if stack else None)
            scopes.append(sc)
            stack.append(sc)
            boundary_stack.append(boundary)
            boundary = idx
        elif tok.text == "}":
            if stack:
                stack[-1].close_index = idx
                stack.pop()
            boundary = idx
            if boundary_stack:
                boundary_stack.pop()
        elif tok.text == ";":
            boundary = idx
    return scopes, scope_at


def enclosing_function(scope):
    while scope is not None and scope.kind != "function":
        scope = scope.parent
    return scope


def function_chain(scope):
    """All function scopes from innermost outwards (lambdas included)."""
    chain = []
    while scope is not None:
        if scope.kind == "function":
            chain.append(scope)
        scope = scope.parent
    return chain


class AtomicSite:
    __slots__ = ("method", "line", "index", "order_args", "n_args",
                 "is_fence", "line_text")

    def __init__(self, method, line, index, order_args, n_args, is_fence,
                 line_text):
        self.method = method
        self.line = line
        self.index = index
        self.order_args = order_args  # list of memory_order_* spellings
        self.n_args = n_args
        self.is_fence = is_fence
        self.line_text = line_text


def match_call_args(tokens, open_paren_idx):
    """Parses a balanced argument list starting at tokens[open_paren_idx] ==
    '('. Returns (n_args, order_args, close_idx) where order_args collects
    every std::memory_order_* spelling by top-level argument position."""
    depth = 0
    args_present = False
    orders = []
    i = open_paren_idx
    while i < len(tokens):
        t = tokens[i].text
        if t in "([":
            depth += 1
        elif t in ")]":
            depth -= 1
            if depth == 0:
                break
        elif t == "<":
            pass  # comparisons/templates do not affect () balance
        if depth >= 1 and t not in "()":
            args_present = True
        if depth >= 1 and t.startswith("memory_order"):
            orders.append(t)
        i += 1
    n_args = 0
    if args_present:
        n_args = 1
        depth = 0
        for j in range(open_paren_idx, i):
            t = tokens[j].text
            if t in "([":
                depth += 1
            elif t in ")]":
                depth -= 1
            elif t == "," and depth == 1:
                n_args += 1
    return n_args, orders, i


def collect_atomic_sites(tokens, lines):
    sites = []
    for idx, tok in enumerate(tokens):
        if tok.text in ATOMIC_METHODS:
            if idx == 0 or tokens[idx - 1].text not in (".", "->"):
                continue
            j = idx + 1
            if j < len(tokens) and tokens[j].text == "<":  # .load<...>? no,
                continue                                   # not a call form
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            n_args, orders, _ = match_call_args(tokens, j)
            sites.append(AtomicSite(tok.text, tok.line, idx, orders, n_args,
                                    False, lines[tok.line - 1]))
        elif tok.text == "atomic_thread_fence":
            j = idx + 1
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            n_args, orders, _ = match_call_args(tokens, j)
            sites.append(AtomicSite("atomic_thread_fence", tok.line, idx,
                                    orders, n_args, True,
                                    lines[tok.line - 1]))
    return sites


def parse_table(text, macro_re):
    """Extracts the first column of every X(...) row of the X-macro block
    whose #define matches `macro_re`. Returns {name: line}."""
    rows = {}
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if macro_re.search(lines[i]):
            j = i
            while j < len(lines):
                for m in TABLE_ENTRY_RE.finditer(lines[j]):
                    rows.setdefault(m.group(1), j + 1)
                if not lines[j].rstrip().endswith("\\"):
                    break
                j += 1
            i = j
        i += 1
    return rows


def named_chaos_rows(tokens):
    """The rows a file names as Site::<handle>, if it calls chaos_point(;
    the empty set otherwise. The table's own #define is not tokenized."""
    texts = [t.text for t in tokens]
    calls = any(texts[k] == "chaos_point" and texts[k + 1] == "("
                for k in range(len(texts) - 1))
    if not calls:
        return set()
    return {texts[k + 2] for k in range(len(texts) - 2)
            if texts[k] == "Site" and texts[k + 1] == "::"}


class FileAnalysis:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.split("\n")
        self.tokens, self.comments = tokenize(text)
        self.scopes, self.scope_at = build_scopes(self.tokens)
        self.sites = collect_atomic_sites(self.tokens, self.lines)
        self.edges = parse_table(text, EDGE_MACRO_RE)
        self.chaos_rows = parse_table(text, CHAOS_MACRO_RE)
        self.crossed_rows = named_chaos_rows(self.tokens)
        self.findings = []
        # edge name -> counts of bound annotations in this file
        self.publishes = {}
        self.acquires = {}

    def add(self, rule, line, message, severity="error"):
        self.findings.append(
            Finding(rule, self.rel, line, message, severity))

    # --- rule family 1: atomics discipline -------------------------------

    def in_codec(self, idx):
        scope = self.scope_at[idx]
        while scope is not None:
            if scope.codec:
                return True
            scope = scope.parent
        return False

    def check_atomics(self):
        for s in self.sites:
            if s.is_fence:
                continue  # the fence's order argument is not defaultable
            if self.in_codec(s.index) and \
                    s.n_args >= FULL_ORDER_ARGS.get(s.method, 99):
                continue  # the codec forwards its caller's explicit orders
            if s.method in CAS_METHODS:
                if len(s.order_args) == 0:
                    self.add("atomics.default-order", s.line,
                             ".{}() with defaulted memory order -- spell "
                             "out both the success and failure orders"
                             .format(s.method))
                elif len(s.order_args) == 1:
                    self.add("atomics.cas-failure-order", s.line,
                             ".{}() names only the success order ({}); the "
                             "failure order must be explicit too"
                             .format(s.method, s.order_args[0]))
                continue
            if not s.order_args:
                self.add("atomics.default-order", s.line,
                         ".{}() with defaulted memory order -- name the "
                         "intended std::memory_order_* (seq_cst included)"
                         .format(s.method))

    # --- rule family 2: ordering-contract annotations --------------------

    def check_contracts(self, declared_edges):
        site_by_line = {}
        for s in self.sites:
            site_by_line.setdefault(s.line, s)
        for c in self.comments:
            for m in ANNOTATION_RE.finditer(c.text):
                kind = m.group(1)
                names = [x.strip() for x in m.group(2).split(",")]
                site = None
                for d in range(0, MAX_ANNOTATION_BIND_LINES + 1):
                    site = site_by_line.get(c.line + d)
                    if site is not None:
                        break
                if site is None:
                    self.add("contract.orphan-annotation", c.line,
                             "[{}: {}] does not bind to any atomic "
                             "operation or fence on this line or the next "
                             "{} lines".format(kind, ", ".join(names),
                                               MAX_ANNOTATION_BIND_LINES))
                    continue
                for name in names:
                    if name not in declared_edges:
                        self.add("contract.unknown-edge", c.line,
                                 "[{}: {}] names an edge that "
                                 "src/util/ordering_contracts.hpp does not "
                                 "declare".format(kind, name))
                        continue
                    if kind == "publishes":
                        self.publishes[name] = self.publishes.get(name, 0) + 1
                    else:
                        self.acquires[name] = self.acquires.get(name, 0) + 1
                if kind == "acquires" and not site.is_fence:
                    if site.method == "load" and all(
                            o.endswith("relaxed") for o in site.order_args) \
                            and site.order_args:
                        self.add("contract.relaxed-acquire", site.line,
                                 "a memory_order_relaxed load cannot be the "
                                 "acquire side of edge {} -- it synchronizes "
                                 "with nothing".format(", ".join(names)))
                if kind == "publishes" and not site.is_fence:
                    if site.method == "load":
                        self.add("contract.publish-on-load", site.line,
                                 "a pure load cannot be the release side of "
                                 "edge {}".format(", ".join(names)))

    # --- function annotations (rule families 3 and 4) ---------------------

    def bind_function_annotations(self):
        funcs = [s for s in self.scopes if s.kind == "function"]
        for c in self.comments:
            for attr, (pattern, spelling) in FUNC_ANNOTATIONS.items():
                if pattern.search(c.text):
                    self.bind_function_annotation(funcs, c, attr, spelling)

    def bind_function_annotation(self, funcs, c, attr, spelling):
        # Prefer the function whose body contains the comment; else the
        # first function whose header starts within the next few lines.
        target = None
        for f in funcs:
            if f.open_line <= c.line and (
                    f.close_index is not None and
                    self.tokens[f.close_index].line >= c.line):
                if target is None or f.open_line >= target.open_line:
                    target = f
        if target is None:
            best = None
            for f in funcs:
                if c.line <= f.header_line <= \
                        c.line + MAX_FUNC_ANNOTATION_BIND_LINES:
                    if best is None or f.header_line < best.header_line:
                        best = f
            target = best
        if target is None:
            self.add("contract.orphan-annotation", c.line,
                     "[{}] does not bind to any function".format(
                         spelling))
            return
        setattr(target, attr, True)

    # --- rule family 3: SMR discipline ------------------------------------

    def is_retire_call(self, idx):
        tok = self.tokens[idx]
        # `retire`, `retire_raw`, `retire_raw_sized` and `retire_<word>`
        # wrappers; `retired*` accessors never match, and a field named
        # `retire_<word>` fails the `(`/`<` test below.
        if not RETIRE_NAME_RE.match(tok.text):
            return False
        j = idx + 1
        if j < len(self.tokens) and self.tokens[j].text == "<":
            # Reclaimer::template retire<T>(p)
            depth = 0
            while j < len(self.tokens):
                t = self.tokens[j].text
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                elif t in (";", "{", "}"):
                    return False
                j += 1
        return j < len(self.tokens) and self.tokens[j].text == "("

    def is_declaration_header(self, idx):
        """True when tokens[idx] names the function being *defined or
        declared* (e.g. `void retire(...)` or `EpochDomain::retire(...) {`)
        rather than called. Heuristic: the matching ')' is followed by
        tokens that open a body / terminate a declaration at class or
        namespace scope."""
        return enclosing_function(self.scope_at[idx]) is None

    def check_smr(self, dir_parts):
        n = len(self.tokens)
        for idx, tok in enumerate(self.tokens):
            if self.is_retire_call(idx) and not self.is_declaration_header(
                    idx):
                fn = enclosing_function(self.scope_at[idx])
                chain = function_chain(self.scope_at[idx])
                for f in chain:
                    if f.no_retire:
                        self.add("smr.helper-retires", tok.line,
                                 "{}() is annotated [helper: no-retire] but "
                                 "calls {}".format(f.name, tok.text))
                        break
                pinned = any(f.caller_pinned for f in chain)
                if not pinned:
                    for f in chain:
                        lo, hi = f.open_index, idx
                        for j in range(lo, hi):
                            if self.tokens[j].text == "pin" and \
                                    j + 1 < n and \
                                    self.tokens[j + 1].text == "(":
                                pinned = True
                                break
                        if pinned:
                            break
                if not pinned:
                    where = fn.name + "()" if fn else "namespace scope"
                    self.add("smr.retire-outside-guard", tok.line,
                             "{} called in {} with no reclaimer guard "
                             "pinned in scope and no [smr: caller-pinned] "
                             "annotation".format(tok.text, where))
        if not (PROTOCOL_NODE_DIRS & dir_parts):
            return
        delete_ok_lines = set()
        for c in self.comments:
            if DELETE_ANNOTATION_RE.search(c.text):
                for d in range(0, MAX_ANNOTATION_BIND_LINES + 1):
                    delete_ok_lines.add(c.line + d)
        for idx, tok in enumerate(self.tokens):
            prev = self.tokens[idx - 1].text if idx > 0 else ""
            if tok.text == "delete":
                if prev in ("=", "operator"):
                    continue  # deleted member / operator delete definition
                fn = enclosing_function(self.scope_at[idx])
                if fn is None:
                    continue  # default-member or declaration context
                if DESIGNATED_HELPER_RE.search(fn.name):
                    continue
                if tok.line in delete_ok_lines:
                    continue
                self.add("smr.raw-delete", tok.line,
                         "raw delete in {}() -- route through a destroy "
                         "helper or tag the site [delete: unpublished] if "
                         "the node was never published".format(fn.name))
            elif tok.text == "new":
                if prev == "operator":
                    continue  # ::operator new(size) raw storage
                fn = enclosing_function(self.scope_at[idx])
                if fn is None:
                    continue
                if DESIGNATED_HELPER_RE.search(fn.name) or \
                        fn.name == "<lambda>":
                    continue
                # Constructors allocate members; allow Type() ctors whose
                # name matches the enclosing type scope.
                ts = self.scope_at[idx]
                ctor = False
                while ts is not None:
                    if ts.kind == "type":
                        break
                    ts = ts.parent
                if fn and fn.parent is not None and \
                        fn.parent.kind == "type":
                    ctor = True  # member function of a node type: let the
                    # designated-name check above govern; ctors are caught
                    # by name == type which we cannot resolve -- be lenient
                    # only for placement new.
                if idx + 1 < len(self.tokens) and \
                        self.tokens[idx + 1].text == "(":
                    continue  # placement new only appears in make helpers
                del ctor
                self.add("smr.raw-new", tok.line,
                         "raw new in {}() -- protocol nodes are allocated "
                         "by their designated make helpers".format(fn.name))

    def is_reclaimer_call(self, idx):
        """True when the retire call at tokens[idx] is qualified by a
        reclaimer type: `Reclaimer::retire*(` or
        `Reclaimer::template retire<T>(`."""
        j = idx - 1
        if j >= 0 and self.tokens[j].text == "template":
            j -= 1
        return j >= 1 and self.tokens[j].text == "::" and \
            self.tokens[j - 1].text.endswith("Reclaimer")

    def check_lifecycle(self, dir_parts):
        if not (LIFECYCLE_DIRS & dir_parts):
            return
        toks = self.tokens
        for idx, tok in enumerate(toks):
            prev = toks[idx - 1].text if idx > 0 else ""
            if tok.text in ("make", "destroy") and prev == "::" and \
                    NODE_TYPE_RE.match(toks[idx - 2].text) and \
                    idx + 1 < len(toks) and toks[idx + 1].text == "(":
                what = "{}::{}()".format(toks[idx - 2].text, tok.text)
            elif tok.text == "delete" and prev not in ("=", "operator"):
                what = "delete"
            elif self.is_retire_call(idx) and self.is_reclaimer_call(idx):
                what = "Reclaimer::{}()".format(tok.text)
            else:
                continue
            chain = function_chain(self.scope_at[idx])
            if not chain or any(f.name in LIFECYCLE_FUNCS for f in chain):
                continue  # declaration context, or a lifecycle function
            self.add("smr.lifecycle-bypass", tok.line,
                     "{} in {}() -- cache-trie nodes are made, retired and "
                     "freed only through make(), retire() and discard(), "
                     "which book the byte ledger".format(what, chain[0].name))

    # --- trie-word codec ---------------------------------------------------

    def bind_codec_annotations(self):
        # Like the function annotations, but a class may be the codec too.
        scopes = [s for s in self.scopes if s.kind in ("function", "type")]
        for c in self.comments:
            if not CODEC_ANNOTATION_RE.search(c.text):
                continue
            target = None
            for s in scopes:
                if c.line <= s.header_line <= \
                        c.line + MAX_FUNC_ANNOTATION_BIND_LINES:
                    if target is None or s.header_line < target.header_line:
                        target = s
            if target is None:
                scope = self.scope_at_line(c.line)
                while scope is not None and \
                        scope.kind not in ("function", "type"):
                    scope = scope.parent
                target = scope
            if target is None:
                self.add("contract.orphan-annotation", c.line,
                         "[codec] does not bind to any class or function")
                continue
            target.codec = True

    def scope_at_line(self, line):
        for idx, tok in enumerate(self.tokens):
            if tok.line >= line:
                return self.scope_at[idx]
        return None

    def template_arg(self, lt_idx):
        """The text of the template argument list opened by tokens[lt_idx]
        == '<', and the index of its closing '>' (None when unbalanced)."""
        depth = 0
        parts = []
        for j in range(lt_idx, min(len(self.tokens), lt_idx + 40)):
            t = self.tokens[j].text
            if t == "<":
                depth += 1
                if depth == 1:
                    continue
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return "".join(parts), j
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    parts.append(">")
                    return "".join(parts), j
            elif t in (";", "{", "}"):
                return None, None
            parts.append(t + (" " if t == "const" else ""))
        return None, None

    def check_codec(self, dir_parts):
        if not (CODEC_DIRS & dir_parts):
            return
        toks = self.tokens
        for idx, tok in enumerate(toks):
            if tok.text not in ("atomic", "reinterpret_cast"):
                continue
            if idx + 1 >= len(toks) or toks[idx + 1].text != "<":
                continue
            arg, _ = self.template_arg(idx + 1)
            if arg is None or not RAW_WORD_RE.match(arg):
                continue
            if tok.text == "reinterpret_cast" and arg.startswith(
                    ("atomic", "std::atomic")) and not RAW_WORD_RE.match(
                        arg[arg.index("<") + 1:arg.rindex(">")]):
                continue  # an atomic of something else (a stamp word)
            if tok.text == "atomic" and arg.startswith(
                    ("atomic", "std::atomic")):
                continue  # the inner atomic<...> is checked on its own
            back = [t.text for t in toks[max(0, idx - 4):idx]]
            if tok.text == "atomic" and (back[-2:] == ["reinterpret_cast", "<"]
                                         or back == ["reinterpret_cast", "<",
                                                     "std", "::"]):
                continue  # reported once, at its reinterpret_cast
            if self.in_codec(idx):
                continue
            self.add("codec.raw-word", tok.line,
                     "{}<{}> outside the codec -- trie words are AtomicRefs, "
                     "loaded, stored and CASed only through it, so the tag "
                     "travels with the pointer".format(tok.text, arg))

    # --- rule family 4: read-path discipline ------------------------------

    def check_read_path(self):
        for f in self.scopes:
            if not f.read_path or f.close_index is None:
                continue
            for s in self.sites:
                if not f.open_index < s.index < f.close_index:
                    continue
                seq_cst = not s.order_args or any(
                    o.endswith("seq_cst") for o in s.order_args)
                if s.method in RMW_METHODS:
                    self.add("readpath.rmw", s.line,
                             ".{}() in [read-path] function {}() -- an "
                             "atomic RMW is a locked instruction".format(
                                 s.method, f.name))
                elif (s.is_fence or s.method == "store") and seq_cst:
                    self.add("readpath.seq-cst", s.line,
                             "seq_cst {} in [read-path] function {}() -- "
                             "a full barrier".format(
                                 "fence" if s.is_fence else ".store()",
                                 f.name))


# --- suppressions ----------------------------------------------------------

class Suppression:
    __slots__ = ("rule", "glob", "content", "line", "documented", "used")

    def __init__(self, rule, glob, content, line, documented):
        self.rule = rule
        self.glob = glob
        self.content = content
        self.line = line
        self.documented = documented
        self.used = False

    def matches(self, finding):
        if self.rule != "*" and finding.rule != self.rule:
            return False
        if not fnmatch.fnmatch(finding.path, self.glob) and \
                self.glob not in finding.path:
            return False
        if self.content:
            try:
                if not re.search(self.content, finding.message):
                    return False
            except re.error:
                return False
        return True

    def spec(self):
        return "{}:{}{}".format(self.rule, self.glob,
                                ":" + self.content if self.content else "")


def load_suppressions(path, findings_out):
    sups = []
    if not os.path.exists(path):
        return sups
    rel = os.path.relpath(path, REPO)
    prev_was_comment = False
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                prev_was_comment = False
                continue
            if line.startswith("#"):
                prev_was_comment = True
                continue
            parts = line.split(":", 2)
            if len(parts) < 2:
                findings_out.append(Finding(
                    "suppression.undocumented", rel, lineno,
                    "malformed suppression (want rule:path-glob[:regex]): "
                    + line, "warning"))
                prev_was_comment = False
                continue
            rule, glob = parts[0].strip(), parts[1].strip()
            content = parts[2].strip() if len(parts) == 3 else ""
            sup = Suppression(rule, glob, content, lineno, prev_was_comment)
            if not prev_was_comment:
                findings_out.append(Finding(
                    "suppression.undocumented", rel, lineno,
                    "suppression '{}' has no justification comment on the "
                    "line(s) above it".format(sup.spec()), "warning"))
            sups.append(sup)
            prev_was_comment = False
    return sups


def audit_tsan_supp(path, findings_out):
    """Every active tsan.supp entry must carry a justification comment
    directly above it (satellite: documented, auditable suppressions)."""
    if not os.path.exists(path):
        return
    rel = os.path.relpath(path, REPO)
    prev_was_comment = False
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                prev_was_comment = False
                continue
            if line.startswith("#"):
                prev_was_comment = True
                continue
            if not prev_was_comment:
                findings_out.append(Finding(
                    "tsan-supp.undocumented", rel, lineno,
                    "TSan suppression '{}' has no one-line justification "
                    "comment directly above it".format(line), "warning"))
            prev_was_comment = False


# --- driving ---------------------------------------------------------------

def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        else:
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
    return files


def analyze_files(files, pooled=True):
    """Returns (analyses, findings). With pooled=True the edge table and the
    publish/acquire coverage are checked across all files together."""
    analyses = []
    for path in files:
        rel = os.path.relpath(path, REPO)
        if rel.startswith(".."):
            rel = path
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        analyses.append(FileAnalysis(path, rel, text))

    declared = {}
    table_rel = None
    table_lines = {}
    for a in analyses:
        for name, line in a.edges.items():
            declared[name] = True
            if name not in table_lines:
                table_lines[name] = (a.rel, line)
                table_rel = a.rel
    for a in analyses:
        a.bind_codec_annotations()
        a.check_atomics()
        a.check_contracts(declared)
        dir_parts = set(a.rel.replace("\\", "/").split("/"))
        a.bind_function_annotations()
        a.check_smr(dir_parts)
        a.check_lifecycle(dir_parts)
        a.check_codec(dir_parts)
        a.check_read_path()

    findings = []
    for a in analyses:
        findings.extend(a.findings)

    if declared and pooled:
        pub = {}
        acq = {}
        for a in analyses:
            for k, v in a.publishes.items():
                pub[k] = pub.get(k, 0) + v
            for k, v in a.acquires.items():
                acq[k] = acq.get(k, 0) + v
        for name in sorted(declared):
            rel, line = table_lines.get(name, (table_rel, 1))
            if pub.get(name, 0) == 0:
                findings.append(Finding(
                    "contract.missing-publish", rel, line,
                    "edge {} is declared but no site carries "
                    "[publishes: {}]".format(name, name)))
            if acq.get(name, 0) == 0:
                findings.append(Finding(
                    "contract.missing-acquire", rel, line,
                    "edge {} is declared but no site carries "
                    "[acquires: {}]".format(name, name)))
        coverage = {name: {"publishes": pub.get(name, 0),
                           "acquires": acq.get(name, 0)}
                    for name in sorted(declared)}
    else:
        coverage = {}

    crossed = set()
    for a in analyses:
        crossed |= a.crossed_rows
    for a in analyses:
        for row, line in sorted(a.chaos_rows.items(), key=lambda r: r[1]):
            if row not in crossed:
                findings.append(Finding(
                    "chaos.dead-row", a.rel, line,
                    "chaos site {} is declared but no chaos_point( crosses "
                    "it: no file that calls chaos_point( names "
                    "Site::{}".format(row, row)))
    return analyses, findings, coverage


def self_test(fixture_dir):
    """Each fixture is analyzed alone. `// expect: <rule>` comments state the
    exact multiset of findings the file must produce; files without expect
    comments must come out clean."""
    files = gather_files([fixture_dir])
    if not files:
        print("protocol_lint: no fixtures under", fixture_dir,
              file=sys.stderr)
        return 2
    failures = 0
    total_checks = 0
    for path in files:
        analyses, findings, _ = analyze_files([path], pooled=True)
        a = analyses[0]
        expected = {}
        for c in a.comments:
            for m in EXPECT_RE.finditer(c.text):
                expected[m.group(1)] = expected.get(m.group(1), 0) + 1
        got = {}
        for f in findings:
            if f.severity == "error":
                got[f.rule] = got.get(f.rule, 0) + 1
        total_checks += max(1, sum(expected.values()))
        if got != expected:
            failures += 1
            print("FAIL {}:".format(a.rel))
            print("  expected: {}".format(
                json.dumps(expected, sort_keys=True)))
            print("  got:      {}".format(json.dumps(got, sort_keys=True)))
            for f in findings:
                print("    " + f.render())
        else:
            label = "clean" if not expected else \
                ", ".join("{} x{}".format(k, v)
                          for k, v in sorted(expected.items()))
            print("ok   {} ({})".format(a.rel, label))
    print("self-test: {} fixture file(s), {} failure(s)".format(
        len(files), failures))
    return 1 if failures else 0


def resolve_json_out(arg_path):
    if arg_path:
        return arg_path
    env = os.environ.get("CACHETRIE_LINT_OUT")
    if not env:
        return None
    if os.path.isdir(env):
        return os.path.join(env, "LINT_findings.json")
    return env


def main(argv):
    args = argv[1:]
    json_requested = False
    json_path = None
    self_test_dir = None
    paths = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--json":
            json_requested = True
            if i + 1 < len(args) and not args[i + 1].startswith("-") and \
                    args[i + 1].endswith(".json"):
                json_path = args[i + 1]
                i += 1
        elif a == "--self-test":
            if i + 1 >= len(args):
                print("--self-test needs a fixture directory",
                      file=sys.stderr)
                return 2
            self_test_dir = args[i + 1]
            i += 1
        elif a in ("-h", "--help"):
            print(__doc__)
            return 0
        elif a.startswith("-"):
            print("unknown flag:", a, file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1

    if self_test_dir is not None:
        return self_test(self_test_dir)

    if not paths:
        paths = [os.path.join(REPO, "src")]
    files = gather_files(paths)
    if not files:
        print("protocol_lint: no source files under:", " ".join(paths),
              file=sys.stderr)
        return 2

    analyses, findings, coverage = analyze_files(files, pooled=True)

    audit_tsan_supp(os.path.join(REPO, "scripts", "tsan.supp"), findings)
    sup_path = os.path.join(REPO, "scripts", "lint_suppressions.txt")
    sups = load_suppressions(sup_path, findings)
    for f in findings:
        if f.rule.startswith("suppression.") or \
                f.rule.startswith("tsan-supp."):
            continue
        for s in sups:
            if s.matches(f):
                f.suppressed_by = s.spec()
                s.used = True
                break
    for s in sups:
        if not s.used:
            findings.append(Finding(
                "suppression.unused", os.path.relpath(sup_path, REPO),
                s.line, "suppression '{}' matched nothing -- delete it"
                .format(s.spec()), "warning"))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    active = [f for f in findings
              if f.severity == "error" and f.suppressed_by is None]
    warnings = [f for f in findings if f.severity == "warning"]
    suppressed = [f for f in findings if f.suppressed_by is not None]

    for f in findings:
        print(f.render())
    print("protocol_lint: {} file(s), {} error(s), {} warning(s), {} "
          "suppressed".format(len(files), len(active), len(warnings),
                              len(suppressed)))
    if coverage:
        both = sum(1 for v in coverage.values()
                   if v["publishes"] and v["acquires"])
        print("protocol_lint: {} ordering edge(s) declared, {} with both "
              "sides annotated".format(len(coverage), both))

    if json_requested:
        doc = {
            "schema": "lint-findings-v1",
            "roots": [os.path.relpath(p, REPO) if not os.path.isabs(p)
                      or p.startswith(REPO) else p for p in paths],
            "files_scanned": len(files),
            "findings": [f.as_json() for f in findings],
            "edges": coverage,
            "summary": {
                "errors": len(active),
                "warnings": len(warnings),
                "suppressed": len(suppressed),
            },
        }
        out = resolve_json_out(json_path)
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if out:
            with open(out, "w", encoding="utf-8") as f:
                f.write(payload + "\n")
            print("protocol_lint: wrote", out)
        else:
            print(payload)

    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
