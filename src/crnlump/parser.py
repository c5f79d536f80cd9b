"""Text formats: network model files, partition files, weighted edge lists.

Model grammar (line oriented, UTF-8, LF or CRLF):

    species <id>+                            declarations, repeatable
    [label:] <multiset> -> <multiset> , <rate>
    init <id> = <number> (, <id> = <number>)*
    partition { <id>+ } ( { <id>+ } )*

with multiset either `0` or `term (+ term)*`, term `[count] <id>`, and rate
either a plain number `k` (sugar for `[k : k]`) or an interval `[lo : hi]`.
Species first appearing inside a reaction are auto-registered in order of
appearance. Species omitted from every partition brace group form one
implicit final block. Numbers must be finite. Serialization is
deterministic and round-trip stable.

A reaction line is first split at its first `->` and its last `,` into a
left side, a right side and a rate text. Each text is looked up by its exact
characters, so a line whose three texts were all seen before only records
their ids. A new text is checked on its own against a regular expression
for its piece of the grammar (the left one may carry a label), and a new
rate must also be a valid interval. These expressions accept a subset of
the grammar and follow the tokenizer's maximal munch: `2e5A` is the number
`2e5` followed by `A`, and `+2` is a signed number, so neither is read as a
count. The species of new side texts are registered, and all sides made
canonical, in batches of array operations. `species` and `partition` lines
are tried against one full-line expression each. A line that no expression
accepts, or that fails a semantic check, is parsed again by the tokenizer,
which either accepts it or raises the located error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .model import (Partition, ReactionNetwork, ReactionTable,
                    _canonical_sides, row_keys, side_texts)

_KEYWORDS = {"species", "init", "partition"}

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[+,:\[\]{}=])"
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# a species or label name: an identifier that is not a keyword
_NAME = rf"(?!(?:species|init|partition)(?![A-Za-z0-9_])){_IDENT}"
# unsigned; the same language as the tokenizer's number, without its
# ambiguous `\d+\.?\d*` split
_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a count is a positive integer not continued by an exponent
_TERM = rf"(?:0*[1-9][0-9]*(?![eE][+-]?[0-9])[ \t]*)?{_NAME}"
# `+` directly before a digit or a dot would start a signed number
_SIDE = rf"0|{_TERM}(?:[ \t]*\+(?![0-9.])[ \t]*{_TERM})*"
_LEFT_RE = re.compile(rf"[ \t]*(?:({_NAME})[ \t]*:[ \t]*)?({_SIDE})[ \t]*")
_RIGHT_RE = re.compile(rf"[ \t]*(?:{_SIDE})[ \t]*")
_RATE_RE = re.compile(
    rf"[ \t]*(?:({_NUM})|\[[ \t]*({_NUM})[ \t]*:[ \t]*({_NUM})[ \t]*\])[ \t]*")
# the terms `[count ]name` of side texts that each end in a newline, and
# each newline
_TERMS_RE = re.compile(rf"{_IDENT}|[0-9]+[ \t]*{_IDENT}|\n")
_SPECIES_RE = re.compile(rf"[ \t]*species((?:[ \t]+{_IDENT})*)[ \t]*")
_BLOCK = rf"\{{[ \t]*{_IDENT}(?:[ \t]+{_IDENT})*[ \t]*\}}"
_PARTITION_RE = re.compile(rf"[ \t]*partition[ \t]*((?:{_BLOCK}[ \t]*)+)")
_BLOCK_BODY_RE = re.compile(r"\{([^}]*)\}")


class ParseError(ValueError):
    """Syntax or semantic error with its source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class ModelDocument:
    """A parsed model: the network, an optional initial partition, and the
    reaction labels by reaction id."""

    network: ReactionNetwork
    initial_partition: Optional[Partition] = None
    labels: Dict[int, str] = field(default_factory=dict)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> List[Token]:
    out: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens: List[Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self, ahead: int = 0) -> Optional[Token]:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            end = self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1
            raise ParseError("unexpected end of line", self.line, end)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def require_done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


class _Builder:
    """Accumulates declarations while parsing a model document.

    Reactions are kept in table form: `rows` holds lhs side id, rhs side
    id, rate id of each reaction and `bounds` lo, hi of each rate id, both
    flattened. Side ids number sides as they are read, not canonical
    sides. `side_of` and `rate_of` map the exact text of a side or rate
    read by the piece path to its id, so repeated text is checked once per
    document; a side read by the tokenizer gets a new id and no text. A new
    side text waits in `pending` until `flush` registers its species, in
    order of appearance, and adds the species id of each of its terms, then
    -1, to `term_species`; `counted` maps the position there of each term
    with a count to its species id and count. Every line that reads the
    species index must come after a flush. `document` makes the sides
    canonical and numbers the distinct ones by first appearance."""

    def __init__(self):
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.labels: Dict[int, str] = {}
        self.init_values: Dict[int, float] = {}
        self.partition_groups: Optional[List[List[int]]] = None
        self.n_sides = 0
        self.side_of: Dict[str, int] = {}
        self.rate_of: Dict[str, int] = {}
        self.pending: List[str] = []
        self.term_species: List[int] = []
        self.counted: Dict[int, Tuple[int, int]] = {}
        self.bounds: List[float] = []
        self.rows: List[int] = []

    def declare(self, tok: Token):
        if tok.text in self.index:
            raise ParseError(f"duplicate species declaration {tok.text!r}", tok.line, tok.col)
        self.index[tok.text] = len(self.names)
        self.names.append(tok.text)

    def intern(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.index[name] = idx
            self.names.append(name)
        return idx

    def lookup(self, tok: Token) -> int:
        idx = self.index.get(tok.text)
        if idx is None:
            raise ParseError(f"unknown species {tok.text!r}", tok.line, tok.col)
        return idx

    def side_text(self, text: str) -> int:
        """The side id of a side text that is in the grammar."""
        sid = self.side_of.get(text)
        if sid is None:
            sid = self.side_of[text] = self.n_sides
            self.n_sides += 1
            self.pending.append(text)
        return sid

    def side(self, terms: List[Tuple[str, int]]) -> int:
        """The side id of a new side of (name, count) terms, its species
        interned in order."""
        self.flush()  # keeps term_species in side id order
        for name, count in terms:
            idx = self.intern(name)
            if count != 1:
                self.counted[len(self.term_species)] = (idx, count)
            self.term_species.append(idx)
        self.term_species.append(-1)
        self.n_sides += 1
        return self.n_sides - 1

    def flush(self):
        """Register the species of the pending side texts, in order of
        appearance, and add their terms to `term_species` and `counted`."""
        if not self.pending:
            return
        terms = _TERMS_RE.findall("\n".join(self.pending) + "\n")
        n_texts = len(self.pending)
        self.pending = []
        index = self.index
        for term in dict.fromkeys([t for t in terms if t not in index]):
            if term != "\n":
                self.intern(term.lstrip("0123456789").lstrip(" \t"))
        ids = list(map(index.get, terms, repeat(-1)))
        if ids.count(-1) > n_texts:  # not only the newlines
            for i, term in enumerate(terms):
                if term[0].isdigit():
                    name = term.lstrip("0123456789")
                    self.counted[len(self.term_species) + i] = (
                        index[name.lstrip(" \t")], int(term[:-len(name)]))
        self.term_species += ids

    def side_terms(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Side id, species and count of every flushed term."""
        sp = np.array(self.term_species, dtype=np.int64)
        cnt = np.ones(len(sp), dtype=np.int64)
        if self.counted:
            at = np.fromiter(self.counted, np.int64, len(self.counted))
            sp[at], cnt[at] = zip(*self.counted.values())
        end = sp < 0
        owner = np.cumsum(end) - end
        return owner[~end], sp[~end], cnt[~end]

    def rate(self, lo: float, hi: float) -> int:
        self.bounds += (lo, hi)
        return len(self.bounds) // 2 - 1

    def add_reaction(self, lhs: int, rhs: int, rate: int,
                     label: Optional[str]):
        if label is not None:
            self.labels[len(self.rows) // 3] = label
        self.rows += (lhs, rhs, rate)

    def document(self) -> ModelDocument:
        self.flush()
        n = len(self.names)
        concentration = None
        if self.init_values:
            vec = [0.0] * n
            for idx, val in self.init_values.items():
                vec[idx] = val
            concentration = tuple(vec)
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 3)
        lo, hi = np.array(self.bounds).reshape(-1, 2)[rows[:, 2]].T
        size, sp, cnt, canonical = _canonical_sides(*self.side_terms(),
                                                    self.n_sides)
        table = ReactionTable(size, sp, cnt, canonical[rows[:, 0]],
                              canonical[rows[:, 1]], lo, hi)
        network = ReactionNetwork(self.names, table, concentration)
        return ModelDocument(network, self.partition(), self.labels)

    def partition(self) -> Optional[Partition]:
        """The declared partition, its undeclared species in one more
        block; None when no partition was declared."""
        if self.partition_groups is None:
            return None
        n = len(self.names)
        groups = [list(g) for g in self.partition_groups]
        covered = {i for g in groups for i in g}
        rest = [i for i in range(n) if i not in covered]
        if rest:
            groups.append(rest)
        return Partition(groups, n)


def _parse_number(tok: Token) -> float:
    try:
        value = float(tok.text)
    except ValueError:
        raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col) from None
    if not math.isfinite(value):
        raise ParseError(f"number {tok.text!r} is not finite", tok.line, tok.col)
    return value


def _parse_side(cur: _Cursor, b: _Builder) -> int:
    """Parse a reaction side; its side id."""
    first = cur.peek()
    if first is not None and first.kind == "number" and first.text == "0":
        nxt = cur.peek(1)
        if nxt is None or nxt.kind != "ident":
            cur.next()
            return b.side([])
    terms: List[Tuple[str, int]] = []
    while True:
        tok = cur.next()
        count = 1
        if tok.kind == "number":
            if not re.fullmatch(r"\d+", tok.text) or int(tok.text) < 1:
                raise ParseError("multiset count must be a positive integer", tok.line, tok.col)
            count = int(tok.text)
            tok = cur.expect("ident")
        elif tok.kind != "ident":
            raise ParseError(f"expected species term, got {tok.text!r}", tok.line, tok.col)
        if tok.text in _KEYWORDS:
            raise ParseError(f"reserved word {tok.text!r} used as species", tok.line, tok.col)
        terms.append((tok.text, count))
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "sym" and nxt.text == "+":
            cur.next()
            continue
        break
    return b.side(terms)


def _parse_rate(cur: _Cursor) -> Tuple[float, float]:
    tok = cur.peek()
    if tok is not None and tok.kind == "sym" and tok.text == "[":
        cur.next()
        lo_tok = cur.expect("number")
        cur.expect("sym", ":")
        hi_tok = cur.expect("number")
        cur.expect("sym", "]")
        lo, hi = _parse_number(lo_tok), _parse_number(hi_tok)
        if lo < 0 or hi < 0:
            raise ParseError("negative rate", lo_tok.line, lo_tok.col)
        if lo > hi:
            raise ParseError(f"interval lower bound {lo} exceeds upper bound {hi}",
                             lo_tok.line, lo_tok.col)
        return lo, hi
    num = cur.expect("number")
    value = _parse_number(num)
    if value < 0:
        raise ParseError("negative rate", num.line, num.col)
    return value, value


def _parse_species_line(cur: _Cursor, b: _Builder):
    while not cur.done():
        tok = cur.expect("ident")
        if tok.text in _KEYWORDS:
            raise ParseError(f"reserved word {tok.text!r} used as species", tok.line, tok.col)
        b.declare(tok)


def _parse_init_line(cur: _Cursor, b: _Builder):
    while True:
        name = cur.expect("ident")
        idx = b.lookup(name)
        cur.expect("sym", "=")
        num = cur.expect("number")
        value = _parse_number(num)
        if value < 0:
            raise ParseError("negative initial value", num.line, num.col)
        if idx in b.init_values:
            raise ParseError(f"duplicate initial value for {name.text!r}", name.line, name.col)
        b.init_values[idx] = value
        if cur.done():
            return
        cur.expect("sym", ",")


def _parse_partition_line(cur: _Cursor, b: _Builder, line: int):
    if b.partition_groups is not None:
        raise ParseError("duplicate partition declaration", line, 1)
    groups: List[List[int]] = []
    assigned: Dict[int, int] = {}
    while not cur.done():
        open_tok = cur.expect("sym", "{")
        group: List[int] = []
        while True:
            tok = cur.next()
            if tok.kind == "sym" and tok.text == "}":
                break
            if tok.kind != "ident":
                raise ParseError(f"expected species name, got {tok.text!r}", tok.line, tok.col)
            idx = b.lookup(tok)
            if idx in assigned:
                raise ParseError(f"species {tok.text!r} in two partition blocks",
                                 tok.line, tok.col)
            assigned[idx] = len(groups)
            group.append(idx)
        if not group:
            raise ParseError("empty partition block", open_tok.line, open_tok.col)
        groups.append(group)
    if not groups:
        raise ParseError("partition needs at least one block", line, 1)
    b.partition_groups = groups


def _parse_reaction_line(cur: _Cursor, b: _Builder):
    label = None
    tok0, tok1 = cur.peek(), cur.peek(1)
    if (tok0 is not None and tok0.kind == "ident" and tok1 is not None
            and tok1.kind == "sym" and tok1.text == ":"):
        label = tok0.text
        cur.next()
        cur.next()
    reactant = _parse_side(cur, b)
    cur.expect("arrow")
    product = _parse_side(cur, b)
    cur.expect("sym", ",")
    rate = _parse_rate(cur)
    cur.require_done()
    b.add_reaction(reactant, product, b.rate(*rate), label)


def _parse_line(b: _Builder, raw: str, line_no: int):
    """Tokenizer path: parses any line of the grammar, or raises the
    located ParseError."""
    _parse_tokens(b, _tokenize(raw.rstrip("\r"), line_no), line_no)


def _parse_tokens(b: _Builder, tokens: List[Token], line_no: int):
    if not tokens:
        return
    cur = _Cursor(tokens, line_no)
    head = tokens[0]
    if head.kind == "ident" and head.text == "species":
        cur.next()
        _parse_species_line(cur, b)
    elif head.kind == "ident" and head.text == "init":
        cur.next()
        _parse_init_line(cur, b)
    elif head.kind == "ident" and head.text == "partition":
        cur.next()
        _parse_partition_line(cur, b, line_no)
    else:
        _parse_reaction_line(cur, b)


def _parse_reaction_fast(b: _Builder, raw: str) -> bool:
    """Piece path for reaction lines. Returns False, having added nothing
    to the document, when the line must go to the tokenizer path instead."""
    left, _, rest = raw.partition("->")
    right, comma, rate_text = rest.rpartition(",")
    if not comma:
        return False
    lhs, rhs = b.side_of.get(left), b.side_of.get(right)
    rate = b.rate_of.get(rate_text)
    if lhs is not None and rhs is not None and rate is not None:
        b.rows += (lhs, rhs, rate)
        return True
    # check every new text before recording anything: a rejected line must
    # add nothing to the document
    if rate is None:
        m = _RATE_RE.fullmatch(rate_text)
        if m is None:
            return False
        point, lo_text, hi_text = m.groups()
        if point is not None:
            lo = hi = float(point)
        else:
            lo, hi = float(lo_text), float(hi_text)
        if not (lo <= hi and math.isfinite(hi)):
            return False
    label = None
    if lhs is None:
        m = _LEFT_RE.fullmatch(left)
        if m is None:
            return False
        label, body = m.groups()
        if label is not None:  # a labelled text is not kept
            left = body
            lhs = b.side_of.get(body)
    if rhs is None and _RIGHT_RE.fullmatch(right) is None:
        return False
    if rate is None:
        rate = b.rate_of[rate_text] = b.rate(lo, hi)
    if lhs is None:
        lhs = b.side_text(left)
    if rhs is None:
        rhs = b.side_text(right)
    b.add_reaction(lhs, rhs, rate, label)
    return True


def _fast_species(b: _Builder, m: re.Match) -> bool:
    names = m.group(1).split()
    if (not _KEYWORDS.isdisjoint(names) or len(set(names)) != len(names)
            or any(name in b.index for name in names)):
        return False
    for name in names:
        b.intern(name)
    return True


def _fast_partition(b: _Builder, m: re.Match) -> bool:
    if b.partition_groups is not None:
        return False
    index = b.index
    groups: List[List[int]] = []
    n_members = 0
    for body in _BLOCK_BODY_RE.findall(m.group(1)):
        names = body.split()
        if any(name not in index for name in names):
            return False
        groups.append([index[name] for name in names])
        n_members += len(names)
    if len({i for g in groups for i in g}) != n_members:
        return False
    b.partition_groups = groups
    return True


def _parse_line_fast(b: _Builder, raw: str) -> bool:
    """Regex path for `species` and `partition` lines. Returns False,
    having added nothing to the document, when the line must go to the
    tokenizer path instead."""
    m = _SPECIES_RE.fullmatch(raw)
    if m is not None:
        return _fast_species(b, m)
    m = _PARTITION_RE.fullmatch(raw)
    if m is not None:
        return _fast_partition(b, m)
    return False


def parse_model(text: str) -> ModelDocument:
    """Parse a model document; raises ParseError with source location on error."""
    b = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if _parse_reaction_fast(b, raw) or not raw.strip():
            continue
        b.flush()  # every other line reads the species index
        if not _parse_line_fast(b, raw):
            _parse_line(b, raw, line_no)
    return b.document()


def serialize_model(doc: ModelDocument) -> str:
    """Deterministic serialization: species in index order, reactions in id
    order; parsing the output reproduces the document structurally. Each
    distinct side and rate of the reaction table is formatted once."""
    net = doc.network
    names = net.names
    t = net.table
    sides = side_texts(t, names)
    # one text per distinct (lo, hi) bit pattern
    _, first, rate = np.unique(row_keys(np.column_stack((t.lo, t.hi)).view(
        np.int64)), return_index=True, return_inverse=True)
    rates = np.array([repr(lo) if lo == hi else f"[{lo!r} : {hi!r}]"
                      for lo, hi in zip(t.lo[first].tolist(),
                                        t.hi[first].tolist())],
                     dtype=object)
    lines = ["species" + ("" if not names else " " + " ".join(names))]
    lines += [f"{a} -> {b} , {r}" for a, b, r in zip(
        sides[t.lhs].tolist(), sides[t.rhs].tolist(), rates[rate].tolist())]
    for j, label in doc.labels.items():
        if label and j in range(len(t.lhs)):
            lines[j + 1] = f"{label}: {lines[j + 1]}"
    if net.initial_concentration is not None:
        items = [(i, v) for i, v in enumerate(net.initial_concentration) if v != 0.0]
        if not items and names:
            items = [(0, 0.0)]
        if items:
            body = ", ".join(f"{names[i]} = {v!r}" for i, v in items)
            lines.append(f"init {body}")
    if doc.initial_partition is not None:
        groups = " ".join("{ " + " ".join(names[i] for i in blk) + " }"
                          for blk in doc.initial_partition.blocks)
        lines.append(f"partition {groups}")
    return "\n".join(lines) + "\n"


def parse_partition_file(text: str, network: ReactionNetwork) -> Partition:
    """Parse a standalone partition file over `network`'s species: one
    `partition { ... } ...` line, every other line blank. Errors carry the
    file's own line numbers."""
    b = _Builder()
    b.names = list(network.names)
    b.index = dict(zip(b.names, range(len(b.names))))
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = _PARTITION_RE.fullmatch(raw)
        if m is not None and _fast_partition(b, m):
            continue
        tokens = _tokenize(raw.rstrip("\r"), line_no)
        if tokens and tokens[0].text != "partition":
            raise ParseError(f"expected a partition line, got {tokens[0].text!r}",
                             line_no, tokens[0].col)
        _parse_tokens(b, tokens, line_no)
    if b.partition_groups is None:
        raise ParseError("no partition line found", 1, 1)
    return b.partition()


@dataclass
class EdgeListGraph:
    """Weighted directed graph with interned node labels."""

    nodes: List[str]
    edges: List[Tuple[int, int, float]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def parse_edge_list(text: str, undirected: bool = False) -> EdgeListGraph:
    """Parse 'src dst weight' lines; '#' starts a comment. With `undirected`,
    every edge is emitted in both directions with the same weight."""
    nodes: List[str] = []
    index: Dict[str, int] = {}
    edges: List[Tuple[int, int, float]] = []

    def intern(label: str) -> int:
        idx = index.get(label)
        if idx is None:
            idx = len(nodes)
            index[label] = idx
            nodes.append(label)
        return idx

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'src dst weight', got {len(parts)} fields",
                             line_no, 1)
        src, dst, wtext = parts
        try:
            weight = float(wtext)
        except ValueError:
            raise ParseError(f"non-numeric weight {wtext!r}", line_no, 1) from None
        if not math.isfinite(weight):
            raise ParseError(f"non-finite weight {wtext!r}", line_no, 1)
        if weight < 0.0:
            raise ParseError(f"negative weight {weight}", line_no, 1)
        si, di = intern(src), intern(dst)
        edges.append((si, di, weight))
        if undirected:
            edges.append((di, si, weight))
    return EdgeListGraph(nodes, edges)
