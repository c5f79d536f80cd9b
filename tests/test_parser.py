import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnlump as cl
from crnlump.model import Multiset, Partition, RateInterval
from crnlump.parser import (ParseError, _Builder, _parse_line, _tokenize,
                            parse_edge_list, parse_model, parse_partition_file,
                            serialize_model)

from conftest import (TWO_SITE_TEXT, documents_equal, networks_equal,
                      varied_network)


class TestParseModel:
    def test_minimal_document(self):
        doc = parse_model("species A00 A10 B\nA00 + B -> A10 , [1.0 : 2.0]\n")
        net = doc.network
        assert net.names == ("A00", "A10", "B")
        assert net.n_reactions == 1
        r = net.reactions[0]
        assert r.rate == RateInterval(1.0, 2.0)
        assert r.reactant == net.multiset({"A00": 1, "B": 1})
        assert r.product == net.multiset({"A10": 1})

    def test_two_site_document(self):
        doc = parse_model(TWO_SITE_TEXT)
        assert doc.network.n_species == 5
        assert doc.network.n_reactions == 8
        assert doc.initial_partition.blocks == ((0,), (1,), (2, 3), (4,))

    def test_scalar_rate_is_degenerate_interval(self):
        doc = parse_model("A -> A + A , 0.5\n")
        r = doc.network.reactions[0]
        assert r.rate == RateInterval(0.5, 0.5)
        assert r.reactant.total == 1 and r.product.total == 2

    def test_auto_registration_in_first_appearance_order(self):
        doc = parse_model("X + Y -> Z , 1.0\nZ -> W , 2.0\n")
        assert doc.network.names == ("X", "Y", "Z", "W")

    def test_counts_and_empty_multiset(self):
        doc = parse_model("2 A -> 0 , 1.0\n0 -> A , 0.25\n")
        assert doc.network.reactions[0].reactant == Multiset([(0, 2)])
        assert doc.network.reactions[0].product == Multiset()
        assert doc.network.reactions[1].reactant == Multiset()

    def test_adjacent_count(self):
        doc = parse_model("2A -> A , 1.0\n")
        assert doc.network.reactions[0].reactant == Multiset([(0, 2)])

    def test_labels_round_trip(self):
        doc = parse_model("bind: A + B -> C , 1.0\n")
        assert doc.labels == {0: "bind"}
        assert "bind: " in serialize_model(doc)

    def test_init_line(self):
        doc = parse_model("species A B\nA -> B , 1.0\ninit A = 2.0, B = 0.5\n")
        assert doc.network.initial_concentration == (2.0, 0.5)
        assert doc.network.initial_state is None  # 0.5 is not integral

    def test_integral_init_also_gives_state(self):
        doc = parse_model("species A B\nA -> B , 1.0\ninit A = 2.0\n")
        assert doc.network.initial_state == Multiset([(0, 2)])

    def test_implicit_partition_block(self):
        doc = parse_model("species A B C D\nA -> B , 1.0\npartition { A } { C }\n")
        assert doc.initial_partition.blocks == ((0,), (1, 3), (2,))

    def test_no_partition_means_none(self):
        doc = parse_model("species A\n")
        assert doc.initial_partition is None


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment,line", [
        ("species A\nA -> , 1.0\n", "expected species term", 2),
        ("species A A\n", "duplicate species", 1),
        ("A -> B , [2.0 : 1.0]\n", "exceeds upper bound", 1),
        ("A -> B , -1.0\n", "negative rate", 1),
        ("A -> B , [-0.5 : 1.0]\n", "negative rate", 1),
        ("species A\ninit A = 1, A = 2\n", "duplicate initial", 2),
        ("species A\npartition { A } { A }\n", "two partition blocks", 2),
        ("species A\npartition { }\n", "empty partition block", 2),
        ("species A\ninit B = 1\n", "unknown species", 2),
        ("A -> B\n", "unexpected end of line", 1),
        ("A -> B , 1.0 extra\n", "trailing input", 1),
        ("A @ B -> C , 1.0\n", "unexpected character", 1),
        ("0 A -> B , 1.0\n", "positive integer", 1),
        ("A -> B , [1e999 : 1e999]\n", "not finite", 1),
        ("A -> B , 1e999\n", "not finite", 1),
        ("species A\ninit A = 1e999\n", "not finite", 2),
    ])
    def test_error_carries_location(self, text, fragment, line):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert fragment in str(err.value)
        assert err.value.line == line
        assert err.value.col >= 1


class TestSerialize:
    def test_empty_network(self):
        doc = parse_model("species\n")
        assert serialize_model(doc) == "species\n"

    def test_two_site_round_trip_is_idempotent(self):
        doc = parse_model(TWO_SITE_TEXT)
        once = serialize_model(doc)
        twice = serialize_model(parse_model(once))
        assert once == twice

    def test_lumped_two_site_serializes_with_summed_intervals(self):
        doc = parse_model(TWO_SITE_TEXT)
        lumped, _ = cl.quotient(doc.network, doc.initial_partition)
        text = serialize_model(cl.ModelDocument(lumped))
        assert "species B A00 A01 A11" in text
        assert "[2.0 : 4.0]" in text  # 1.0+1.0 : 2.0+2.0
        out = parse_model(text)
        assert networks_equal(out.network, lumped)

    def test_reaction_lines_match_per_reaction_formatting(self):
        rng = random.Random(9)
        for _ in range(200):
            net = varied_network(rng)
            names = net.names
            labels = {r.id: f"r{r.id}" for r in net.reactions
                      if rng.random() < 0.3}
            lines = serialize_model(cl.ModelDocument(net, labels=labels))
            want = []
            for r in net.reactions:
                lo, hi = r.rate.lo, r.rate.hi
                rate = repr(lo) if lo == hi else f"[{lo!r} : {hi!r}]"
                prefix = f"{labels[r.id]}: " if r.id in labels else ""
                want.append(f"{prefix}{r.reactant.format(names)} -> "
                            f"{r.product.format(names)} , {rate}")
            assert lines.splitlines()[1:] == want


class TestPartitionFile:
    def test_round_trip(self):
        net = parse_model(TWO_SITE_TEXT).network
        part = parse_partition_file("partition { B } { A00 } { A01 A10 } { A11 }",
                                    net)
        assert part.blocks == ((0,), (1,), (2, 3), (4,))

    def test_unknown_species_rejected(self):
        net = parse_model("species A\n").network
        with pytest.raises(ParseError):
            parse_partition_file("partition { Q }", net)

    @pytest.mark.parametrize("text, message, line, col", [
        ("partition { A } { Z }", "unknown species 'Z'", 1, 19),
        ("\npartition { A B }\n\npartition { C }\n",
         "duplicate partition declaration", 4, 1),
        ("partition { A B }\nA -> C , 5\n",
         "expected a partition line, got 'A'", 2, 1),
        ("init A = 1\npartition { A }", "expected a partition line, got 'init'",
         1, 1),
        ("partition { A } x", "expected {, got 'x'", 1, 17),
        ("partition { A } { A }", "species 'A' in two partition blocks", 1, 19),
        ("\n  \n", "no partition line found", 1, 1),
    ])
    def test_errors_are_located_in_the_file(self, text, message, line, col):
        net = parse_model("species A B C\n").network
        with pytest.raises(ParseError) as info:
            parse_partition_file(text, net)
        assert (info.value.message, info.value.line, info.value.col) \
            == (message, line, col)

    def test_blank_lines_around_the_partition(self):
        net = parse_model("species A B C\n").network
        part = parse_partition_file("\n  partition { C A }\r\n\t\n", net)
        assert part.blocks == ((0, 2), (1,))


class TestEdgeList:
    def test_single_directed_edge(self):
        g = parse_edge_list("1 2 0.5\n")
        assert g.nodes == ["1", "2"]
        assert g.edges == [(0, 1, 0.5)]

    def test_undirected_duplicates_both_ways(self):
        g = parse_edge_list("1 2 0.5\n", undirected=True)
        assert g.edges == [(0, 1, 0.5), (1, 0, 0.5)]

    def test_comment_only_file_is_empty(self):
        g = parse_edge_list("# nothing here\n   \n# more\n")
        assert g.nodes == [] and g.edges == []

    def test_inline_comments_and_interning(self):
        g = parse_edge_list("a b 1.0  # one\nb c 2.0\n")
        assert g.nodes == ["a", "b", "c"]
        assert g.edges == [(0, 1, 1.0), (1, 2, 2.0)]

    @pytest.mark.parametrize("text", ["1 2\n", "1 2 x\n", "1 2 -0.5\n", "1 2 3 4\n",
                                      "1 2 1e999\n", "1 2 nan\n"])
    def test_malformed_lines(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)


def tokenizer_parse(text):
    """The document the tokenizer path alone builds, line by line."""
    b = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        _parse_line(b, raw, line_no)
    return b.document()


def outcome(parse, text):
    """Everything a parse yields, or the located error it raises."""
    try:
        doc = parse(text)
    except ParseError as err:
        return ("error", err.message, err.line, err.col)
    net = doc.network
    return (net.names, net.reactions, net.initial_state,
            net.initial_concentration, doc.initial_partition, doc.labels,
            tuple(a.tolist() for a in net.table))


class TestFastPathMatchesTokenizer:
    # (line, message, col) as the tokenizer reports them on line 2
    @pytest.mark.parametrize("line,message,col", [
        ("2e5A -> B , 1", "multiset count must be a positive integer", 1),
        ("0 A -> B , 1", "multiset count must be a positive integer", 1),
        ("2.0 A -> B , 1", "multiset count must be a positive integer", 1),
        ("species: A -> B , 1", "expected ident, got ':'", 8),
        ("A -> B , [2:1]", "interval lower bound 2.0 exceeds upper bound 1.0",
         11),
        ("A -> B , -1", "negative rate", 10),
        ("A + init -> B , 1", "reserved word 'init' used as species", 5),
        ("A +2B -> C , 1", "expected arrow, got '+2'", 3),
        # line 1's texts `X `, ` Y ` and ` 1` are known by now
        ("X -> Y , 1 , 2", "trailing input ','", 12),
        ("X -> Y -> Y , 1", "expected ,, got '->'", 8),
        ("X -> Y Y , 1", "expected ,, got 'Y'", 8),
        ("X , 1 -> Y , 1", "expected arrow, got ','", 3),
        ("X -> init , 1", "reserved word 'init' used as species", 6),
        ("init: X -> Y , 1", "expected ident, got ':'", 5),
        ("X -> Y , 1 1", "trailing input '1'", 12),
        ("X Y -> Y , 1", "expected arrow, got 'Y'", 3),
    ])
    def test_malformed_line(self, line, message, col):
        text = "X -> Y , 1\n" + line + "\n"
        for parse in (parse_model, tokenizer_parse):
            assert outcome(parse, text) == ("error", message, 2, col)

    @pytest.mark.parametrize("line", [
        "2eA -> B , 1",           # the number is `2`, the species `eA`
        "01 A -> B , 1",
        "x:2A+ B+A->0,[1:2]",
        "A -> B , +1",            # signed rates take the tokenizer path
        "A + A -> 0 , 1.5e-3",
    ])
    def test_unusual_valid_line(self, line):
        text = "species B\n" + line + "\n"
        assert outcome(parse_model, text) == outcome(tokenizer_parse, text)
        assert outcome(parse_model, text)[0] != "error"


    def test_counts_are_exact_int64(self):
        text = "9007199254740993 A + A -> 0 , 1\n"
        for parse in (parse_model, tokenizer_parse):
            assert parse(text).network.table.count.tolist() == [2**53 + 2]
            with pytest.raises(OverflowError):
                parse("4611686018427387904 A + 4611686018427387904 A -> 0 , 1")

    # line 1 takes the tokenizer path for its signed rate
    @pytest.mark.parametrize("text,message,line,col", [
        ("0 -> X , +1\nX ->, 1\n", "expected species term, got ','", 2, 5),
        ("0 -> A , +1\nA -> B , 1\nA ->, 1\n",
         "expected species term, got ','", 3, 5),
        ("0 -> 0 , +1\n->, 1\n", "expected species term, got '->'", 2, 1),
    ])
    def test_tokenizer_sides_leave_no_known_text(self, text, message, line,
                                                 col):
        for parse in (parse_model, tokenizer_parse):
            assert outcome(parse, text) == ("error", message, line, col)

    def test_species_line_after_reactions_sees_their_species(self):
        text = "A -> B , 1\nspecies B\n"
        for parse in (parse_model, tokenizer_parse):
            assert outcome(parse, text) == (
                "error", "duplicate species declaration 'B'", 2, 9)

    def test_species_keep_first_appearance_order_across_lines(self):
        text = ("A -> B , 1\nspecies C\nD -> 2 A , +1\nE -> B , 1\n"
                "init E = 1\nA + F -> 0 , 2\n")
        assert outcome(parse_model, text) == outcome(tokenizer_parse, text)
        assert parse_model(text).network.names == ("A", "B", "C", "D", "E",
                                                   "F")


# a few side and rate texts, repeated across lines so that most of them are
# known when they come back: exact repeats and respaced ones, labels and
# `0` sides; now and then a keyword, a second `->` or `,`, or a bad or
# signed rate
_SIDES = ["A", "A ", " A", "A + B", "B+A", "2 A", "2A", "A + A", "0", " 0 ",
          "01 C", "C"]
_LABELS = ["lab: A", "x:2 B", "y : 0"]
_BAD_SIDES = ["init", "species: A", "B -> C", "A , B", "A +2B", "2e5A", "A B",
              "", " "]
_RATES = ["1", " 1", "1.5", "[1:2]", " [ 1 : 2 ] ", "[0 : 0]", " .5 "]
_BAD_RATES = ["[2:1]", "+1", "-1", "1e999", "2 , 3", "1 x"]


def _mostly(good, bad):
    return st.sampled_from(good * 12 + bad)


_REACTION_LINE = st.tuples(_mostly(_SIDES + _LABELS, _BAD_SIDES),
                           _mostly(_SIDES, _BAD_SIDES),
                           _mostly(_RATES, _BAD_RATES)).map(
    lambda t: f"{t[0]}->{t[1]},{t[2]}")
_OTHER_LINE = _mostly(["", "  ", "species D", "species E F"],
                      ["species A", "init A = 1", "partition { A } { B }"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([_REACTION_LINE] * 8 + [_OTHER_LINE]).flatmap(
    lambda line: line), max_size=30))
def test_fast_path_agrees_on_repeated_texts(lines):
    text = "\n".join(lines)
    assert outcome(parse_model, text) == outcome(tokenizer_parse, text)


_PIECES = ["A", "B", "e5", "2", "0", "01", "2e5", "1.5", ".5", "1e999", "+",
           "-", "->", ",", ":", "[", "]", "{", "}", "=", "species", "init",
           "partition", "lab"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(_PIECES),
                                   st.sampled_from(["", " ", "\t"])),
                         max_size=12), max_size=4))
def test_fast_path_agrees_on_arbitrary_lines(lines):
    text = "\n".join("".join(p + sep for p, sep in line) for line in lines)
    assert outcome(parse_model, text) == outcome(tokenizer_parse, text)


def tokenizer_partition_file(text, network):
    """The partition the tokenizer path alone reads from a partition file,
    each line's head checked on its own token list."""
    b = _Builder()
    for name in network.names:
        b.intern(name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head = _tokenize(raw.rstrip("\r"), line_no)[:1]
        if head and head[0].text != "partition":
            raise ParseError(f"expected a partition line, got {head[0].text!r}",
                             line_no, head[0].col)
        _parse_line(b, raw, line_no)
    if b.partition_groups is None:
        raise ParseError("no partition line found", 1, 1)
    return b.document().initial_partition


def partition_outcome(parse, text, network):
    try:
        return parse(text, network).blocks
    except ParseError as err:
        return ("error", err.message, err.line, err.col)


_SEP = st.sampled_from(["", " ", "\t", " \t"])
# mostly partition lines, some of them malformed (an open or empty block, a
# repeated or unknown species, a stray token), among blank and other lines
_PARTITION_LINE = st.one_of(
    st.tuples(_SEP, st.just("partition"), _SEP, st.lists(st.tuples(
        st.sampled_from(["{ A }", "{B}", "{ C A }", "{\tB C }", "{C}", "{ A",
                         "C }", "{ }", "{ Q }", "x", "{ init }"]), _SEP),
        max_size=4)).map(lambda t: t[0] + t[1] + t[2]
                         + "".join(b + sep for b, sep in t[3])),
    st.sampled_from(["", "  ", "\t", "init A = 1", "A -> B , 1", "partitionA"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PARTITION_LINE, max_size=3))
def test_partition_file_fast_path_agrees_on_arbitrary_lines(lines):
    net = parse_model("species A B C\n").network
    text = "\n".join(lines)
    assert partition_outcome(parse_partition_file, text, net) \
        == partition_outcome(tokenizer_partition_file, text, net)


_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in ("species", "init", "partition"))
_RATE = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def documents(draw):
    """Valid documents with irregular spacing (including none where the
    grammar allows it), adjacent counts like `2A`, repeated species,
    labels, `0` sides and plain or exponent-form rates."""
    names = draw(st.lists(_NAME, min_size=1, max_size=8, unique=True))
    n = len(names)
    n_reactions = draw(st.integers(0, 10))

    def ws():
        return draw(st.sampled_from(["", " ", "  ", "\t", " \t "]))

    def ws1():
        return draw(st.sampled_from([" ", "  ", "\t"]))

    def number_format():
        # one format per interval: rounding both ends alike keeps lo <= hi
        return draw(st.sampled_from([repr, "{:e}".format, "{:.3E}".format]))

    lines = [ws() + "species" + "".join(ws1() + nm for nm in names) + ws()]
    for rid in range(n_reactions):
        def side():
            pairs = draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=3))
            if not pairs:
                return "0"
            out = ""
            for k, (i, c) in enumerate(pairs):
                if k:
                    # `+2` would be a signed number
                    out += ws() + "+" + (ws1() if c > 1 else ws())
                if c > 1:
                    # `2e5x` would be one number
                    gap = ws1() if re.match(r"[eE][0-9]", names[i]) else ws()
                    out += f"{c}{gap}"
                out += names[i]
            return out
        lo = draw(_RATE)
        hi = lo + draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
        fmt = number_format()
        if draw(st.booleans()):
            rate = fmt(lo)
        else:
            rate = f"[{ws()}{fmt(lo)}{ws()}:{ws()}{fmt(hi)}{ws()}]"
        label = f"r{rid}{ws()}:{ws()}" if draw(st.booleans()) else ""
        lines.append(f"{ws()}{label}{side()}{ws()}->{ws()}{side()}{ws()},"
                     f"{ws()}{rate}{ws()}")
    if draw(st.booleans()):
        values = draw(st.lists(_RATE, min_size=n, max_size=n))
        body = ",".join(f"{ws()}{nm}{ws()}={ws()}{number_format()(v)}"
                        for nm, v in zip(names, values))
        lines.append(f"init{ws1()}{body}")
    if draw(st.booleans()) and n >= 2:
        k = draw(st.integers(1, n))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        blocks = {}
        for i, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(names[i])
        groups = ws().join("{" + ws() + ws1().join(b) + ws() + "}"
                           for b in blocks.values())
        lines.append(f"partition{ws()}{groups}{ws()}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(documents())
def test_parse_serialize_round_trip(text):
    doc = parse_model(text)
    out = serialize_model(doc)
    again = parse_model(out)
    assert documents_equal(doc, again)
    assert serialize_model(again) == out


@settings(max_examples=80, deadline=None)
@given(documents())
def test_fast_path_builds_the_tokenizer_document(text):
    assert outcome(parse_model, text) == outcome(tokenizer_parse, text)
