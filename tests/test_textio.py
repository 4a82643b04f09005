import json
import random
import re
import sys

import pytest

from pcml import textio
from pcml.core import AssocPoly, GeneratorOrder, LieElement, format_element, word_element
from pcml.errors import GraphError, ParseError
from pcml.graphs import Graph, cycle_graph
from pcml.sampling import random_element, random_graph
from pcml.textio import (
    MAX_TERM_DEGREE,
    MAX_VERTICES,
    graph_from_json,
    parse_assoc_poly,
    parse_element,
    parse_elements,
    parse_graph_spec,
    parse_integer,
    parse_integers,
)
import reference

FREE4 = Graph(4, [])
O4 = GeneratorOrder.ascending(4)


def test_parse_mixed_terms():
    e = parse_element("2*[x2,x0;x1] - x3", FREE4, O4)
    assert e.linear == {3: -1}
    assert list(e.derived.values()) == [2]


def test_parse_whitespace_insensitive():
    a = parse_element("2*[x2,x0;x1]-x3", FREE4, O4)
    b = parse_element("  2 * [ x2 , x0 ; x1 ]  -  x3 ", FREE4, O4)
    assert a == b


def test_parse_normalizes():
    assert parse_element("[x0,x0]", FREE4, O4).is_zero()
    assert format_element(parse_element("[x0,x0]", FREE4, O4)) == "0"
    e = parse_element("[x0,x1]", cycle_graph(4), O4)
    assert e.is_zero()
    e = parse_element("[x0,x2]", FREE4, O4)
    assert format_element(e) == "- [x2,x0]" or format_element(e) == "-[x2,x0]"


def test_parse_zero_literal():
    assert parse_element("0", FREE4, O4).is_zero()


def test_round_trip_random():
    rng = random.Random(1)
    for _ in range(80):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        e = random_element(g, o, rng)
        text = format_element(e)
        again = parse_element(text, g, o)
        assert again == e
        assert format_element(again) == text


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_element("x0 + ", FREE4, O4)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_element("", FREE4, O4)
    with pytest.raises(ParseError):
        parse_element("[x0;x1]", FREE4, O4)
    with pytest.raises(ParseError):
        parse_element("x9", FREE4, O4)
    with pytest.raises(ParseError):
        parse_element("3", FREE4, O4)
    with pytest.raises(ParseError):
        parse_element("x0 x1", FREE4, O4)


def test_digits_int_rejects_are_parse_errors():
    # str.isdigit accepts a superscript two, int() does not
    for parse, text, position in (
        (lambda t: parse_element(t, FREE4, O4), "x\u00b2", 1),
        (lambda t: parse_element(t, FREE4, O4), "\u00b2*x0", 0),
        (lambda t: parse_assoc_poly(t, 4), "x1^\u00b2", 3),
        (lambda t: parse_assoc_poly(t, 4), "2 + \u00b2", 4),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit")
def test_integers_beyond_the_digit_limit_are_parse_errors():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 100)
    for parse, text, position in (
        (lambda t: parse_element(t, FREE4, O4), "x0 - " + long + "*x1", 5),
        (lambda t: parse_element(t, FREE4, O4), "x" + long, 1),
        (lambda t: parse_assoc_poly(t, 4), long + "*x0", 0),
        (lambda t: parse_assoc_poly(t, 4), "x0^" + long, 3),
    ):
        with pytest.raises(ParseError, match=f"integer of {limit + 100} digits") as info:
            parse(text)
        assert info.value.position == position
    at_limit = parse_element("9" * limit + "*x2", FREE4, O4)
    assert at_limit.linear == {2: 10 ** limit - 1}


def test_parse_assoc_poly():
    p = parse_assoc_poly("x0^2*x1 + 3*x2 - 2", 3)
    assert p.terms == {(2, 1, 0): 1, (0, 0, 1): 3, (0, 0, 0): -2}
    q = parse_assoc_poly("2", 3)
    assert q == AssocPoly(3, {(0, 0, 0): 2})
    with pytest.raises(ParseError):
        parse_assoc_poly("x0^", 3)
    with pytest.raises(ParseError):
        parse_assoc_poly("x7", 3)


def test_polynomial_terms_over_the_degree_limit_are_parse_errors():
    top = MAX_TERM_DEGREE
    assert parse_assoc_poly(f"x1^{top}", 4).terms == {(0, top, 0, 0): 1}
    assert parse_assoc_poly(f"x1^{top} - 2*x0*x3^{top - 1}", 4).terms == {
        (0, top, 0, 0): 1, (1, 0, 0, top - 1): -2}
    # the offset is where the exponent that passes the limit begins
    for text, position in (
        ("x1^100000000", 2),
        (f"x1^{top + 1}", 2),
        (f"x0 + 3*x1^{top - 1} * x2^2", 19),
        (f"x2^{top}*x2", 10),
    ):
        with pytest.raises(ParseError, match=f"over the limit of {top}") as info:
            parse_assoc_poly(text, 4)
        assert info.value.position == position


def test_parse_elements_splits_at_top_level_commas():
    parse = lambda t: parse_elements(t, FREE4, O4)
    assert parse("x0,x1,x2") == [parse_element(f"x{i}", FREE4, O4) for i in range(3)]
    assert parse("[x1,x0;x2],x3") == [parse_element(t, FREE4, O4) for t in ("[x1,x0;x2]", "x3")]
    assert parse(" x0 + [x2,x1] , x3 ") == [parse_element(t, FREE4, O4) for t in ("x0 + [x2,x1]", "x3")]
    assert parse("0") == [parse_element("0", FREE4, O4)]


def test_parse_elements_offsets_count_from_the_whole_text():
    for text, message, position in (
        ("x0,x1,,x2", "empty element", 6),
        ("x0, ,x1", "empty element", 3),
        ("x0,x1,", "empty element", 6),
        (",x0", "empty element", 0),
        ("", "empty element", 0),
        ("x0,x1 x2", "expected + or - between terms", 6),
        ("x0,[x1,x9]", "unknown generator x9", 10),
        ("x0, 2*[x1;x2]", "expected ','", 9),
    ):
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            parse_elements(text, FREE4, O4)
        assert info.value.position == position, text


def test_parse_integers():
    assert parse_integers("2, 0,1 ") == [2, 0, 1]
    assert parse_integer(" -3") == -3
    for text, position in (("", 0), ("1,,2", 2), ("1_0", 1), ("\u0663,0", 0), ("+1", 0), ("1,-2", 2)):
        with pytest.raises(ParseError) as info:
            parse_integers(text)
        assert info.value.position == position, text
    for text in ("", "-", "1,2", "\u0663", "1 2"):
        with pytest.raises(ParseError):
            parse_integer(text)


def test_graph_from_json_rejects_non_integers():
    assert graph_from_json({"n": 3, "edges": [[0, 1], [1, 2]]}) == Graph(3, [(0, 1), (1, 2)])
    for obj in (
        [],
        {"n": 3},
        {"n": 5.0, "edges": []},
        {"n": "4", "edges": []},
        {"n": True, "edges": []},
        {"n": 3, "edges": "01"},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "edges": [[0, 1.0]]},
        {"n": 3, "edges": [[False, 1]]},
    ):
        with pytest.raises(GraphError):
            graph_from_json(obj)


def test_parse_graph_spec_reports_unreadable_files(tmp_path):
    for name, data, message in (
        ("deep.json", b"[" * 100000, "invalid JSON"),
        ("latin1.json", b'{"n": 1, "edges": []}\xff', "cannot read graph spec"),
        ("missing.json", None, "cannot read graph spec"),
    ):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(GraphError, match=f"^{message}"):
            parse_graph_spec(str(path))
    for spec in ("cycle:1_0", "cycle:\u0663", "path:", "complete:2,3"):
        with pytest.raises(GraphError, match="bad vertex count"):
            parse_graph_spec(spec)


def test_graph_specs_over_the_vertex_limit_are_refused(tmp_path):
    assert parse_graph_spec(f"path:{MAX_VERTICES}").n == MAX_VERTICES
    assert graph_from_json({"n": MAX_VERTICES, "edges": []}).n == MAX_VERTICES
    message = f"^a graph of {MAX_VERTICES + 1} vertices is over the limit of {MAX_VERTICES} vertices$"
    for family in ("cycle", "complete", "path"):
        with pytest.raises(GraphError, match=message):
            parse_graph_spec(f"{family}:{MAX_VERTICES + 1}")
    with pytest.raises(GraphError, match=message):
        graph_from_json({"n": MAX_VERTICES + 1, "edges": []})
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10**9, "edges": []}))
    with pytest.raises(GraphError, match="over the limit"):
        parse_graph_spec(str(path))
    with pytest.raises(GraphError, match="over the limit"):
        parse_graph_spec("cycle:999999999")


def test_print_monomial_shapes():
    e = word_element(FREE4, O4, (2, 0, 1, 1))
    assert format_element(e) == "[x2,x0;x1,x1]"
    e = -2 * word_element(FREE4, O4, (3, 1))
    assert format_element(e) == "-2*[x3,x1]"
    x0 = LieElement.generator(FREE4, O4, 0)
    combo = x0 + word_element(FREE4, O4, (2, 1))
    assert format_element(combo) == "x0 + [x2,x1]"


C4, ORDER4 = cycle_graph(4), GeneratorOrder([2, 0, 3, 1])
# pieces of the random texts below, each with its weight: every character
# of the grammar, digits, spaces, tabs and "\u00b2", and runs that reach
# deep into a term
TERM_PIECES = {
    "x": 1, "x0": 4, "x1": 4, "x2": 4, "x3": 4, "x9": 1, "[": 1, "]": 1, ",": 2, ";": 1, "+": 3,
    "-": 3, "*": 3, "^": 1, "0": 1, "1": 1, "2": 1, "12": 1, " ": 3, "  ": 1, "\t": 1, "\u00b2": 1,
    "^0": 2, "^2": 2, "[x1,x0]": 3, "[x2,x0;x1]": 3, "[x3,x1;": 1, "2*": 3, " + ": 4, " - ": 4,
    "x1^0*": 2, "3*": 2, " * x1": 1,
}
INTEGER_PIECES = {"0": 3, "1": 3, "7": 3, "42": 3, ",": 3, ", ": 2, "-": 1, "+": 1, " ": 1, "\t": 1, "x": 1, "\u00b2": 1}
# texts a rewrite of the term loops can get wrong, read before the random ones
SEEDED = (
    "x1^0*", "2*x1^0*", "x1^0*x2^0*", "x1^0", "2*x1^0", "x1^0 + 3", " * x1", "3*", "3*x1*", "*",
    "0", "0*x1", "- 0", "+x1", "-+x1", "x1 x2", "x1^1025 ", "x7 + x1", "[x1, x9] + x0", "x9 ",
    "x0, ,x1", ",", "", " ", "\t", "-", "1,-2", " -3 ",
)


def _outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except ParseError as exc:
        return str(exc), exc.position


def _random_texts(pieces, count, seed):
    rng = random.Random(seed)
    limit = sys.get_int_max_str_digits()
    long_runs = ("9" * limit, "1" * (limit + 1)) if limit else ()
    yield from SEEDED
    for run in long_runs:
        yield from (run, f"{run}*x1", f"x{run}", f"x1^{run}", f"x0 - {run}", f"1,{run}")
    population, weights = list(pieces), list(pieces.values())
    for _ in range(count):
        yield "".join(rng.choices(population, weights, k=rng.randrange(9)))


@pytest.mark.parametrize("name", ["parse_element", "parse_elements", "parse_assoc_poly", "parse_integers", "parse_integer"])
def test_the_cursor_reads_as_the_per_character_scanner(name):
    # every text gives the same value, or the same message at the same offset
    args = {"parse_element": (C4, ORDER4), "parse_elements": (C4, ORDER4), "parse_assoc_poly": (4,)}.get(name, ())
    pieces = INTEGER_PIECES if name.startswith("parse_integer") else TERM_PIECES
    new, old = getattr(textio, name), getattr(reference, name)
    failed = 0
    for text in _random_texts(pieces, 200_000, seed=name):
        got = _outcome(new, text, *args)
        assert got == _outcome(old, text, *args), text
        failed += isinstance(got, tuple)
    assert 0 < failed < 200_000
