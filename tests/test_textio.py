import random
import re
import sys

import pytest

from pcml.core import AssocPoly, GeneratorOrder, LieElement, format_element, word_element
from pcml.errors import GraphError, ParseError
from pcml.graphs import Graph, cycle_graph
from pcml.sampling import random_element, random_graph
from pcml.textio import (
    graph_from_json,
    parse_assoc_poly,
    parse_element,
    parse_elements,
    parse_graph_spec,
    parse_integer,
    parse_integers,
)

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


def test_print_monomial_shapes():
    e = word_element(FREE4, O4, (2, 0, 1, 1))
    assert format_element(e) == "[x2,x0;x1,x1]"
    e = -2 * word_element(FREE4, O4, (3, 1))
    assert format_element(e) == "-2*[x3,x1]"
    x0 = LieElement.generator(FREE4, O4, 0)
    combo = x0 + word_element(FREE4, O4, (2, 1))
    assert format_element(combo) == "x0 + [x2,x1]"
