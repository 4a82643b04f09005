"""Every string pcml reads from outside: elements, element lists,
polynomials, integers and graph specs.

One set of lexical rules covers them all.  Integers are ASCII digits
only and at most ``sys.get_int_max_str_digits()`` long, whitespace is
ignored, and every `ParseError` carries the offset of the fault in the
text it was given.  Elements are sums of terms ``c*[xA,xB;xC,...]``
(head pair before the semicolon, action tail after) and ``c*xA`` for
linear terms, with optional signs and an optional ``c*`` coefficient.
Parsing always returns the normal form, so
``parse_element(format_element(g)) == g`` holds exactly.  `MAX_VERTICES`
and `MAX_TERM_DEGREE` bound graphs and polynomial terms before use.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from .core import (
    Algebra,
    AssocPoly,
    GeneratorOrder,
    LieElement,
    _add_nf,
    _bump,
)
from .errors import GraphError, ParseError
from .graphs import Graph, complete_graph, cycle_graph, path_graph

_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²", which int() rejects


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def try_take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than int()'s digit limit
            raise ParseError(f"integer of {self.pos - start} digits is too long", start) from None

    def generator(self) -> int:
        if self.peek() != "x":
            raise ParseError("expected a generator like x0", self.pos)
        self.pos += 1
        return self.integer()

    def done(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)


def _parse_monomial(sc: _Scanner) -> Tuple[Tuple[int, int], Tuple[int, ...]]:
    sc.take("[")
    a = sc.generator()
    sc.take(",")
    b = sc.generator()
    tail: List[int] = []
    if sc.try_take(";"):
        tail.append(sc.generator())
        while sc.try_take(","):
            tail.append(sc.generator())
    sc.take("]")
    return (a, b), tuple(tail)


def _read_element(sc: _Scanner, algebra: Algebra, ends: Tuple[str, ...]) -> LieElement:
    """Read one element's terms up to a character in ``ends``, where ""
    stands for the end of the text."""
    n = algebra.graph.n
    start = sc.pos
    if sc.peek() in ends:
        raise ParseError("empty element", start)
    linear = {}
    derived = {}
    first = True
    while sc.peek() not in ends:
        sign = -1 if sc.try_take("-") else 1
        if sign == 1 and not sc.try_take("+") and not first:
            raise ParseError("expected + or - between terms", sc.pos)
        first = False
        ch = sc.peek()
        coeff = 1
        if ch in _DIGITS:
            coeff = sc.integer()
            if sc.try_take("*"):
                ch = sc.peek()
            else:
                # bare integer: only "0" stands for the zero element
                if coeff == 0:
                    continue
                raise ParseError("a constant term needs a generator or monomial", sc.pos)
        if ch == "x":
            i = sc.generator()
            if not 0 <= i < n:
                raise ParseError(f"unknown generator x{i}", sc.pos)
            _bump(linear, i, sign * coeff)
        elif ch == "[":
            head, tail = _parse_monomial(sc)
            for v in head + tail:
                if not 0 <= v < n:
                    raise ParseError(f"unknown generator x{v}", sc.pos)
            _add_nf(derived, algebra, *head, tail, sign * coeff)
        else:
            raise ParseError("expected a generator or a bracket monomial", sc.pos)
    return LieElement._trusted(algebra, linear, derived)


def parse_element(text: str, graph: Graph, order: GeneratorOrder) -> LieElement:
    """Parse element text and return its normal form."""
    return _read_element(_Scanner(text), Algebra.of(graph, order), ("",))


def parse_elements(text: str, graph: Graph, order: GeneratorOrder) -> List[LieElement]:
    """Parse comma-separated elements, as in ``x0, [x2,x1;x3], x1``.
    Commas inside brackets belong to the monomial; an empty entry is an
    error, and offsets count from the start of ``text``."""
    algebra = Algebra.of(graph, order)
    sc = _Scanner(text)
    elements = [_read_element(sc, algebra, ("", ","))]
    while sc.try_take(","):
        elements.append(_read_element(sc, algebra, ("", ",")))
    return elements


def parse_assoc_poly(text: str, n: int) -> AssocPoly:
    """Parse ``3*x0^2*x1 - x2 + 4`` style polynomial text; a term of total
    degree over `MAX_TERM_DEGREE` raises where its last exponent begins."""
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty polynomial", 0)
    terms = {}
    first = True
    while not sc.done():
        sign = -1 if sc.try_take("-") else 1
        if sign == 1 and not sc.try_take("+") and not first:
            raise ParseError("expected + or - between terms", sc.pos)
        first = False
        have_coeff = sc.peek() in _DIGITS
        coeff = sc.integer() if have_coeff else 1
        exps = [0] * n
        degree = 0
        have_var = False
        while True:
            if (have_coeff or have_var) and not sc.try_take("*"):
                break
            if sc.peek() != "x":
                if have_var or have_coeff:
                    raise ParseError("expected a variable after *", sc.pos)
                break
            i = sc.generator()
            if not 0 <= i < n:
                raise ParseError(f"unknown variable x{i}", sc.pos)
            at = sc.pos
            power = sc.integer() if sc.try_take("^") else 1
            if (degree := degree + power) > MAX_TERM_DEGREE:
                raise ParseError(f"a term of degree {degree} is over the limit of {MAX_TERM_DEGREE}", at)
            exps[i] += power
            have_var = True
        if not have_var and not have_coeff:
            raise ParseError("expected a term", sc.pos)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return AssocPoly(n, terms)


def parse_integers(text: str) -> List[int]:
    """Parse comma-separated nonnegative integers, as in ``--order 2,0,1``."""
    sc = _Scanner(text)
    values = [sc.integer()]
    while sc.try_take(","):
        values.append(sc.integer())
    if not sc.done():
        raise ParseError("expected a comma", sc.pos)
    return values


def parse_integer(text: str) -> int:
    """Parse one integer with an optional minus sign: the type of every
    integer option on the command line."""
    sc = _Scanner(text)
    value = -sc.integer() if sc.try_take("-") else sc.integer()
    if not sc.done():
        raise ParseError("expected the end of the integer", sc.pos)
    return value


# the most vertices a graph spec or graph file may have, and the longest
# cycle of `pcml theta`, `witness` and `distinguish`: far above every
# example (the largest is a 40-cycle), and it keeps `complete:<n>`, whose
# edges grow as n^2, at 32,640 edges
MAX_VERTICES = 256
# the greatest total degree of a polynomial term: far above every example
# (whose largest exponent is 2), so ``x1^100000000`` asks for no such tail
MAX_TERM_DEGREE = 1024


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphError(f"a graph of {n} vertices is over the limit of {MAX_VERTICES} vertices")


def graph_from_json(obj) -> Graph:
    """Build a graph from decoded JSON ``{"n": 4, "edges": [[0, 1], ...]}``
    with at most `MAX_VERTICES` vertices."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError('graph JSON must be an object with "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int:  # bool is a subclass of int
        raise GraphError(f"vertex count must be an integer, got {json.dumps(n)}")
    _check_vertex_count(n)
    if not isinstance(edges, list):
        raise GraphError(f"edges must be a list, got {json.dumps(edges)}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int):
            raise GraphError(f"an edge must be a pair of integers, got {json.dumps(e)}")
    return Graph(n, edges)


def read_file(path: str, what: str, error: type) -> str:
    """The UTF-8 text of a file named on the command line; a file that
    cannot be read or decoded raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from None


_FAMILIES = {"cycle": cycle_graph, "complete": complete_graph, "path": path_graph}


def parse_graph_spec(text: str) -> Graph:
    """Build a graph from ``cycle:<n>``, ``complete:<n>``, ``path:<n>``,
    or the path of a JSON file read by `graph_from_json`; either way
    with at most `MAX_VERTICES` vertices."""
    name, sep, arg = text.partition(":")
    if sep and name in _FAMILIES:
        try:
            k = parse_integer(arg)
        except ParseError:
            raise GraphError(f"bad vertex count in graph spec {text!r}") from None
        _check_vertex_count(k)
        return _FAMILIES[name](k)
    data = read_file(text, "graph spec", GraphError)
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or nesting too deep
        raise GraphError(f"invalid JSON in {text!r}: {exc}") from None
    return graph_from_json(obj)
