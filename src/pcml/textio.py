"""Textual element and polynomial formats.

Elements are sums of terms ``c*[xA,xB;xC,...]`` (head pair before the
semicolon, action tail after) and ``c*xA`` for linear terms, with
optional signs and an optional ``c*`` coefficient.  Whitespace is
ignored.  Parsing always returns the normal form, so
``parse_element(format_element(g)) == g`` holds exactly.
"""

from __future__ import annotations

from typing import List, Tuple

from .core import (
    Algebra,
    AssocPoly,
    GeneratorOrder,
    LieElement,
    _add_nf,
    _bump,
)
from .errors import ParseError
from .graphs import Graph

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


def parse_element(text: str, graph: Graph, order: GeneratorOrder) -> LieElement:
    """Parse element text and return its normal form."""
    algebra = Algebra.of(graph, order)
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty element", 0)
    linear = {}
    derived = {}
    first = True
    while not sc.done():
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
            if not 0 <= i < graph.n:
                raise ParseError(f"unknown generator x{i}", sc.pos)
            _bump(linear, i, sign * coeff)
        elif ch == "[":
            head, tail = _parse_monomial(sc)
            for v in head + tail:
                if not 0 <= v < graph.n:
                    raise ParseError(f"unknown generator x{v}", sc.pos)
            _add_nf(derived, algebra, *head, tail, sign * coeff)
        else:
            raise ParseError("expected a generator or a bracket monomial", sc.pos)
    return LieElement._trusted(algebra, linear, derived)


def parse_assoc_poly(text: str, n: int) -> AssocPoly:
    """Parse ``3*x0^2*x1 - x2 + 4`` style polynomial text."""
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
        coeff = 1
        have_coeff = False
        if sc.peek() in _DIGITS:
            coeff = sc.integer()
            have_coeff = True
        exps = [0] * n
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
            power = sc.integer() if sc.try_take("^") else 1
            exps[i] += power
            have_var = True
        if not have_var and not have_coeff:
            raise ParseError("expected a term", sc.pos)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return AssocPoly(n, terms)


def split_top_level(text: str, sep: str = ",") -> List[str]:
    """Split on a separator, ignoring separators inside brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]
