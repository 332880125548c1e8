"""The element parser against the term-by-term parser it replaced.

``ElementParser._parse_term`` reads a term in one pass and returns (path,
coefficient); ``parse_element`` sums the terms in one dict.  The reference
below is the earlier parser: each term became an Element (its arrows joined
and parsed again as a path, its coefficient multiplied up one symbol at a
time), and the terms were summed one Element addition at a time.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathalg.cli import (
    _RATIONAL,
    _SYMBOL,
    MAX_TERM_ARROWS,
    ElementParser,
    ParseError,
    _ascii,
    _number,
)
from pathalg.quiver_core import Element, Path, PolyScalar, Quiver


class RefParser(ElementParser):
    """The parser before terms were read in one pass."""

    def _symbol(self, name: str, power: int) -> PolyScalar:
        return PolyScalar({((name, power),): 1} if power else {(): 1},
                          self.trunc, self.params)

    def parse_element(self, text: str, line: int | None = None) -> Element:
        text = _ascii(text).strip()
        if text in ("0", ""):
            return Element.zero(self.quiver)
        chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
        if "".join(chunks) != text.replace(" ", ""):
            raise ParseError(f"cannot tokenize element {text!r}", line)
        out = Element.zero(self.quiver)
        for chunk in chunks:
            out = out + self._parse_term(chunk, line)
        return out

    def _parse_term(self, chunk: str, line: int | None) -> Element:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ParseError("empty term", line)
        coeff = PolyScalar.rational(sign, self.trunc, self.params)
        arrows: list[str] = []
        vertex: str | None = None
        for factor in chunk.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}", line)
            if _RATIONAL.match(factor):
                coeff = coeff.scale(_number(Fraction, factor, line))
                continue
            m = _SYMBOL.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r}", line)
            name, power = m.group(1), _number(int, m.group(3) or "1", line)
            if name in self.quiver._src:
                if len(arrows) + power > MAX_TERM_ARROWS:
                    raise ParseError(f"term {chunk!r} has more than "
                                     f"{MAX_TERM_ARROWS} arrows", line)
                arrows.extend([name] * power)
            elif name in self.params or name in self.unknowns:
                coeff = coeff * self._symbol(name, power)
            elif name.startswith("e") and name[1:] in self.quiver._vertex_index:
                if not power:
                    continue
                if vertex not in (None, name[1:]):
                    raise ParseError(f"term {chunk!r} names two vertices", line)
                vertex = name[1:]
            else:
                raise ParseError(f"undeclared symbol {name!r}", line)
        if arrows and vertex is not None:
            raise ParseError(f"term {chunk!r} mixes a vertex and arrows", line)
        if arrows:
            path = self.parse_path("*".join(arrows), line)
        elif vertex is not None:
            path = Path(self.quiver, vertex=vertex)
        else:
            raise ParseError(f"term {chunk!r} has no path part "
                             "(use e<vertex> for scalars)", line)
        return Element.from_path(path, coeff)


QUIVER = Quiver(["0", "1"], [("x1", "0", "0"), ("x2", "0", "0"),
                             ("a", "0", "1"), ("b", "1", "0")])
PARAMS, UNKNOWNS = ["hbar", "t"], ["lam", "mu"]

# the fuzz grammar's tokens, plus powers over the truncation, zero factors,
# non-composable words and bad tokens; valid ones first and more often
factor = st.sampled_from([
    "x1", "x2", "a", "b", "x1", "x2", "x1", "hbar", "lam", "2", "3", "1/3",
    "e0", "e1", "t^2", "hbar^3", "hbar^0", "mu^0", "lam^2", "x1^2", "a^0", "e1^0", "0",
    "0/5", "3/6", "1/0", "7/0", "2.5", "q", "e9", "x1^", "^2", "", "λ", "ħ"])
term = st.lists(factor, min_size=1, max_size=4).map("*".join)


@st.composite
def elements(draw):
    """Up to 8 terms drawn from a pool of 4, each with either sign, so that
    terms repeat and cancel; signs may pile up at the front."""
    pool = draw(st.lists(term, min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]),
                                    st.sampled_from(pool)),
                          min_size=1, max_size=8))
    front = draw(st.sampled_from(["", "", "", "", "-", "+", " ", "--"]))
    return front + "".join(s + t for s, t in picks).lstrip(" +")


def outcome(parser: ElementParser, text: str):
    try:
        elem = parser.parse_element(text, line=3)
    except ParseError as exc:
        return "error", str(exc)
    return "element", elem, list(elem.terms), [
        (c.trunc, c.params) for c in elem.terms.values()]


@settings(max_examples=300, deadline=None)
@given(elements(), st.sampled_from([None, 0, 1, 2]))
def test_parser_matches_the_term_by_term_reference(text, trunc):
    new = ElementParser(QUIVER, PARAMS, UNKNOWNS, trunc)
    ref = RefParser(QUIVER, PARAMS, UNKNOWNS, trunc)
    assert outcome(new, text) == outcome(ref, text)


@pytest.mark.parametrize("text, want", [
    ("e0*e1", "line 3: term 'e0*e1' names two vertices"),
    ("e1*e0", "line 3: term 'e1*e0' names two vertices"),
    ("x1 - 2*e0*hbar*e1", "line 3: term '2*e0*hbar*e1' names two vertices"),
    ("e0*e0", "e0"),
    ("e0^2", "e0"),
    ("3*e1*e1^2", "3*e1"),
])
def test_a_term_names_at_most_one_vertex(text, want):
    """A product of two different trivial paths is 0 in kQ, not the last of
    them: the parser refuses it, as it refuses a vertex times arrows."""
    for parser in (ElementParser, RefParser):
        got = outcome(parser(QUIVER, PARAMS, UNKNOWNS, None), text)
        assert (got[1] if got[0] == "error" else repr(got[1])) == want


@pytest.mark.parametrize("text, want", [
    ("e0^0", "line 3: term 'e0^0' has no path part (use e<vertex> for scalars)"),
    ("2*hbar*e1^0", "line 3: term '2*hbar*e1^0' has no path part "
                    "(use e<vertex> for scalars)"),
    ("e0*e0^0", "e0"),
    ("e1^0*e0", "e0"),
    ("x1*e0^0*x2", "x1*x2"),
    ("e0*e0", "e0"),
    ("e0^2", "e0"),
])
def test_a_vertex_to_the_power_0_adds_nothing(text, want):
    """e^0 is the empty product, as a^0 is: it is no trivial path, so a term
    of nothing else has no path part, and it names no vertex."""
    for parser in (ElementParser, RefParser):
        got = outcome(parser(QUIVER, PARAMS, UNKNOWNS, None), text)
        assert (got[1] if got[0] == "error" else repr(got[1])) == want


def test_cancelled_path_re_enters_last():
    parser = ElementParser(QUIVER, PARAMS, UNKNOWNS, None)
    got = parser.parse_element("x1 + x2 - x1 + 2*x1")
    assert [repr(p) for p in got.terms] == ["x2", "x1"]
    assert got == RefParser(QUIVER, PARAMS, UNKNOWNS, None).parse_element(
        "x1 + x2 - x1 + 2*x1")


def test_long_element_parses_in_linear_time():
    """4,000 terms on distinct paths: one dict, not 4,000 Element sums."""
    trunc, params = 3, frozenset(["hbar"])
    terms = {}
    parts = []
    for n in range(1, 4001):
        arrows = tuple("x1" if bit == "0" else "x2" for bit in format(n, "b"))
        k = n % 4
        parts.append(f"{n}*hbar^{k}*{'*'.join(arrows)}")
        terms[QUIVER.path(*arrows)] = PolyScalar(
            {(("hbar", k),) if k else (): n}, trunc, params)
    text = " + ".join(parts)
    parser = ElementParser(QUIVER, PARAMS, UNKNOWNS, trunc)
    start = time.perf_counter()
    got = parser.parse_element(text)
    assert time.perf_counter() - start < 1.0
    assert got == Element(QUIVER, terms)
