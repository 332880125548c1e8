"""Command-line front end: parse problem files, dispatch, report.

A problem file is line-oriented::

    vertex <id> ...
    arrow <name> : <src> -> <tgt>
    order <name> < <name> < ...
    rule <path> -> <element>
    deform <path> -> <element>
    param <symbol> ...
    unknown <symbol> ...
    set trunc <N>
    set budget <M>

Paths are ``*``-joined arrow names or ``e<vertex>``; elements are
``+``/``-``-separated terms, each a ``*``-product of an optional rational,
declared symbols (with optional ``^k``) and arrow names.  ``#`` starts a
comment; the Unicode symbols λ, μ, ν and ħ are read as ``lam``, ``mu``,
``nu`` and ``hbar``.

Every run prints a plain-text report followed by one JSON document on the
last line.  Exit codes: 0 verdict-pass, 1 verdict-fail, 2 usage/parse error,
3 budget exhausted or inconclusive, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import hh2
from .quantization import (
    HBAR,
    MAX_STRATUM,
    PoissonBivector,
    enumerate_graphs,
    monomial,
    quantize_check,
    quantize_compare,
    schouten_jacobi_check,
)
from .quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
)
from .reduction_engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CompletionError,
    ReductionSystem,
    Rule,
    ambiguities_n,
    check_diamond,
    complete,
    irreducible_paths,
    overlaps,
    reduce_full,
)
from .star_product import (
    DeformationCochain,
    GaugeOnArrows,
    gauge_check,
    mc_check,
    star,
)
from .variety import STRICT, mc_equations, order_condition

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                 "inconclusive": EXIT_BUDGET}

_UNICODE_ALIASES = {"λ": "lam", "μ": "mu", "ν": "nu", "ħ": "hbar"}

MAX_TERM_ARROWS = 10**6  # longest path a term may spell, checked before it is built

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")
_SYMBOL = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(\^(\d+))?$")


class ParseError(Exception):
    """A problem-file or element syntax error, with a line reference."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@dataclass
class ProblemFile:
    """A parsed problem file: quiver, rules, optional deformation and order."""

    quiver: Quiver
    system: ReductionSystem
    order: AdmissibleOrder | None
    params: list[str]
    unknowns: list[str]
    trunc: int
    budget: int
    deform_values: dict[Path, Element] = field(default_factory=dict)

    def cochain(self, trunc: int | None = None) -> DeformationCochain:
        """The deform block as a cochain, re-truncated at ``trunc`` if given."""
        if not self.deform_values:
            raise UsageError("this command needs a deform block")
        formal = all(c.min_param_degree() >= 1
                     for v in self.deform_values.values()
                     for c in v.terms.values())
        if formal and trunc is not None and trunc > self.trunc:  # parsed at self.trunc
            raise UsageError(f"--trunc {trunc} exceeds the file's truncation "
                             f"order {self.trunc} (set trunc {self.trunc})")
        if trunc is None and formal:
            trunc = self.trunc
        return DeformationCochain(self.system, self.deform_values,
                                  trunc=trunc, formal=formal)

    def parser(self, trunc: int | None) -> "ElementParser":
        return ElementParser(self.quiver, self.params, self.unknowns, trunc)


def _ascii(text: str) -> str:
    for sym, alias in _UNICODE_ALIASES.items():
        text = text.replace(sym, alias)
    return text


def _logical_lines(text: str):
    for i, raw in enumerate(_ascii(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


class ElementParser:
    """Parses paths and elements against a quiver and declared symbols."""

    def __init__(self, quiver: Quiver, params: list[str], unknowns: list[str],
                 trunc: int | None):
        self.quiver = quiver
        self.params = frozenset(params)
        self.unknowns = set(unknowns)
        self.trunc = trunc

    def parse_path(self, text: str, line: int | None = None) -> Path:
        text = _ascii(text).strip()
        if text.startswith("e") and text[1:] in self.quiver._vertex_index:
            return Path(self.quiver, vertex=text[1:])
        arrows = tuple(a.strip() for a in text.split("*"))
        for a in arrows:
            if a not in self.quiver._src:
                raise ParseError(f"unknown arrow {a!r} in path {text!r}", line)
        try:
            return Path(self.quiver, arrows=arrows)
        except UsageError as exc:
            raise ParseError(str(exc), line) from exc

    def parse_element(self, text: str, line: int | None = None) -> Element:
        text = _ascii(text).strip()
        if text in ("0", ""):
            return Element.zero(self.quiver)
        chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
        if "".join(chunks) != text.replace(" ", ""):
            raise ParseError(f"cannot tokenize element {text!r}", line)
        terms: dict[Path, PolyScalar] = {}
        for chunk in chunks:
            path, c = self._parse_term(chunk, line)
            c = terms[path] + c if path in terms else c
            if c.is_zero():  # dropped: a later term re-enters the path last
                terms.pop(path, None)
            else:
                terms[path] = c
        return Element(self.quiver, terms)

    def _parse_term(self, chunk: str, line: int | None) -> tuple[Path, PolyScalar]:
        """One term as (path, coefficient), read in one pass over its factors.
        The tokenizer hands over a nonempty chunk with at most one sign."""
        q = -1 if chunk[0] == "-" else 1
        chunk = chunk[1:] if chunk[0] in "+-" else chunk
        powers: dict[str, int] = {}
        arrows: list[str] = []
        vertex: str | None = None
        for factor in chunk.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}", line)
            if _RATIONAL.match(factor):
                q = q * _number(Fraction, factor, line)
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
                powers[name] = powers.get(name, 0) + power
            elif name.startswith("e") and name[1:] in self.quiver._vertex_index:
                if not power:  # e^0, like a^0, is the empty product
                    continue
                if vertex not in (None, name[1:]):
                    raise ParseError(f"term {chunk!r} names two vertices", line)
                vertex = name[1:]
            else:
                raise ParseError(f"undeclared symbol {name!r}", line)
        if arrows and vertex is not None:
            raise ParseError(f"term {chunk!r} mixes a vertex and arrows", line)
        if not arrows and vertex is None:
            raise ParseError(f"term {chunk!r} has no path part "
                             "(use e<vertex> for scalars)", line)
        try:
            path = Path(self.quiver, arrows=tuple(arrows), vertex=vertex)
        except UsageError as exc:  # non-composable arrows
            raise ParseError(str(exc), line) from exc
        mono = tuple(sorted((n, e) for n, e in powers.items() if e))
        return path, PolyScalar({mono: q}, self.trunc, self.params)  # 0 if over trunc


def _number(kind, text: str, line: int | None):
    """kind(text) for a digit string, with its failures as ParseErrors."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in factor {text!r}", line) from None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"number of {len(text)} characters is too long",
                         line) from None


def _split_rule(line_no: int, rest: str) -> tuple[str, str]:
    if "->" not in rest:
        raise ParseError("expected '<path> -> <element>'", line_no)
    lhs, rhs = rest.split("->", 1)
    return lhs.strip(), rhs.strip()


def _put(values: dict[Path, Element], head: str, parser: ElementParser,
         line_no: int, lhs: str, rhs: str) -> None:
    """Enter ``<head> <lhs> -> <rhs>`` into values, one line per side."""
    side = parser.parse_path(lhs, line_no)
    if side in values:
        raise ParseError(f"duplicate {head} for {side!r}", line_no)
    values[side] = parser.parse_element(rhs, line_no)


def _setting(value: str, least: int, what: str, line: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"{what} needs an integer, got {value.strip()!r}",
                         line) from None
    if n < least:
        raise ParseError(f"{what} must be >= {least}", line)
    return n


def _int_arg(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{what} needs an integer, got {value!r}") from None


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file into a ProblemFile, raising ParseError on errors."""
    vertices: list[str] = []
    arrow_decls: list[tuple[str, str, str]] = []
    order_names: list[str] | None = None
    params: list[str] = []
    unknowns: list[str] = []
    trunc = 4
    budget = DEFAULT_BUDGET
    rule_lines: list[tuple[int, str, str]] = []
    deform_lines: list[tuple[int, str, str]] = []

    for line_no, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vertex":
            vertices.extend(rest.split())
        elif head == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            if not m:
                raise ParseError("expected 'arrow <name> : <src> -> <tgt>'",
                                 line_no)
            arrow_decls.append((m.group(1), m.group(2), m.group(3)))
        elif head == "order":
            order_names = [n.strip() for n in rest.split("<")]
            if any(not n for n in order_names):
                raise ParseError("expected 'order a < b < ...'", line_no)
        elif head == "rule":
            rule_lines.append((line_no, *_split_rule(line_no, rest)))
        elif head == "deform":
            deform_lines.append((line_no, *_split_rule(line_no, rest)))
        elif head == "param":
            params.extend(rest.split())
        elif head == "unknown":
            unknowns.extend(rest.split())
        elif head == "set":
            key, _, value = rest.partition(" ")
            if key == "trunc":
                trunc = _setting(value, 0, "set trunc", line_no)
            elif key == "budget":
                budget = _setting(value, 1, "set budget", line_no)
            else:
                raise ParseError(f"unknown setting {key!r}", line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if not vertices:
        raise ParseError("no vertices declared")
    try:
        quiver = Quiver(vertices, arrow_decls)
        order = AdmissibleOrder(quiver, order_names) if order_names else None
    except UsageError as exc:
        raise ParseError(str(exc)) from exc
    # one meaning per name: e<V> is the trivial path at V, and a name is at
    # most one of an arrow, a param and an unknown
    meaning = {f"e{v}": f"the trivial path at vertex {v}" for v in vertices}
    for role, names in (("an arrow", quiver.arrow_names()),
                        ("a param", params), ("an unknown", unknowns)):
        for name in names:
            if meaning.setdefault(name, role) != role:
                raise ParseError(f"name {name!r} is both {role} and {meaning[name]}")

    plain = ElementParser(quiver, params, unknowns, trunc=None)
    rules = []
    for line_no, lhs, rhs in rule_lines:
        rules.append(Rule(plain.parse_path(lhs, line_no),
                          plain.parse_element(rhs, line_no)))
    try:
        system = ReductionSystem(quiver, rules)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc

    deformed = ElementParser(quiver, params, unknowns, trunc=trunc)
    deform_values: dict[Path, Element] = {}
    for line_no, lhs, rhs in deform_lines:
        _put(deform_values, "deform", deformed, line_no, lhs, rhs)

    return ProblemFile(quiver=quiver, system=system, order=order,
                       params=params, unknowns=unknowns, trunc=trunc,
                       budget=budget, deform_values=deform_values)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

class Report:
    """Accumulates plain-text lines and the machine-readable document."""

    def __init__(self, command: str):
        self.lines: list[str] = []
        self.doc: dict = {"command": command}
        self.exit_code = EXIT_PASS

    def say(self, text: str):
        self.lines.append(text)

    def verdict(self, label: str, verdict: str | bool):
        """Report ``label: verdict``: the one place a verdict ("pass", "fail",
        "inconclusive", or a bool for pass/fail) becomes an exit code."""
        if isinstance(verdict, bool):
            verdict = "pass" if verdict else "fail"
        self.say(f"{label}: {verdict}")
        self.doc["verdict"] = verdict
        self.exit_code = _VERDICT_EXIT[verdict]

    def emit(self, out) -> int:
        for line in self.lines:
            print(line, file=out)
        print(json.dumps(self.doc, sort_keys=True), file=out)
        return self.exit_code


def _commutator_dimension(problem: ProblemFile) -> int:
    """The d for which the file is the d-variable commutator system."""
    quiver = problem.quiver
    names = sorted(quiver.arrow_names())
    d = len(names)
    if len(quiver._vertex_index) != 1 or names != sorted(f"x{i}" for i in
                                                         range(1, d + 1)):
        raise UsageError("quantize needs the commutator system on x1..xd")
    want = {(f"x{j}", f"x{i}") for j in range(2, d + 1) for i in range(1, j)}
    got = {rule.lhs.arrows: rule.rhs for rule in problem.system.rules}
    if set(got) != want:
        raise UsageError("quantize needs the rules x_j*x_i -> x_i*x_j, j > i")
    for (xj, xi), rhs in got.items():
        expected = Element.from_path(problem.quiver.path(xi, xj))
        if rhs != expected:
            raise UsageError("quantize needs the rules x_j*x_i -> x_i*x_j")
    return d


def _bivector_from_deform(problem: ProblemFile, d: int) -> PoissonBivector:
    """The part of the deform block linear in the deformation parameter, as a
    Poisson bivector.  The parameter is hbar when it is declared, otherwise
    the file's one parameter."""
    params = list(dict.fromkeys(problem.params))
    if HBAR not in params and len(params) != 1:
        raise UsageError("quantize jacobi needs the parameter hbar or a single "
                         "param; the file declares " + (", ".join(params) or "none"))
    param = HBAR if HBAR in params else params[0]
    entries: dict[tuple[int, int], Element] = {}
    for s, v in problem.deform_values.items():
        if s not in problem.system.by_lhs:
            raise UsageError(f"{s!r} is not a rule left side")
        j, i = int(s.arrows[0][1:]), int(s.arrows[1][1:])
        entries[(j, i)] = v.coefficient_of(param, 1)
    return PoissonBivector(d, entries, quiver=problem.quiver,
                           system=problem.system)


def _cmd_reduce(problem: ProblemFile, args, flags, report: Report):
    elem = problem.parser(None).parse_element(" ".join(args))
    nf = repr(reduce_full(elem, problem.system, problem.budget))
    report.say(f"normal form: {nf}")
    report.doc["normal_form"] = nf


def _cmd_diamond(problem: ProblemFile, args, flags, report: Report):
    result = check_diamond(problem.system, problem.budget)
    report.verdict("diamond", result.verdict)
    for amb, status, defect in result.statuses:
        word, defect = repr(amb.word), None if defect is None else repr(defect)
        report.doc.setdefault("ambiguities", []).append(
            {"word": word, "status": status, "defect": defect})
        if status == "failed":
            report.say(f"  {word}: defect {defect}")


def _cmd_ambiguities(problem: ProblemFile, args, flags, report: Report):
    S = problem.system.lhs_set()
    ambs = (ambiguities_n(S, _int_arg(args[0], "ambiguities n")) if args
            else overlaps(S))
    report.say(f"count: {len(ambs)}")
    report.doc["count"] = len(ambs)
    report.doc["words"] = []
    for amb in ambs:
        word, factors = repr(amb.word), " | ".join(repr(f) for f in amb.factors)
        report.say(f"  {word}  ({factors})")
        report.doc["words"].append(word)


def _name_the_bound(flag: str, run):
    """run(), with the library's refusal of an unbounded irreducible basis
    ("...; pass max_len") naming the flag that bounds it instead."""
    try:
        return run()
    except UsageError as exc:
        text = str(exc)
        if not text.endswith("; pass max_len"):
            raise
        raise UsageError(text.removesuffix("max_len") + flag) from None


def _cmd_irr(problem: ProblemFile, args, flags, report: Report):
    if flags.max_len is not None and flags.max_len < 0:
        raise UsageError("--max-len must be >= 0")
    paths = _name_the_bound("--max-len", lambda: irreducible_paths(
        problem.system.lhs_set(), problem.quiver, max_len=flags.max_len))
    report.say(f"count: {len(paths)}")
    report.doc["count"] = len(paths)
    report.doc["paths"] = names = [repr(p) for p in paths]
    for name in names:
        report.say(f"  {name}")


def _cmd_star(problem: ProblemFile, args, flags, report: Report):
    cochain = problem.cochain(flags.trunc)
    parser = problem.parser(cochain.trunc)
    a = parser.parse_element(args[0])
    b = parser.parse_element(args[1])
    result = repr(star(a, b, cochain, problem.budget))
    report.say(f"star: {result}")
    report.doc["star"] = result


def _cmd_mc(problem: ProblemFile, args, flags, report: Report):
    result = mc_check(problem.cochain(flags.trunc), problem.budget)
    report.verdict("maurer-cartan", result.verdict)
    report.doc["defects"] = []
    for w, d in result.defects:
        if not d.is_zero():
            w, d = repr(w), repr(d)
            report.say(f"  {w}: defect {d}")
            report.doc["defects"].append({"word": w, "defect": d})


def _cmd_gauge(problem: ProblemFile, args, flags, report: Report):
    text = _read_input(args[0])
    cochain = problem.cochain(flags.trunc)
    if not cochain.formal:
        raise UsageError("gauge needs a formal deform block (set trunc N, and "
                         "every deform value of positive parameter degree)")
    parser = problem.parser(cochain.trunc)
    values: dict[str, dict[Path, Element]] = {"gauge": {}, "deform": {}}
    for line_no, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        lhs, rhs = _split_rule(line_no, rest.strip())
        if head not in values:
            raise ParseError(f"unknown directive {head!r} in psi file",
                             line_no)
        _put(values[head], head, parser, line_no, lhs, rhs)
    psi = GaugeOnArrows(problem.system, values["gauge"])
    primed = DeformationCochain(problem.system, values["deform"],
                                trunc=cochain.trunc)
    report.verdict("gauge", gauge_check(psi, cochain, primed, problem.budget))


def _cmd_hh2(problem: ProblemFile, args, flags, report: Report):
    if flags.cap is not None and flags.cap < 0:
        raise UsageError("--cap must be >= 0")
    result = _name_the_bound("--cap", lambda: hh2(
        problem.system, bound=flags.cap, budget=problem.budget))
    report.say(f"dimension: {result.dimension}")
    report.doc["dimension"] = result.dimension
    report.doc["representatives"] = []
    for rep in result.representatives:
        entry = {repr(s): repr(v) for s, v in sorted(
            rep.items(), key=lambda kv: kv[0].sort_key())}
        report.doc["representatives"].append(entry)
        pretty = ", ".join(f"{s} -> {v}" for s, v in entry.items())
        report.say(f"  [{pretty}]")


def _cmd_variety(problem: ProblemFile, args, flags, report: Report):
    if flags.cond == "order":
        if problem.order is None:
            raise UsageError("--cond order needs an order block in the file")
        cond = order_condition(problem.order)
    else:
        cond = STRICT
    names = problem.unknowns or None
    eqs = mc_equations(problem.system, cond, names=names,
                       budget=problem.budget)
    report.doc["equations"] = texts = eqs.texts()
    if not texts:
        report.say("no equations (the variety is the whole space)")
    for text in texts:
        report.say(f"{text} = 0")


def _cmd_complete(problem: ProblemFile, args, flags, report: Report):
    if problem.order is None:
        raise UsageError("complete needs an order block in the file")
    parser = problem.parser(None)
    generators = []
    for line_no, line in _logical_lines(_read_input(args[0])):
        head, _, rest = line.partition(" ")
        if head != "rel":
            raise ParseError(f"unknown directive {head!r} in relations file",
                             line_no)
        generators.append(parser.parse_element(rest.strip(), line_no))
    system = complete(generators, problem.order,
                      budget=problem.budget)
    report.say(f"rules: {len(system.rules)}")
    report.doc["rules"] = []
    for rule in sorted(system.rules, key=lambda r: r.lhs.sort_key()):
        lhs, rhs = repr(rule.lhs), repr(rule.rhs)
        report.say(f"  {lhs} -> {rhs}")
        report.doc["rules"].append({"lhs": lhs, "rhs": rhs})


def _cmd_quantize(problem: ProblemFile, args, flags, report: Report):
    if not args:
        raise UsageError("quantize needs a subcommand: "
                         "jacobi | check | graphs k | compare")
    sub = args[0]
    cap = MAX_STRATUM if flags.cap is None else flags.cap
    if cap < 1:
        raise UsageError("--cap must be >= 1 for quantize")
    if sub == "graphs":
        graphs = enumerate_graphs(_int_arg(args[1], "quantize graphs k"),
                                  cap=cap)
        report.say(f"count: {len(graphs)}")
        report.doc["count"] = len(graphs)
        report.doc["graphs"] = [
            {"targets": g.targets, "orders": g.orders} for g in graphs]
        return
    d = _commutator_dimension(problem)
    if sub == "jacobi":
        eta = _bivector_from_deform(problem, d)
        result = schouten_jacobi_check(eta)
        report.verdict("jacobi", result.verdict)
        report.doc["defects"] = []
        for ijk, v in result.defects:
            if not v.is_zero():
                v = repr(v)
                report.say(f"  {ijk}: {v}")
                report.doc["defects"].append({"indices": list(ijk), "defect": v})
    elif sub == "check":
        result = quantize_check(problem.cochain(flags.trunc),
                                budget=problem.budget)
        report.verdict("associativity", result.verdict)
    elif sub == "compare":
        cochain = problem.cochain(flags.trunc)
        default = min(cochain.trunc, 3) if cochain.formal else 3
        trunc = default if flags.trunc is None else flags.trunc
        monos = _monomials_up_to(problem.quiver, d, 2)
        mismatches = quantize_compare(cochain, monos, trunc, cap, problem.budget)
        report.verdict(f"compare ({len(monos) ** 2} pairs, order {trunc})",
                       not mismatches)
        report.doc["pairs"] = len(monos) ** 2
        report.doc["mismatches"] = [[repr(f), repr(g)] for f, g in mismatches]
    else:
        raise UsageError(f"unknown quantize subcommand {sub!r}")


def _monomials_up_to(quiver: Quiver, d: int, degree: int) -> list[Element]:
    return [monomial(quiver, e)
            for e in itertools.product(range(degree + 1), repeat=d)
            if sum(e) <= degree]


# the positional arguments of each command, and of each quantize subcommand
# after its name: (fewest, most, what they are); reduce reads all of its
# arguments as one element, so it takes any number
_ARITY = {
    "diamond": (0, 0, "no arguments"),
    "ambiguities": (0, 1, "at most one argument, n"),
    "irr": (0, 0, "no arguments"),
    "star": (2, 2, "exactly two element arguments"),
    "mc": (0, 0, "no arguments"),
    "gauge": (1, 1, "one psi-file argument"),
    "hh2": (0, 0, "no arguments"),
    "variety": (0, 0, "no arguments"),
    "complete": (1, 1, "one relations-file argument"),
    "quantize graphs": (1, 1, "the stratum k"),
    "quantize jacobi": (0, 0, "no further arguments"),
    "quantize check": (0, 0, "no further arguments"),
    "quantize compare": (0, 0, "no further arguments"),
}


def _check_arity(command: str, args: list[str]) -> None:
    """Raise the usage error naming the command (or quantize subcommand)
    when it is given too few or too many positional arguments.  A quantize
    without a known subcommand is left to ``_cmd_quantize``."""
    if command == "quantize" and args and f"quantize {args[0]}" in _ARITY:
        command, args = f"quantize {args[0]}", args[1:]
    if command in _ARITY:
        fewest, most, what = _ARITY[command]
        if not fewest <= len(args) <= most:
            raise UsageError(f"{command} takes {what}")


_COMMANDS = {
    "reduce": _cmd_reduce,
    "diamond": _cmd_diamond,
    "ambiguities": _cmd_ambiguities,
    "irr": _cmd_irr,
    "star": _cmd_star,
    "mc": _cmd_mc,
    "gauge": _cmd_gauge,
    "hh2": _cmd_hh2,
    "variety": _cmd_variety,
    "complete": _cmd_complete,
    "quantize": _cmd_quantize,
}


def _read_input(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{source}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error, with the JSON last line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache  # one parser per process, built on first use: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pathalg",
        description="Exact deformations of path algebras via reduction "
                    "systems.")
    parser.add_argument("file", help="problem file, or - for stdin")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("args", nargs="*",
                        help="command arguments (elements, files, k)")
    parser.add_argument("--trunc", type=int, default=None,
                        help="override the truncation order")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the reduction budget")
    parser.add_argument("--cond", choices=["strict", "order"],
                        default="strict", help="variety degree condition")
    parser.add_argument("--cap", type=int, default=None,
                        help="length bound (hh2) or graph-stratum cap")
    parser.add_argument("--max-len", type=int, default=None,
                        help="length bound for irr")
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    command = None
    try:
        try:
            flags = _build_parser().parse_args(argv)
        except SystemExit:  # --help; bad arguments raise UsageError
            return EXIT_PASS
        command = flags.command
        report = Report(command)
        if flags.budget is not None and flags.budget < 1:
            raise UsageError("--budget must be >= 1")
        if flags.trunc is not None and flags.trunc < 0:
            raise UsageError("--trunc must be >= 0")
        problem = parse_problem(_read_input(flags.file))
        if flags.budget is not None:
            problem.budget = flags.budget
        _check_arity(command, flags.args)
        _COMMANDS[flags.command](problem, flags.args, flags, report)
    except (ParseError, UsageError, OSError) as exc:
        code, text, doc = EXIT_USAGE, f"error: {exc}", {"error": str(exc)}
    except BudgetExceeded as exc:
        code, text = EXIT_BUDGET, f"budget exhausted after {exc.steps} reductions"
        doc = {"error": "budget exhausted", "steps": exc.steps}
    except CompletionError as exc:
        code, text = EXIT_BUDGET, f"completion did not converge: {exc}"
        doc = {"error": "completion did not converge"}
    except Exception as exc:  # a bug in pathalg, not in the input
        traceback.print_exc(file=sys.stderr)
        text = f"internal error: {type(exc).__name__}: {exc}"
        code, doc = EXIT_INTERNAL, {"error": text}
    else:
        return report.emit(out)
    print(text, file=out)
    print(json.dumps({"command": command, **doc}, sort_keys=True), file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
