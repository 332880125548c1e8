"""Per-job oracles, run after timing, and the corruptions that prove them live.

Each oracle recomputes the answer by a route independent of the command it
checks: the graph expansion for commutator star products and MC verdicts, a
small word rewriter for the formal lam/mu quiver, the HKR count for hh2, the
Jacobi identity for diamond and variety points, sorted words for normal forms
of commutation rules, and the known completed system for ``complete``.

Import this module only after ``pathalg`` has been loaded for the run, so
that it binds the same module objects the jobs use.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from pathalg.cli import ElementParser, parse_problem
from pathalg.quantization import graphical_star
from pathalg.quiver_core import Element, PolyScalar
from pathalg.reduction_engine import check_diamond

EXPECTED_EXIT = {"pass": 0, "fail": 1}


def last_json(text: str):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


# ---------------------------------------------------------------------------
# polynomial strings as printed by PolyScalar.__repr__

_RATIONAL = re.compile(r"^\d+(/\d+)?$")


def parse_poly(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """'c1*c2^2 - 3/2*c3 + 1' -> {monomial: coefficient}."""
    out: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        mono: dict[str, int] = {}
        for factor in term.split("*"):
            if _RATIONAL.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            if not re.match(r"^[A-Za-z_]\w*$", name):
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            mono[name] = mono.get(name, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, 0) + coeff
    return out


def evaluate(poly, point: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        term = c
        for name, e in mono:
            term *= point[name] ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# the formal lam/mu quiver: every rewrite keeps a single term

_LAMMU_RULES = {("x", "y1"): (("x", "y2"), "lam"),
                ("y2", "z"): (("y1", "z"), "mu")}


def lammu_normal_form(word: tuple[str, ...], trunc: int):
    """Right-most rewriting of one path; None once the degree passes trunc."""
    powers = {"lam": 0, "mu": 0}
    while True:
        pos = next((p for p in range(len(word) - 2, -1, -1)
                    if word[p:p + 2] in _LAMMU_RULES), None)
        if pos is None:
            return word, powers["lam"], powers["mu"]
        replacement, param = _LAMMU_RULES[word[pos:pos + 2]]
        word = word[:pos] + replacement + word[pos + 2:]
        powers[param] += 1
        if powers["lam"] + powers["mu"] > trunc:
            return None


class Oracles:
    """Checks job outputs; expected values are computed once per job."""

    def __init__(self, files: dict[str, str]):
        self.files = files
        self._problems: dict[str, tuple] = {}
        self._expected: dict[int, object] = {}
        self._diamond: dict[str, str] = {}

    def _problem(self, name: str):
        if name not in self._problems:
            prob = parse_problem(self.files[name])
            cochain = prob.cochain() if prob.deform_values else None
            self._problems[name] = (prob, cochain)
        return self._problems[name]

    def _expect(self, key: int, job):
        """The recomputed answer for job number ``key`` of the round."""
        if key not in self._expected:
            self._expected[key] = getattr(self, f"_expect_{job.kind}")(job)
        return self._expected[key]

    # -- expected values ----------------------------------------------------
    def _expect_star(self, job):
        prob, cochain = self._problem(job.problem)
        if job.expect["oracle"] == "lammu":
            e = job.expect
            (ca, left), (cb, right) = e["a"], e["b"]
            nf = lammu_normal_form(tuple(left) + tuple(right), e["trunc"])
            if nf is None:
                return "0"
            word, i, j = nf
            mono = tuple(p for p in (("lam", i), ("mu", j)) if p[1])
            coeff = ca * cb * e["lam"] ** i * e["mu"] ** j
            return repr(Element.from_path(prob.quiver.path(*word),
                                          PolyScalar({mono: coeff})))
        parser = ElementParser(prob.quiver, prob.params, prob.unknowns,
                               trunc=cochain.trunc)
        a = parser.parse_element(job.args[1])
        b = parser.parse_element(job.args[2])
        return repr(graphical_star(a, b, cochain, trunc=cochain.trunc))

    def _expect_mc(self, job):
        prob, cochain = self._problem(job.problem)
        q = prob.quiver
        x1, x2, x3 = (Element.from_path(q.path(f"x{i}")) for i in (1, 2, 3))

        def gstar(f, g):
            return graphical_star(f, g, cochain, trunc=cochain.trunc)

        assoc = gstar(gstar(x3, x2), x1) - gstar(x3, gstar(x2, x1))
        if assoc.is_zero():
            return "pass", []
        return "fail", [{"word": "x3*x2*x1", "defect": repr(assoc)}]

    def _expect_reduce(self, job):
        prob, _ = self._problem(job.problem)
        q = prob.quiver
        out = Element.zero(q)
        for word, c in job.expect["terms"].items():
            out = out + Element.from_path(q.path(*word), PolyScalar.rational(c))
        return repr(out)

    def _expect_complete(self, job):
        text = job.expect["system"]
        if text not in self._diamond:
            self._diamond[text] = check_diamond(parse_problem(text).system).verdict
        return self._diamond[text]

    # -- checks ---------------------------------------------------------------
    def check(self, key: int, job, code, text: str, error) -> str | None:
        """None when the output is right, else the reason it is not."""
        if error is not None:
            return "raised: " + error.strip().splitlines()[-1]
        if code == 3:
            return "budget exhausted or did not converge"
        doc = last_json(text)
        if doc is None:
            return "no JSON last line"
        if "error" in doc:
            return f"exit {code}: {doc['error']}"
        return getattr(self, f"_check_{job.kind}")(key, job, code, doc)

    def _check_star(self, key, job, code, doc):
        want = self._expect(key, job)
        if code != 0 or doc.get("star") != want:
            return f"star {doc.get('star')!r} (exit {code}), expected {want!r}"
        return None

    def _check_mc(self, key, job, code, doc):
        verdict, defects = self._expect(key, job)
        if (doc.get("verdict"), doc.get("defects"), code) != \
                (verdict, defects, EXPECTED_EXIT[verdict]):
            return (f"mc {doc.get('verdict')} {doc.get('defects')} (exit "
                    f"{code}), expected {verdict} {defects}")
        return None

    def _check_hh2(self, key, job, code, doc):
        dim = job.expect["dim"]
        reps = doc.get("representatives")
        if code != 0 or doc.get("dimension") != dim or \
                not isinstance(reps, list) or len(reps) != dim:
            return f"hh2 dimension {doc.get('dimension')} (exit {code}), " \
                   f"expected {dim}"
        return None

    def _check_compare(self, key, job, code, doc):
        pairs = job.expect["pairs"]
        if (code, doc.get("verdict"), doc.get("mismatches"),
                doc.get("pairs")) != (0, "pass", [], pairs):
            return f"compare {doc.get('verdict')} over {doc.get('pairs')} " \
                   f"pairs, mismatches {doc.get('mismatches')} (exit {code})"
        return None

    def _check_variety(self, key, job, code, doc):
        e = job.expect
        eqs = doc.get("equations")
        if code != 0 or not isinstance(eqs, list) or not eqs:
            return f"variety gave no equations (exit {code})"
        try:
            polys = [parse_poly(p) for p in eqs]
            zero = {n: Fraction(0) for n in e["names"]}
            for point in [zero] + e["on"]:
                if any(evaluate(p, point) != 0 for p in polys):
                    return "an equation does not vanish on a point of the " \
                           "variety"
            for point in e["off"]:
                if all(evaluate(p, point) == 0 for p in polys):
                    return "all equations vanish off the variety"
        except (ValueError, KeyError) as exc:
            return f"unreadable equation: {exc}"
        return None

    def _check_complete(self, key, job, code, doc):
        rules = doc.get("rules")
        if code != 0 or not isinstance(rules, list):
            return f"complete gave no rules (exit {code})"
        got = {(r.get("lhs"), r.get("rhs")) for r in rules}
        if len(got) != len(rules) or got != job.expect["rules"]:
            return f"complete gave {sorted(got)}, expected " \
                   f"{sorted(job.expect['rules'])}"
        if self._expect(key, job) != "pass":
            return "the known completed system fails the diamond check"
        return None

    def _check_diamond(self, key, job, code, doc):
        want = job.expect["verdict"]
        if (doc.get("verdict"), code) != (want, EXPECTED_EXIT[want]):
            return f"diamond {doc.get('verdict')} (exit {code}), expected {want}"
        return None

    def _check_reduce(self, key, job, code, doc):
        want = self._expect(key, job)
        if code != 0 or doc.get("normal_form") != want:
            return f"normal form {doc.get('normal_form')!r} (exit {code}), " \
                   f"expected {want!r}"
        return None


# ---------------------------------------------------------------------------
# deliberate corruptions: each oracle must reject them


def _scaled(text: str) -> str:
    """The same element with its first coefficient changed."""
    return "x1" if text == "0" else "2*" + text


def _flip(doc: dict) -> tuple[dict, int]:
    flipped = "fail" if doc.get("verdict") == "pass" else "pass"
    return dict(doc, verdict=flipped), EXPECTED_EXIT[flipped]


def corrupt(kind: str, code: int, doc: dict) -> tuple[dict, int]:
    doc = json.loads(json.dumps(doc))
    if kind == "star":
        doc["star"] = _scaled(doc["star"])
    elif kind == "reduce":
        doc["normal_form"] = _scaled(doc["normal_form"])
    elif kind in ("mc", "diamond"):
        doc, code = _flip(doc)
    elif kind == "hh2":
        doc["dimension"] += 1
    elif kind == "compare":
        doc["pairs"] -= 1
    elif kind == "variety":
        doc["equations"][0] += " + 1"
    elif kind == "complete":
        doc["rules"] = doc["rules"][:-1]
    return doc, code


def with_doc(text: str, doc: dict) -> str:
    lines = text.strip().splitlines()[:-1]
    return "\n".join(lines + [json.dumps(doc, sort_keys=True)]) + "\n"
