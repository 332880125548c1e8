"""Property test: every CLI run keeps the exit-code contract.

Problem files are drawn from a small grammar (vertices, arrows, params,
unknowns with ``_z`` among them, orders, rules, deforms and settings) with
bad tokens mixed in: zero denominators, negative and non-integer settings,
unknown arrows and vertices, undeclared symbols.  Commands, their arguments
and the flags are drawn too.  Every run through ``cli.main`` must return 0,
1, 2 or 3, print a last line that parses as JSON, and raise nothing.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from pathalg.cli import main

ARROWS = {"x1": "arrow x1 : 0 -> 0", "x2": "arrow x2 : 0 -> 0",
          "x3": "arrow x3 : 0 -> 0", "a": "arrow a : 0 -> 1",
          "b": "arrow b : 1 -> 0"}
BAD_LINES = ["arrow c : 0 -> 7", "arrow x1 0 0", "frobnicate x1",
             "order x1 <", "set frob 1", "rule x2*x1", "vertex",
             "arrow e0 : 0 -> 0"]

# valid tokens come first (hypothesis leans to the first choices) and are
# listed more often than bad ones, so most files parse and runs reach the
# commands
letters = st.sampled_from(["x1", "x2", "x3", "x1", "x2", "a", "b", "zz"])
word = st.lists(letters, min_size=1, max_size=3).map("*".join)
coeff = st.sampled_from(["", "", "", "2", "-1", "1/3", "hbar", "hbar", "lam",
                         "_z", "t^2", "1/0", "7/0", "0/5", "q", "2.5", "mu^0"])
term = st.tuples(coeff, st.one_of(word, st.sampled_from(["e0", "e1", "e9"])))
element = st.one_of(
    st.just("0"),
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), term),
             min_size=1, max_size=3).map(lambda ts: "".join(
                 s + "*".join(x for x in t if x) for s, t in ts).lstrip(" +")))
setting_value = st.sampled_from(["2", "3", "1", "5", "0", "-1", "abc", "1.5"])
line = st.one_of(
    st.tuples(word, element).map(lambda we: f"rule {we[0]} -> {we[1]}"),
    st.tuples(word, element).map(lambda we: f"deform {we[0]} -> {we[1]}"),
    st.sampled_from(["order", "order x1 < x2 < x3"]),
    st.tuples(st.sampled_from(["trunc", "budget"]), setting_value).map(
        lambda kv: f"set {kv[0]} {kv[1]}"),
    st.sampled_from(BAD_LINES))

# files on the d-variable commutator system, so that `quantize` gets past
# its shape check and reaches the graph expansion; the deform sides after
# the valid x_j*x_i are no rule left side
BAD_SIDES = ["x2", "x1*x1", "x2*x1*x1"]


def _commutator_file(d: int, deforms: dict[str, str]) -> str:
    return "\n".join(
        ["vertex 0", "param hbar", "unknown lam _z", "set trunc 2"]
        + [f"arrow x{i} : 0 -> 0" for i in range(1, d + 1)]
        + [f"rule x{j}*x{i} -> x{i}*x{j}" for j in range(2, d + 1)
           for i in range(1, j)]
        + [f"deform {s} -> {v}" for s, v in deforms.items()])


commutator = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(st.sampled_from([f"x{j}*x{i}" for j in range(2, d + 1)
                               for i in range(1, j)] + BAD_SIDES),
              st.sampled_from(["hbar*x1", "-hbar*e0", "1/2*hbar*x1*x2",
                               "hbar*x1 + lam*hbar*e0", "_z*hbar*x1", "hbar*x2*x2",
                               "3/0*hbar*x1", "hbar*x9", "x1"])),
    max_size=3).map(lambda deforms: _commutator_file(d, dict(deforms))))


def _file(header, arrows, lines):
    # a bare "order" line orders the declared arrows
    order = "order " + " < ".join(arrows)
    return "\n".join(header + [ARROWS[a] for a in arrows]
                     + [order if ln == "order" else ln for ln in lines])


random_file = st.builds(
    _file,
    st.sampled_from([["vertex 0 1", "param hbar t", "unknown lam mu _z"]] * 3
                    + [[], ["vertex 0"], ["vertex 0 1", "param hbar"]]),
    st.lists(st.sampled_from(sorted(ARROWS)), min_size=1, max_size=5,
             unique=True),
    st.lists(line, max_size=5))

number = st.sampled_from(["1", "2", "3", "0", "5", "-1", "abc"])
side_file = st.lists(st.one_of(
    st.tuples(st.sampled_from(["rel", "gauge", "deform", "bogus"]),
              word, element).map(
        lambda hwe: f"{hwe[0]} {hwe[2]}" if hwe[0] == "rel"
        else f"{hwe[0]} {hwe[1]} -> {hwe[2]}")), max_size=3).map("\n".join)
command = st.one_of(
    st.tuples(st.just("reduce"), element).map(list),
    st.tuples(st.just("star"), element, element).map(list),
    # hh2 always gets a length bound: without one, an infinite-dimensional
    # algebra runs into the irreducible-path safety cap, which takes seconds
    st.sampled_from([["mc"], ["diamond"], ["ambiguities"], ["irr"],
                     ["hh2", "--cap", "1"], ["hh2", "--cap", "2"],
                     ["variety"], ["quantize"], ["quantize", "jacobi"],
                     ["quantize", "check"], ["quantize", "compare"],
                     ["quantize", "frob"], ["quantize", "graphs"],
                     ["complete", "SIDE"], ["gauge", "SIDE"], ["gauge"],
                     ["frobnicate"]]),
    st.tuples(st.sampled_from(["ambiguities", "quantize graphs"]),
              number).map(lambda cn: [*cn[0].split(), cn[1]]))
flags = st.tuples(
    # a budget is always given, so no run can take the default 10^6 steps
    st.sampled_from(["400", "60", "5", "400", "1", "400", "60", "0", "-1"]),
    st.sampled_from([[], ["--trunc", "2"], [], ["--trunc", "0"], [],
                     ["--trunc", "-1"]]),
    st.sampled_from([[], ["--cap", "2"], ["--cap", "1"], ["--cap", "0"],
                     ["--cap", "-1"]]),
    st.sampled_from([[], ["--cond", "order"]]),
    # irr always gets a length bound, for the same reason as hh2
    st.sampled_from([["--max-len", "3"], ["--max-len", "0"],
                     ["--max-len", "-1"]])).map(
        lambda f: ["--budget", f[0], *f[1], *f[2], *f[3], *f[4]])


def _bad_side_examples(test):
    """Every run sends each quantize command that reads the deform block a
    commutator file whose deform side is no rule left side, next to a valid
    one; drawn, that takes a commutator file, the command and a --cap other
    than 0 or -1 at once, which 150 examples rarely meet."""
    for side in BAD_SIDES:
        text = _commutator_file(2, {"x2*x1": "hbar*x1", side: "hbar*x2"})
        for sub in ("jacobi", "check", "compare"):
            test = example(text=text, cmd=["quantize", sub], side="",
                           opts=["--budget", "400", "--max-len", "3"])(test)
    return test


@_bad_side_examples
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(random_file, commutator), cmd=command, side=side_file,
       opts=flags)
def test_every_run_keeps_the_exit_code_contract(text, cmd, side, opts):
    with tempfile.TemporaryDirectory() as tmp:
        problem, extra = Path(tmp, "problem.txt"), Path(tmp, "side.txt")
        problem.write_text(text + "\n")
        extra.write_text(side + "\n")
        argv = [str(problem), *(str(extra) if a == "SIDE" else a
                                for a in cmd), *opts]
        buf = io.StringIO()
        code = main(argv, out=buf)
    assert code in (0, 1, 2, 3)
    lines = buf.getvalue().strip().splitlines()
    assert lines, "no output"
    json.loads(lines[-1])
