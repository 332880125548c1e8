"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import io
import json
import time
from decimal import Decimal

import pytest

from pathalg import cli
from pathalg.cli import ElementParser, main
from pathalg.quiver_core import Element, PolyScalar, Quiver

COMM3 = """
vertex 0
arrow x1 : 0 -> 0
arrow x2 : 0 -> 0
arrow x3 : 0 -> 0
rule x2*x1 -> x1*x2
rule x3*x1 -> x1*x3
rule x3*x2 -> x2*x3
"""

TWO_CYCLE = """
vertex 1 2
arrow a : 1 -> 2
arrow b : 2 -> 1
param t
set trunc 3
rule a*b -> 0
rule b*a -> 0
deform a*b -> t*e1
deform b*a -> {ba}
"""

NF_SYMBOLIC = """
vertex 1 2 3 4
arrow x : 1 -> 2
arrow y1 : 2 -> 3
arrow y2 : 2 -> 3
arrow z : 3 -> 4
arrow w : 2 -> 4
unknown lam mu
rule x*y1 -> 0
rule y2*z -> 0
deform x*y1 -> lam*x*y2
deform y2*z -> mu*y1*z
set budget 500
"""

POISSON = """
vertex 0
arrow x1 : 0 -> 0
arrow x2 : 0 -> 0
arrow x3 : 0 -> 0
param hbar
unknown lam
rule x2*x1 -> x1*x2
rule x3*x1 -> x1*x3
rule x3*x2 -> x2*x3
set trunc 4
deform x3*x2 -> -hbar*x1*x1 - lam*hbar*x2*x3
"""


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def last_json(output):
    return json.loads(output.strip().splitlines()[-1])


@pytest.fixture
def comm3(tmp_path):
    p = tmp_path / "comm3.txt"
    p.write_text(COMM3)
    return str(p)


class TestReduce:
    def test_normal_form(self, comm3):
        code, out = run([comm3, "reduce", "x3*x2*x1"])
        assert code == 0
        assert last_json(out)["normal_form"] == "x1*x2*x3"

    def test_json_is_last_line(self, comm3):
        _, out = run([comm3, "reduce", "x2*x1 + x1*x2"])
        doc = last_json(out)
        assert doc["command"] == "reduce"
        assert doc["normal_form"] == "2*x1*x2"


class TestVerdictExitCodes:
    def _two_cycle(self, tmp_path, ba):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba=ba))
        return str(p)

    def test_mc_pass(self, tmp_path):
        f = self._two_cycle(tmp_path, "t*e2")
        code, out = run([f, "mc"])
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_mc_fail(self, tmp_path):
        f = self._two_cycle(tmp_path, "0")
        code, out = run([f, "mc"])
        assert code == 1
        doc = last_json(out)
        assert doc["verdict"] == "fail"
        assert doc["defects"]

    def test_diamond_pass(self, comm3):
        code, out = run([comm3, "diamond"])
        assert code == 0
        assert last_json(out)["verdict"] == "pass"


class TestBudgetExit:
    def test_divergent_star_exits_3(self, tmp_path):
        p = tmp_path / "nf.txt"
        p.write_text(NF_SYMBOLIC)
        code, out = run([str(p), "star", "x", "y1*z"])
        assert code == 3
        doc = last_json(out)
        assert doc["error"] == "budget exhausted"
        assert doc["steps"] >= 500


class TestUsageErrors:
    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("vertex 0\nfrobnicate x\n")
        code, out = run([str(p), "irr"])
        assert code == 2
        assert "error" in last_json(out)

    def test_missing_file_exits_2(self):
        code, _ = run(["/nonexistent/file.txt", "irr"])
        assert code == 2

    def test_unknown_command_exits_2(self, comm3):
        code, _ = run([comm3, "frobnicate"])
        assert code == 2

    def test_undeclared_symbol_exits_2(self, comm3):
        code, out = run([comm3, "reduce", "q*x1"])
        assert code == 2

    @pytest.mark.parametrize("args", [["x1 - -x1"], ["--", "--x1"]])
    def test_repeated_sign_exits_2(self, comm3, args):
        """A term takes at most one sign: the tokenizer refuses a second."""
        code, out = run([comm3, "reduce", *args])
        assert code == 2
        assert last_json(out)["error"] == f"cannot tokenize element {args[-1]!r}"

    @pytest.mark.parametrize("unknowns, error", [
        ("a", "1 unknown name for 3 basis pairs"),
        ("a b c d", "4 unknown names for 3 basis pairs"),
        ("a b a", "unknown name 'a' is given twice"),
    ])
    def test_variety_unknown_names_exit_2(self, tmp_path, unknowns, error):
        """y*x has three strict basis pairs (targets e0, x, y): a wrong count
        and a repeated name each get their own message."""
        p = tmp_path / "yx.txt"
        p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\n"
                     f"unknown {unknowns}\nrule y*x -> x*y\n")
        code, out = run([str(p), "variety"])
        assert code == 2
        assert last_json(out)["error"] == error


class TestDeterminism:
    def test_byte_identical_runs(self, comm3):
        _, out1 = run([comm3, "reduce", "x3*x2*x1 + 2*x2*x1"])
        _, out2 = run([comm3, "reduce", "x3*x2*x1 + 2*x2*x1"])
        assert out1 == out2

    def test_threads_flag_is_rejected(self, comm3):
        code, out = run([comm3, "--threads", "4", "reduce", "x2*x1"])
        assert code == 2
        assert last_json(out)["command"] is None


class TestStdin:
    def test_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(COMM3))
        code, out = run(["-", "irr", "--max-len", "1"])
        assert code == 0
        assert last_json(out)["count"] == 4  # e0, x1, x2, x3


class TestCommands:
    def test_irr_counts_nf_example(self, tmp_path):
        p = tmp_path / "nf.txt"
        p.write_text(NF_SYMBOLIC)
        code, out = run([str(p), "irr"])
        assert code == 0
        assert last_json(out)["count"] == 12

    def test_ambiguities(self, comm3):
        code, out = run([comm3, "ambiguities"])
        assert code == 0
        assert last_json(out)["count"] == 1
        assert last_json(out)["words"] == ["x3*x2*x1"]

    def test_star_with_trunc_flag(self, tmp_path):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba="t*e2"))
        code, out = run([str(p), "star", "a", "b"])
        assert code == 0
        assert last_json(out)["star"] == "t*e1"

    def test_variety_two_cycle(self, tmp_path):
        p = tmp_path / "tc.txt"
        text = TWO_CYCLE.format(ba="mu*e2").replace("param t", "unknown lam mu")
        text = text.replace("deform a*b -> t*e1", "deform a*b -> lam*e1")
        p.write_text(text)
        code, out = run([str(p), "variety"])
        assert code == 0
        assert last_json(out)["equations"] == ["lam - mu"]

    def test_hh2_dimension(self, tmp_path):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba="t*e2"))
        code, out = run([str(p), "hh2"])
        assert code == 0
        assert last_json(out)["dimension"] == 1

    def test_quantize_graphs(self, comm3):
        code, out = run([comm3, "quantize", "graphs", "2"])
        assert code == 0
        assert last_json(out)["count"] == 6

    def test_quantize_jacobi_and_check(self, tmp_path):
        p = tmp_path / "poisson.txt"
        p.write_text(POISSON)
        code, out = run([str(p), "quantize", "jacobi"])
        assert code == 0
        assert last_json(out)["verdict"] == "pass"
        code, out = run([str(p), "quantize", "check"])
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_quantize_rejects_non_commutator(self, tmp_path):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba="t*e2"))
        code, _ = run([str(p), "quantize", "jacobi"])
        assert code == 2

    def test_unicode_parameter_aliases(self, tmp_path):
        p = tmp_path / "uni.txt"
        text = TWO_CYCLE.format(ba="t*e2").replace("param t", "param λ")
        text = text.replace("t*e1", "λ*e1").replace("t*e2", "λ*e2")
        p.write_text(text)
        code, out = run([str(p), "mc"])
        assert code == 0
        assert last_json(out)["verdict"] == "pass"


class TestFlagValidation:
    """Invalid flags and settings exit 2 instead of turning into defaults."""

    @pytest.fixture
    def deformed(self, tmp_path):
        p = tmp_path / "deformed.txt"
        p.write_text(POISSON)
        return str(p)

    @pytest.mark.parametrize("flag", [["--budget", "0"], ["--budget", "-4"],
                                      ["--trunc", "-1"]])
    def test_bad_flag_exits_2(self, deformed, flag):
        code, out = run([deformed, "star", "x2*x2", "x1", *flag])
        assert code == 2
        assert "error" in last_json(out)

    def test_budget_one_still_exhausts(self, deformed):
        code, out = run([deformed, "star", "x3*x2", "x1", "--budget", "1"])
        assert code == 3
        assert last_json(out) == {"command": "star", "error": "budget exhausted",
                                  "steps": 1}

    def test_budget_flag_overrides_file(self, tmp_path):
        p = tmp_path / "nf.txt"
        p.write_text(NF_SYMBOLIC)
        code, out = run([str(p), "star", "x", "y1*z", "--budget", "40"])
        assert code == 3
        assert last_json(out)["steps"] == 40

    @pytest.mark.parametrize("args", [["graphs", "2"], ["compare"]])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_quantize_cap_below_one_exits_2(self, deformed, args, cap):
        code, out = run([deformed, "quantize", *args, "--cap", cap])
        assert code == 2
        assert last_json(out)["error"] == "--cap must be >= 1 for quantize"

    def test_hh2_cap_zero_is_a_length_bound(self, tmp_path):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba="t*e2"))
        code, out = run([str(p), "hh2", "--cap", "0"])
        assert code == 0
        assert last_json(out)["dimension"] == 1

    @pytest.mark.parametrize("command, flag", [("hh2", "--cap"), ("irr", "--max-len")])
    def test_negative_length_bound_names_the_flag(self, tmp_path, command, flag):
        p = tmp_path / "tc.txt"
        p.write_text(TWO_CYCLE.format(ba="t*e2"))
        code, out = run([str(p), command, flag, "-1"])
        assert code == 2
        assert last_json(out)["error"] == f"{flag} must be >= 0"

    @pytest.mark.parametrize("setting", ["set trunc abc", "set trunc -1",
                                         "set budget 0"])
    def test_bad_setting_exits_2_with_line(self, tmp_path, setting):
        p = tmp_path / "bad.txt"
        p.write_text(f"vertex 0\n{setting}\n")
        code, out = run([str(p), "irr"])
        assert code == 2
        assert last_json(out)["error"].startswith("line 2: ")


class TestNumericArguments:
    """Zero denominators and non-integer arguments are usage errors."""

    def test_zero_denominator_argument_exits_2(self, comm3):
        code, out = run([comm3, "reduce", "1/0*x1"])
        assert code == 2
        assert last_json(out)["error"] == "zero denominator in factor '1/0'"

    @pytest.mark.parametrize("rule, deform, args, error", [
        ("1/0*x1*x2", "hbar*e0", ["diamond"], "line 5: zero denominator in "
         "factor '1/0'"),
        ("x1*x2", "3/0*hbar*x1", ["quantize", "compare"], "line 6: zero "
         "denominator in factor '3/0'")])
    def test_zero_denominator_in_file_exits_2(self, tmp_path, rule, deform,
                                              args, error):
        p = tmp_path / "zero.txt"
        p.write_text("vertex 0\narrow x1 : 0 -> 0\narrow x2 : 0 -> 0\n"
                     f"param hbar\nrule x2*x1 -> {rule}\n"
                     f"deform x2*x1 -> {deform}\n")
        code, out = run([str(p), *args])
        assert code == 2
        assert last_json(out)["error"] == error

    @pytest.mark.parametrize("args, what", [
        (["quantize", "graphs", "abc"], "quantize graphs k"),
        (["ambiguities", "abc"], "ambiguities n"),
        (["ambiguities", "1.5"], "ambiguities n")])
    def test_integer_argument_exits_2(self, comm3, args, what):
        code, out = run([comm3, *args])
        assert code == 2
        value = args[-1]
        assert last_json(out)["error"] == \
            f"{what} needs an integer, got '{value}'"

    def test_bad_command_line_keeps_json_last_line(self, comm3):
        code, out = run([comm3, "reduce", "-1*x1"])
        assert code == 2
        assert last_json(out) == {"command": None, "error":
                                  "unrecognized arguments: -1*x1"}

    def test_one_parser_serves_every_call(self, comm3, capsys, monkeypatch):
        """main reuses one parser per process: after a usage error and after
        --help every call still prints what a freshly built parser gives."""
        calls = [[comm3, "reduce", "x3*x2*x1"], [comm3, "frobnicate"],
                 [comm3, "reduce", "x2*x1", "--budget", "x"], ["--help"],
                 [comm3, "reduce", "-1*x1"], [comm3, "irr", "--max-len", "1"],
                 [comm3, "hh2", "--cap", "1"], [comm3, "diamond"],
                 [comm3, "reduce", "x3*x2*x1"]]
        shared = [(*run(argv), *capsys.readouterr()) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [(*run(argv), *capsys.readouterr()) for argv in calls]
        assert shared == fresh
        assert [code for code, *_ in shared] == [0, 2, 2, 0, 2, 0, 0, 0, 0]
        assert "usage: pathalg" in shared[3][2]


@pytest.mark.parametrize("command", ["irr", "hh2"])
def test_infinite_basis_exits_2_at_once(tmp_path, command):
    # the commutator algebra in 2 variables has infinitely many irreducible
    # paths; without --max-len / --cap it is rejected without listing them
    p = tmp_path / "comm2.txt"
    p.write_text("vertex 0\narrow x1 : 0 -> 0\narrow x2 : 0 -> 0\n"
                 "rule x2*x1 -> x1*x2\n")
    start = time.perf_counter()
    code, out = run([str(p), command])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = last_json(out)["error"]
    assert "finite irreducible basis" in error
    assert error.endswith({"irr": "; pass --max-len", "hh2": "; pass --cap"}[command])


@pytest.mark.parametrize("command", ["irr", "hh2"])
def test_large_finite_basis_says_why_it_is_refused(tmp_path, command):
    # a 12-vertex chain with three parallel arrows per step: the basis is
    # shown finite at once, but it has about 3^11 paths
    lines = ["vertex " + " ".join(str(i) for i in range(12))]
    lines += [f"arrow a{i}_{k} : {i} -> {i + 1}" for i in range(11) for k in range(3)]
    p = tmp_path / "chain.txt"
    p.write_text("\n".join(lines + ["rule a0_0*a1_0 -> 0"]) + "\n")
    code, out = run([str(p), command])
    assert code == 2
    flag = {"irr": "--max-len", "hh2": "--cap"}[command]
    assert last_json(out)["error"] == ("the irreducible basis is finite but has "
                                       f"more than 100,000 paths; pass {flag}")


def test_hh2_rejects_a_non_rational_coefficient_by_rule(tmp_path):
    p = tmp_path / "skew.txt"
    p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\nunknown lam\n"
                 "rule y*x -> lam*x*y\n")
    for cap in ("0", "1", "2"):
        code, out = run([str(p), "hh2", "--cap", cap])
        assert code == 2
        error = last_json(out)["error"]
        assert "rule for y*x" in error
        assert "needs rational rule coefficients once the parameters are set to 0" in error


def test_hh2_does_not_depend_on_parameter_names(tmp_path):
    """A rule parameter named t is an ordinary parameter: HH^2 is that of the
    algebra at t = 0, and its representative is a first-order deformation."""
    text = ("vertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\nparam {p}\n"
            "rule a*b -> {p}*e1\nrule b*a -> 0\n")
    outputs = []
    for name in ("t", "hbar"):
        p = tmp_path / f"{name}.txt"
        p.write_text(text.format(p=name))
        code, out = run([str(p), "hh2"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    [rep] = last_json(outputs[0])["representatives"]
    assert rep == {"a*b": "e1", "b*a": "e2"}
    p = tmp_path / "mc.txt"
    p.write_text(text.format(p="t").replace("t*e1", "0") + "set trunc 1\n"
                 + "".join(f"deform {s} -> t*{v}\n" for s, v in rep.items()))
    code, out = run([str(p), "mc"])
    assert code == 0
    assert last_json(out)["verdict"] == "pass"


def test_deep_chain_ambiguities_exit_0(tmp_path):
    p = tmp_path / "xx.txt"
    p.write_text("vertex 0\narrow x : 0 -> 0\nrule x*x -> 0\n")
    code, out = run([str(p), "ambiguities", "1500"])
    assert code == 0
    doc = last_json(out)
    assert doc["count"] == 1
    assert doc["words"] == ["*".join(["x"] * 1502)]


def test_unstable_interreduction_exits_3(tmp_path, monkeypatch):
    """Inter-reduction that does not settle is non-convergence, not usage."""
    monkeypatch.setattr("pathalg.reduction_engine.INTERREDUCE_ROUNDS", 1)
    p = tmp_path / "xy.txt"
    p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\norder y < x\n")
    rels = tmp_path / "rels.txt"
    rels.write_text("rel x*x - y*y\nrel x*x*x - y*x\n")  # x^3 reduces by x^2
    code, out = run([str(p), "complete", str(rels)])
    assert code == 3
    assert "inter-reduction did not stabilize" in out
    assert last_json(out) == {"command": "complete",
                              "error": "completion did not converge"}


def test_short_tip_relation_exits_2(tmp_path):
    """A relation whose tip is a single arrow cannot become a rule."""
    p = tmp_path / "xy.txt"
    p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\norder y < x\n")
    rels = tmp_path / "rels.txt"
    rels.write_text("rel x - y\nrel x*x - y*y\n")
    code, out = run([str(p), "complete", str(rels)])
    assert code == 2
    assert last_json(out)["error"] == "relation with tip of length < 2: x"


COMM3_DEFORMED = COMM3 + "param hbar\nset trunc 3\n"
NON_CONFLUENT = "vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\nrule x*x -> y\n"
LIE = COMM3_DEFORMED + "deform x3*x2 -> -hbar*x1*x1\n"
# the first-order part of a quadratic bracket: associative only below t^3
FIRST_ORDER = COMM3_DEFORMED + (
    "deform x2*x1 -> hbar*x1*x2\ndeform x3*x1 -> -hbar*x1*x3\n"
    "deform x3*x2 -> hbar*x2*x3 + hbar*x1*x1\n")
NON_JACOBI = COMM3_DEFORMED + (
    "deform x2*x1 -> hbar*x3\ndeform x3*x1 -> hbar*x3\n"
    "deform x3*x2 -> hbar*x1\n")
GAUGE_SAME = "deform a*b -> t*e1\ndeform b*a -> t*e2\n"
GAUGE_OTHER = "deform a*b -> t*e1\ndeform b*a -> 2*t*e2\n"


VERDICT_CASES = [
    (COMM3, ["diamond"], None, 0, "diamond: pass"),
    (NON_CONFLUENT, ["diamond"], None, 1, "diamond: fail"),
    (COMM3, ["diamond", "--budget", "1"], None, 3, "diamond: inconclusive"),
    (TWO_CYCLE.format(ba="t*e2"), ["mc"], None, 0, "maurer-cartan: pass"),
    (TWO_CYCLE.format(ba="0"), ["mc"], None, 1, "maurer-cartan: fail"),
    (TWO_CYCLE.format(ba="t*e2"), ["gauge"], GAUGE_SAME, 0, "gauge: pass"),
    (TWO_CYCLE.format(ba="t*e2"), ["gauge"], GAUGE_OTHER, 1, "gauge: fail"),
    (LIE, ["quantize", "jacobi"], None, 0, "jacobi: pass"),
    (NON_JACOBI, ["quantize", "jacobi"], None, 1, "jacobi: fail"),
    (LIE, ["quantize", "check"], None, 0, "associativity: pass"),
    (FIRST_ORDER, ["quantize", "check"], None, 1, "associativity: fail"),
    (FIRST_ORDER, ["quantize", "check", "--trunc", "2"], None, 0,
     "associativity: pass"),
    (FIRST_ORDER, ["mc", "--trunc", "2"], None, 0, "maurer-cartan: pass"),
    (TWO_CYCLE.format(ba="t*e2"), ["gauge", "--trunc", "0"], GAUGE_OTHER, 0,
     "gauge: pass"),
    (LIE, ["quantize", "compare"], None, 0,
     "compare (100 pairs, order 3): pass"),
    (LIE, ["quantize", "compare", "--cap", "1"], None, 1,
     "compare (100 pairs, order 3): fail"),
]


@pytest.mark.parametrize(
    "text, args, side, code, line", VERDICT_CASES,
    ids=[" ".join([*args, line.rpartition(": ")[2]])
         for _, args, _, _, line in VERDICT_CASES])
def test_verdict_sets_line_document_and_exit_code(tmp_path, text, args, side,
                                                  code, line):
    """One verdict gives one exit code: pass 0, fail 1, inconclusive 3."""
    p = tmp_path / "problem.txt"
    p.write_text(text)
    argv = [str(p), *args]
    if side is not None:
        (tmp_path / "side.txt").write_text(side)
        argv.insert(2, str(tmp_path / "side.txt"))
    got, out = run(argv)
    assert got == code
    assert line in out.splitlines()
    assert last_json(out)["verdict"] == line.rpartition(": ")[2]


# the Weyl algebra x2*x1 = x1*x2 + hbar as a deformation of k[x1, x2]
WEYL = """
vertex 0
arrow x1 : 0 -> 0
arrow x2 : 0 -> 0
param hbar
rule x2*x1 -> x1*x2
set trunc {trunc}
deform x2*x1 -> hbar*e0
"""


def test_trunc_above_the_file_order_exits_2(tmp_path):
    """A formal deform block is parsed at ``set trunc``: --trunc can only lower it."""
    p = tmp_path / "weyl.txt"
    p.write_text(WEYL.format(trunc=3))
    code, out = run([str(p), "star", "x2^3", "x1^3"])
    assert code == 0
    assert last_json(out)["star"].startswith("6*hbar^3*e0 + ")
    p.write_text(WEYL.format(trunc=2))
    for command in (["star", "x2^3", "x1^3"], ["mc"], ["quantize", "check"]):
        code, out = run([str(p), *command, "--trunc", "3"])
        assert code == 2
        assert last_json(out)["error"] == (
            "--trunc 3 exceeds the file's truncation order 2 (set trunc 2)")


def test_compare_order_defaults_to_the_file_order_up_to_3(tmp_path):
    p = tmp_path / "weyl.txt"
    for trunc, order in ((0, 0), (2, 2), (4, 3)):
        p.write_text(WEYL.format(trunc=trunc))
        code, out = run([str(p), "quantize", "compare"])
        assert code == 0
        assert f"compare (36 pairs, order {order}): pass" in out.splitlines()


# a d=2 quadratic bracket at order 4: the stratum-1 graphs alone miss its
# order-2 terms
QUADRATIC2 = ("vertex 0\narrow x1 : 0 -> 0\narrow x2 : 0 -> 0\nparam hbar\n"
              "set trunc 4\nrule x2*x1 -> x1*x2\n"
              "deform x2*x1 -> hbar*x1*x2 + 2*hbar*x2*x2\n")


@pytest.mark.parametrize("text, args, last", [
    (LIE, ["--cap", "1"],
     '{"command": "quantize", "mismatches": [["x3*x3", "x2*x2"]], '
     '"pairs": 100, "verdict": "fail"}'),
    (QUADRATIC2, ["--trunc", "2", "--cap", "1"],
     '{"command": "quantize", "mismatches": [["x2", "x1*x1"], ["x2*x2", "x1"], '
     '["x2*x2", "x1*x2"], ["x2*x2", "x1*x1"], ["x1*x2", "x1*x1"]], '
     '"pairs": 36, "verdict": "fail"}'),
], ids=["d3-cap1", "d2-trunc2-cap1"])
def test_failing_compare_lists_its_mismatches_in_pair_order(tmp_path, text,
                                                             args, last):
    """The whole last line of a failing compare: the pairs that differ, in
    the order the pairs run (f, then g, over the monomials)."""
    p = tmp_path / "problem.txt"
    p.write_text(text)
    code, out = run([str(p), "quantize", "compare", *args])
    assert code == 1
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("param", ["hbar", "t"])
def test_quantize_jacobi_reads_the_declared_parameter(tmp_path, param):
    """The bracket of NON_JACOBI fails jacobi and check alike, whatever the
    file names its one parameter."""
    p = tmp_path / "problem.txt"
    p.write_text(NON_JACOBI.replace("hbar", param))
    for command, line in (("jacobi", "jacobi: fail"),
                          ("check", "associativity: fail")):
        code, out = run([str(p), "quantize", command])
        assert code == 1
        assert line in out.splitlines()


@pytest.mark.parametrize("params, named", [("", "none"), ("param s t\n", "s, t")])
def test_quantize_jacobi_needs_hbar_or_one_parameter(tmp_path, params, named):
    p = tmp_path / "problem.txt"
    p.write_text(COMM3 + params + "deform x3*x2 -> x1\n")
    code, out = run([str(p), "quantize", "jacobi"])
    assert code == 2
    assert last_json(out)["error"] == (
        "quantize jacobi needs the parameter hbar or a single param; "
        f"the file declares {named}")


@pytest.mark.parametrize("side", ["x2 -> hbar*x1", "x2*x1*x1 -> hbar*x1*x1*x1",
                                  "x1*x1 -> hbar*e0"])
def test_quantize_refuses_a_deform_side_that_is_no_rule_left_side(tmp_path, side):
    """jacobi reads each side as an entry (j, i) only once it is a rule left
    side, and says what check says about it."""
    p = tmp_path / "problem.txt"
    p.write_text(COMM3 + f"param hbar\ndeform {side}\n")
    lhs = side.split(" -> ")[0]
    for command in ("jacobi", "check"):
        code, out = run([str(p), "quantize", command])
        assert code == 2
        assert last_json(out) == {"command": "quantize",
                                  "error": f"{lhs} is not a rule left side"}


STRATUM_LIMIT = ("graph stratum 5 is above the limit 4: strata above 4 are "
                 "not enumerated")


@pytest.mark.parametrize("args, code, last", [
    (["graphs", "5", "--cap", "5"], 2, {"error": STRATUM_LIMIT}),
    (["compare", "--trunc", "5", "--cap", "5"], 2, {"error": STRATUM_LIMIT}),
    (["graphs", "5"], 2, {"error": "k=5 exceeds the enumeration cap 4"}),
    # order 3: no stratum above 3 is built
    (["compare", "--cap", "5"], 0, {"verdict": "pass", "pairs": 36}),
])
def test_graph_strata_above_4_exit_2_at_once(tmp_path, args, code, last):
    p = tmp_path / "weyl.txt"
    p.write_text(WEYL.format(trunc=5))
    start = time.perf_counter()
    got, out = run([str(p), "quantize", *args])
    assert time.perf_counter() - start < 10
    assert got == code
    doc = last_json(out)
    assert {key: doc[key] for key in last} == last


def test_compare_takes_any_name_for_the_one_vertex(tmp_path):
    p = tmp_path / "weyl.txt"
    p.write_text(WEYL.format(trunc=3).replace("vertex 0", "vertex v")
                 .replace("0 -> 0", "v -> v").replace("e0", "ev"))
    code, out = run([str(p), "quantize", "compare"])
    assert code == 0
    assert "compare (36 pairs, order 3): pass" in out.splitlines()


# the d=3 file of the CI compare rows, line for line: at order 3 its pairs
# need strata 2 and 3
CI_D3 = "\n".join(
    ["vertex 0"] + [f"arrow x{i} : 0 -> 0" for i in (1, 2, 3)]
    + ["param hbar", "set trunc 3"]
    + [f"rule x{j}*x{i} -> x{i}*x{j}" for j in (2, 3) for i in range(1, j)]
    + ["deform x2*x1 -> hbar*x3", "deform x3*x1 -> hbar*x2*x2",
       "deform x3*x2 -> hbar*x1*x2"]) + "\n"


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_compare_budget_bounds_the_reduction_side(tmp_path, budget):
    """--budget bounds the rewrite steps of each pair's reduction star: the
    first pair that needs more than that many ends the compare with exit 3."""
    p = tmp_path / "d3.txt"
    p.write_text(CI_D3)
    assert run([str(p), "quantize", "compare"])[0] == 0
    code, out = run([str(p), "quantize", "compare", "--budget", str(budget)])
    assert code == 3
    assert out.splitlines() == [
        f"budget exhausted after {budget} reductions",
        '{"command": "quantize", "error": "budget exhausted", '
        f'"steps": {budget}}}']


# one call of every command but reduce (which reads all its arguments as one
# element) and of every quantize subcommand with too many or too few
# positional arguments, and the usage error it gives
ARITY_ERRORS = [
    (["diamond", "x1"], "diamond takes no arguments"),
    (["ambiguities", "1", "2"], "ambiguities takes at most one argument, n"),
    (["irr", "x1", "--max-len", "1"], "irr takes no arguments"),
    (["star", "x1"], "star takes exactly two element arguments"),
    (["star", "x1", "x2", "x3"], "star takes exactly two element arguments"),
    (["mc", "x1"], "mc takes no arguments"),
    (["gauge"], "gauge takes one psi-file argument"),
    (["gauge", "psi.txt", "psi.txt"], "gauge takes one psi-file argument"),
    (["hh2", "x1", "--cap", "1"], "hh2 takes no arguments"),
    (["variety", "x1"], "variety takes no arguments"),
    (["complete"], "complete takes one relations-file argument"),
    (["complete", "rels.txt", "rels.txt"],
     "complete takes one relations-file argument"),
    (["quantize", "graphs"], "quantize graphs takes the stratum k"),
    (["quantize", "graphs", "1", "2"], "quantize graphs takes the stratum k"),
    (["quantize", "jacobi", "extra"], "quantize jacobi takes no further arguments"),
    (["quantize", "check", "extra"], "quantize check takes no further arguments"),
    (["quantize", "compare", "extra"],
     "quantize compare takes no further arguments"),
]


def test_arity_cases_cover_every_command():
    assert {args[0] for args, _ in ARITY_ERRORS} | {"reduce"} == set(cli._COMMANDS)
    assert {args[1] for args, _ in ARITY_ERRORS if args[0] == "quantize"} == {
        "graphs", "jacobi", "check", "compare"}


@pytest.mark.parametrize("args, error", ARITY_ERRORS,
                         ids=[" ".join(args) for args, _ in ARITY_ERRORS])
def test_wrong_number_of_arguments_exits_2(tmp_path, args, error):
    """A surplus or missing positional argument is a usage error naming the
    command, not an argument quietly ignored."""
    p = tmp_path / "d3.txt"
    p.write_text(CI_D3)
    code, out = run([str(p), *args])
    assert code == 2
    assert out.splitlines() == [
        f"error: {error}",
        json.dumps({"command": args[0], "error": error}, sort_keys=True)]


@pytest.mark.parametrize("psi", ["deform a*b -> lam*e1\ndeform b*a -> lam*e2\n", ""],
                         ids=["deform lines", "empty"])
def test_gauge_needs_a_formal_deform_block(tmp_path, psi):
    """A degree-0 deform value passes mc, but gauge only runs on formal blocks."""
    p = tmp_path / "problem.txt"
    p.write_text("vertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\nunknown lam\n"
                 "rule a*b -> 0\nrule b*a -> 0\n"
                 "deform a*b -> lam*e1\ndeform b*a -> lam*e2\n")
    assert run([str(p), "mc"])[0] == 0
    (tmp_path / "psi.txt").write_text(psi)
    code, out = run([str(p), "gauge", str(tmp_path / "psi.txt")])
    assert code == 2
    assert last_json(out)["error"] == (
        "gauge needs a formal deform block (set trunc N, and every deform "
        "value of positive parameter degree)")


def test_a_deform_side_given_twice_exits_2(tmp_path):
    """One deform line per side, as one rule per side: the second is refused."""
    p = tmp_path / "weyl.txt"
    p.write_text(WEYL.format(trunc=3) + "deform x2*x1 -> 2*hbar*x1\n")
    code, out = run([str(p), "star", "x2", "x1"])
    assert code == 2
    assert last_json(out)["error"] == "line 9: duplicate deform for x2*x1"


@pytest.mark.parametrize("psi, error", [
    ("gauge a -> t*a\ngauge a -> 2*t*a\n", "line 2: duplicate gauge for a"),
    (GAUGE_SAME + "deform b*a -> 2*t*e2\n", "line 3: duplicate deform for b*a"),
], ids=["gauge", "deform"])
def test_a_psi_key_given_twice_exits_2(tmp_path, psi, error):
    """One psi-file line per gauge arrow and per deform side."""
    p = tmp_path / "problem.txt"
    p.write_text(TWO_CYCLE.format(ba="t*e2"))
    (tmp_path / "psi.txt").write_text(psi)
    code, out = run([str(p), "gauge", str(tmp_path / "psi.txt")])
    assert code == 2
    assert last_json(out)["error"] == error


def test_an_unknown_named_z_runs_star_and_mc(tmp_path):
    """No symbol is reserved: _z is an unknown like any other."""
    p = tmp_path / "z.txt"
    p.write_text(COMM3 + "param hbar\nunknown _z\nset trunc 3\n"
                 "deform x2*x1 -> _z*hbar*e0\n")
    code, out = run([str(p), "star", "x2", "x1"])
    assert code == 0
    assert last_json(out)["star"] == "_z*hbar*e0 + x1*x2"
    code, out = run([str(p), "mc"])
    assert code == 0
    assert last_json(out)["verdict"] == "pass"


class TestInternalErrors:
    """Bad input exits 2; only a fault in pathalg itself exits 4."""

    def test_non_utf8_problem_file_exits_2(self, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(COMM3.encode() + b"# caf\xe9\n")
        code, out = run([str(p), "irr"])
        assert code == 2
        at = len(COMM3.encode()) + len("# caf")
        assert last_json(out)["error"] == \
            f"{p}: not UTF-8 text (invalid continuation byte at byte {at})"

    def test_non_utf8_side_file_exits_2(self, tmp_path):
        p = tmp_path / "xy.txt"
        p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\n"
                     "order y < x\n")
        rels = tmp_path / "rels.txt"
        rels.write_bytes(b"\xffrel x*x - y*y\n")
        code, out = run([str(p), "complete", str(rels)])
        assert code == 2
        assert "not UTF-8 text" in last_json(out)["error"]

    @pytest.mark.parametrize("element", ["1" * 5000 + "*x1",
                                         "x1^" + "1" * 5000],
                             ids=["rational", "exponent"])
    def test_number_over_the_digit_limit_exits_2(self, comm3, element):
        code, out = run([comm3, "reduce", element])
        assert code == 2
        assert last_json(out)["error"] == \
            "number of 5000 characters is too long"

    def test_result_over_the_digit_limit_is_printed_exactly(self, tmp_path):
        p = tmp_path / "xy.txt"
        p.write_text("vertex 0\narrow x : 0 -> 0\narrow y : 0 -> 0\n"
                     "rule y*x -> 99999999*x*y\n")
        code, out = run([str(p), "reduce", "y^35*x^35"])
        assert code == 0
        # Decimal converts ints without the interpreter's str() digit limit
        digits = str(Decimal(99999999 ** 1225))
        assert len(digits) > 4300
        assert last_json(out)["normal_form"] == \
            digits + "*" + "*".join(["x"] * 35 + ["y"] * 35)

    def test_variety_without_rules_has_no_equations(self, tmp_path):
        p = tmp_path / "free.txt"
        p.write_text("vertex 0\narrow x : 0 -> 0\n")
        code, out = run([str(p), "variety"])
        assert code == 0
        assert "no equations (the variety is the whole space)" in out
        assert last_json(out)["equations"] == []

    def test_unexpected_exception_exits_4(self, comm3, monkeypatch):
        def broken(problem, args, flags, report):
            raise KeyError("x9")

        monkeypatch.setitem(cli._COMMANDS, "irr", broken)
        code, out = run([comm3, "irr"])
        assert code == 4
        assert out.splitlines()[0] == "internal error: KeyError: 'x9'"
        assert last_json(out) == {"command": "irr", "error":
                                  "internal error: KeyError: 'x9'"}


class TestSymbolPowers:
    def test_large_power_is_one_monomial(self, tmp_path):
        p = tmp_path / "nf.txt"
        p.write_text(NF_SYMBOLIC)
        start = time.perf_counter()
        code, out = run([str(p), "reduce", "lam^1000000*x"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert last_json(out)["normal_form"] == "lam^1000000*x"

    def test_long_arrow_power_exits_2_before_building_the_path(self, comm3):
        start = time.perf_counter()
        code, out = run([comm3, "reduce", "x1^1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert last_json(out)["error"] == \
            f"term 'x1^1000000000' has more than {cli.MAX_TERM_ARROWS} arrows"

    def test_arrow_power_equals_repeated_product(self):
        parser = ElementParser(Quiver(["0"], [("x1", "0", "0")]), [], [], None)
        assert parser.parse_element("x1^3") == parser.parse_element("x1*x1*x1")

    @pytest.mark.parametrize("name", ["hbar", "lam"])
    @pytest.mark.parametrize("power", [0, 1, 2, 3])
    def test_power_equals_repeated_product(self, name, power):
        trunc = 2  # hbar^3 lies above it and is 0
        quiver = Quiver(["0"], [])
        parser = ElementParser(quiver, ["hbar"], ["lam"], trunc)
        # the rational 1 and the symbol in the parser's ring
        want = PolyScalar.rational(1, trunc=trunc, params=frozenset(["hbar"]))
        v = PolyScalar.var(name, is_param=name == "hbar", trunc=trunc, params=want.params)
        for _ in range(power):
            want = want * v
        got = parser.parse_element(f"{name}^{power}*e0")
        assert got == Element(quiver, {quiver.trivial("0"): want})
        assert got.is_zero() == (name == "hbar" and power > trunc)
        for c in got.terms.values():
            assert (c.trunc, c.params) == (want.trunc, want.params)


DOUBLE_MEANING = """
vertex 1 2
arrow e2 : 1 -> 2
arrow a : 1 -> 2
arrow c : 2 -> 2
rule a*c -> e2
"""


class TestNameCollisions:
    """A name has one meaning: e<V> is the trivial path at vertex V, and a
    name is at most one of an arrow, a param and an unknown."""

    def test_arrow_named_like_a_trivial_path_exits_2(self, tmp_path):
        p = tmp_path / "double.txt"
        p.write_text(DOUBLE_MEANING)
        for command in (["diamond"], ["irr", "--max-len", "2"]):
            code, out = run([str(p), *command])
            assert code == 2
            assert last_json(out)["error"] == (
                "name 'e2' is both an arrow and the trivial path at vertex 2")
        p.write_text(DOUBLE_MEANING.replace("e2", "f2"))
        assert run([str(p), "diamond"])[0] == 0

    @pytest.mark.parametrize("decl, error", [
        ("param e0", "name 'e0' is both a param and the trivial path at vertex 0"),
        ("unknown e0",
         "name 'e0' is both an unknown and the trivial path at vertex 0"),
        ("param x1", "name 'x1' is both a param and an arrow"),
        ("unknown hbar x2", "name 'x2' is both an unknown and an arrow"),
        ("param hbar\nunknown hbar", "name 'hbar' is both an unknown and a param"),
    ])
    def test_symbol_named_like_a_path_exits_2(self, tmp_path, decl, error):
        p = tmp_path / "symbol.txt"
        p.write_text(COMM3 + decl + "\n")
        code, out = run([str(p), "reduce", "e0"])
        assert code == 2
        assert out.splitlines()[0] == f"error: {error}"
        assert last_json(out) == {"command": "reduce", "error": error}
