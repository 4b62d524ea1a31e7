"""CLI behavior: subcommands, scenario files, output formats, exit codes."""

import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from toridyn import InvariantViolation, fixed_points, full_report, iterate
from toridyn.cli import COMMANDS, _default_text, load_scenario_file, main, parse_args
from toridyn.dynamics import DEFAULT_NODE_BUDGET
from toridyn.scenarios import (cm_matrix_endo, cm_power_torus, gaussian_order,
                               get_example, named_examples)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DOUBLING = {
    "torus": {"J": [["0", "-1"], ["1", "0"]]},
    "endomorphism": {"M": [["2", "0"], ["0", "2"]]},
}


# -- classify

def test_classify_example_json(capsys):
    code, out, _ = run(capsys, "classify", "--example", "mult_2_3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["amplified"] == "yes" and doc["polarized"] == "no"
    assert doc["unity_free"] is True


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", "--example", "gtz_diag")
    assert code == 0
    assert "polarized" in out


def test_classify_scenario_file(capsys, tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    code, out, _ = run(capsys, "classify", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["polarized"] == "yes" and doc["polarized_q"] == 4


def test_json_output_byte_stable(capsys):
    _, a, _ = run(capsys, "classify", "--example", "salem_surface", "--format", "json")
    _, b, _ = run(capsys, "classify", "--example", "salem_surface", "--format", "json")
    assert a == b


# digest of the exit code and stdout of `classify` then `degrees`, each at
# the default precision then at 1e-30, in json then text, per named
# example; recorded when f^k was built by squaring the pair (M, tau), fixed
# subtori came from a Bareiss kernel and J's frame from a greedy rank test
PINNED_REPORTS = {
    "e4_auto": "56323a09106a2cba46f1c1b6040bf435881fd4c3a36fb1ab7c9795a2c6d54c90",
    "gtz_diag": "d41971ac9bf1f94c82e8bd902b7dd777c65e02772cdef4140c3441a1651fb0ad",
    "mult_2_1": "68fce97aa9d3adac33ed183f0468db5a923cf27137bf405f4ae73a1430cecf5a",
    "mult_2_3": "f868a255045504d1845bd18601795401aec82ce2173c32fef5ca226f0e827b64",
    "mult_by_i": "2b38fb04ee88e7d2c935b6ab1a270e9a0c829f79147b8c7538dd7477ec4069e8",
    "salem_surface": "53122f438e5456417b770ef7d810e1a987e77ccd2baf8969794d31b92857866d",
    "shear": "8e2c64d66288bc9b8ca66ad1606167a7f957092d9935a6405a539b5526fdc484",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_classify_and_degrees_bytes_are_pinned(capsys, name):
    assert sorted(PINNED_REPORTS) == sorted(named_examples())
    digest = hashlib.sha256()
    for command in ("classify", "degrees"):
        for precision in ((), ("--precision", "1e-30")):
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, command, "--example", name,
                                   "--format", fmt, *precision)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PINNED_REPORTS[name]


# -- degrees

def test_degrees_json(capsys):
    code, out, _ = run(capsys, "degrees", "--example", "mult_2_3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["dynamical_degrees"]) == 3
    assert doc["dynamical_degrees"][0] == ["1", "1"]
    assert doc["dynamical_degrees"][2] == ["36", "36"]


def test_degrees_precision_flag(capsys):
    code, out, _ = run(capsys, "degrees", "--example", "salem_surface",
                       "--format", "json", "--precision", "1/1000000000000")
    assert code == 0
    doc = json.loads(out)
    lo, hi = (Fraction(x) for x in doc["dynamical_degrees"][1])
    # products of per-root enclosures widen somewhat, but the requested
    # precision must still dominate the default
    assert hi - lo <= Fraction(1, 10**10)


def test_degrees_biquadratic_h1_factor(capsys, tmp_path):
    # E^3 over Z[i] with M = [[0, 1], [-(8+8i), 0]] + [2]: the H^1 charpoly
    # has the irreducible biquadratic factor x^4 + 16x^2 + 128
    g = gaussian_order()
    f = cm_matrix_endo(cm_power_torus(g, 3), g,
                       [[(0, 0), (1, 0), (0, 0)],
                        [(-8, -8), (0, 0), (0, 0)],
                        [(0, 0), (0, 0), (2, 0)]])
    doc = {"torus": {"J": [[str(x) for x in row] for row in f.torus.j.entries]},
           "endomorphism": {"M": [[str(x) for x in row] for row in f.m.entries]}}
    code, out, _ = run(capsys, "degrees", write_scenario(tmp_path, doc),
                       "--format", "json")
    assert code == 0
    intervals = json.loads(out)["dynamical_degrees"]
    assert len(intervals) == 4
    # oracle: lambda_j is the product of the 2j largest eigenvalue moduli
    with mpmath.workdps(50):
        m = mpmath.matrix([[int(x) for x in row] for row in f.m.entries])
        moduli = sorted((abs(v) for v in mpmath.eig(m, left=False, right=False)),
                        reverse=True)
        slack = mpmath.mpf(10) ** -40
        for j, (lo, hi) in enumerate(intervals):
            value = mpmath.fprod(moduli[:2 * j])
            lo, hi = Fraction(lo), Fraction(hi)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= value + slack
            assert value - slack <= mpmath.mpf(hi.numerator) / hi.denominator


@pytest.mark.parametrize("value", ["0", "-1/10", "1/0", "abc"])
def test_precision_must_be_a_positive_rational(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["degrees", "--example", "gtz_diag", f"--precision={value}"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("fixed-points", "--example", "gtz_diag"),
    ("torsion", "--example", "gtz_diag", "--level", "3"),
    ("quotient", "--example", "shear", "--sublattice", "first_factor"),
    ("orbit", "--example", "shear", "--sublattice", "first_factor"),
])
def test_precision_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "1/10"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "degrees"])
def test_precision_is_accepted_by_classify_and_degrees(capsys, command):
    code, out, _ = run(capsys, command, "--example", "gtz_diag",
                       "--format", "json", "--precision", "1/10")
    assert code == 0 and json.loads(out)


# -- fixed points

def test_fixed_points_finite(capsys, tmp_path):
    path = write_scenario(tmp_path, {
        "torus": DOUBLING["torus"],
        "endomorphism": {"M": [["3", "0"], ["0", "3"]]},
    })
    code, out, _ = run(capsys, "fixed-points", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "finite" and doc["count"] == 4


def test_fixed_points_of_a_pure_translation_are_empty(capsys, tmp_path):
    doc = dict(DOUBLING, endomorphism={"M": [["1", "0"], ["0", "1"]], "tau": ["1/2", "0"]})
    code, out, _ = run(capsys, "fixed-points", write_scenario(tmp_path, doc),
                       "--format", "json")
    assert (code, out) == (0, '{"iterate":1,"kind":"empty"}\n')


def test_fixed_points_iterate(capsys, tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    code, out, _ = run(capsys, "fixed-points", path, "--iterate", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 9


def test_fixed_points_of_a_huge_iterate_of_a_finite_order_map(capsys):
    # mult_by_i has order 4, so f^(10^9 + 1) = f; iterate squares, so it
    # takes about 60 products here, where a loop of k products ran past 20 s
    start = time.perf_counter()
    code, out, _ = run(capsys, "fixed-points", "--example", "mult_by_i",
                       "--iterate", str(10**9 + 1), "--format", "json")
    assert code == 0 and time.perf_counter() - start < 5
    _, once, _ = run(capsys, "fixed-points", "--example", "mult_by_i", "--format", "json")
    huge, once = json.loads(out), json.loads(once)
    assert huge.pop("iterate") == 10**9 + 1 and once.pop("iterate") == 1
    assert huge == once and huge["points"] == [["0", "0"], ["1/2", "1/2"]]


def test_fixed_points_coset_family(capsys):
    code, out, _ = run(capsys, "fixed-points", "--example", "mult_2_1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "coset-family" and doc["subtorus_rank"] == 2


J4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
      ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]


def _diagonal(*entries):
    return [[str(a) if i == j else "0" for j in range(len(entries))]
            for i, a in enumerate(entries)]


@pytest.mark.parametrize("j, m, tau, k", [
    (DOUBLING["torus"]["J"], _diagonal(3, 3), ["1/2", "0"], 1),
    (DOUBLING["torus"]["J"], _diagonal(3, 3), ["1/3", "0"], 1),
    (DOUBLING["torus"]["J"], [["2", "-1"], ["1", "2"]], ["1/5", "2/5"], 2),
    (J4, _diagonal(2, 2, 5, 5), ["1/6", "1/3", "2/5", "1/2"], 1),
    (J4, _diagonal(-1, -1, -2, -2), ["1/2", "1/3", "0", "5/6"], 2),
    (J4, _diagonal(1, 1, 3, 3), ["0", "0", "1/6", "5/6"], 1),
    (J4, _diagonal(1, 1, 3, 3), ["0", "0", "1/5", "1/2"], 2),
    (J4, _diagonal(1, 1, 3, 3), ["1/2", "0", "0", "0"], 1),
])
def test_fixed_points_strings_are_str_of_the_points(capsys, tmp_path, j, m, tau, k):
    path = write_scenario(tmp_path, {"torus": {"J": j},
                                     "endomorphism": {"M": m, "tau": tau}})
    fp = fixed_points(iterate(load_scenario_file(path)[0], k))
    assert all(type(c) is Fraction for x in fp.points + fp.transversal for c in x)
    assert fp.points or fp.transversal or fp.kind == "empty"
    # the document as rendered from str() of every coordinate
    doc = {"iterate": k, "kind": fp.kind}
    if fp.kind == "finite":
        doc.update(count=fp.count(), points=[[str(c) for c in x] for x in fp.points])
    elif fp.kind == "coset-family":
        doc.update(subtorus_rank=fp.subtorus.rank,
                   transversal=[[str(c) for c in x] for x in fp.transversal])
    code, out, _ = run(capsys, "fixed-points", path, "--iterate", str(k),
                       "--format", "json")
    assert code == 0
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, "fixed-points", path, "--iterate", str(k))
    assert code == 0 and out == _default_text(doc) + "\n"


def test_fixed_points_budget_is_checked_before_enumeration(capsys):
    # |det(M^6 - I)| = 244,117,120 points would not fit in memory
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", "--example", "gtz_diag",
                         "--iterate", "6")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.startswith("error[resource]: ")
    code, _, err = run(capsys, "fixed-points", "--example", "gtz_diag",
                       "--iterate", "3", "--budget", "1000")
    assert code == 4 and "18056" in err
    code, out, _ = run(capsys, "fixed-points", "--example", "gtz_diag",
                       "--iterate", "3", "--budget", "18056", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 18056


def test_fixed_points_budget_is_checked_before_the_smith_form(capsys):
    # the entries of M^2000 - I have 2,322 bits, and their Smith form
    # takes seconds; |det(M^2000 - I)| alone refuses the listing
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", "--example", "gtz_diag",
                         "--iterate", "2000")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.startswith("error[resource]: fixed point set has ")


def test_fixed_points_budget_names_the_transversal(capsys, tmp_path):
    path = write_scenario(tmp_path, {"torus": {"J": J4},
                                     "endomorphism": {"M": _diagonal(1, 1, 3, 3)}})
    code, out, err = run(capsys, "fixed-points", path, "--budget", "3")
    assert code == 4 and out == ""
    assert err == "error[resource]: fixed point transversal has 4 points, budget 3\n"
    code, out, _ = run(capsys, "fixed-points", path, "--budget", "4", "--format", "json")
    assert code == 0 and len(json.loads(out)["transversal"]) == 4


def _gaussian_diagonal(*values):
    """M = diag(a_1 + b_1 i, ...) on E_i^n: the block [[a, -b], [b, a]] for
    each (a, b)."""
    rows = [["0"] * (2 * len(values)) for _ in range(2 * len(values))]
    for k, (a, b) in enumerate(values):
        rows[2 * k][2 * k:2 * k + 2] = [str(a), str(-b)]
        rows[2 * k + 1][2 * k:2 * k + 2] = [str(b), str(a)]
    return rows


@pytest.mark.parametrize("argv, m, message", [
    (["fixed-points", "--example", "gtz_diag", "--iterate", "4000"], None,
     "fixed point set has a 18576-bit number of points"),
    (["fixed-points"], _gaussian_diagonal((10**1100, 1), (10**1100, 2)),
     "fixed point set has a 14617-bit number of points"),
    (["fixed-points"], _gaussian_diagonal((1, 0), (10**2200, 1)),
     "fixed point transversal has a 14617-bit number of points"),
    (["torsion", "--example", "gtz_diag", "--level", str(10**1200)], None,
     "torsion graph needs a 15946-bit number of nodes"),
])
def test_budget_refusals_past_the_digit_limit_give_the_bit_length(capsys, tmp_path,
                                                                  argv, m, message):
    # each count has more than the 4,300 digits str() will write
    if m is not None:
        argv = argv + [write_scenario(tmp_path, {"torus": {"J": J4}, "endomorphism": {"M": m}})]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, "", f"error[resource]: {message}, budget 1000000\n")


@pytest.mark.parametrize("second", [(3, 2), (10**2200, 1)])
def test_degrees_and_classify_print_results_past_the_digit_limit(capsys, tmp_path,
                                                                 second):
    # M = diag(10^2200 + i, a + bi) on E x E: lambda_2 = |det M|, the H^1
    # charpoly's constant term and the Lefschetz number have more than the
    # 4,300 digits str() writes by default, and so does q = 10^4400 + 1
    # when a + bi = 10^2200 + i
    first = (10**2200, 1)
    path = write_scenario(tmp_path, {"torus": {"J": J4},
                                     "endomorphism": {"M": _gaussian_diagonal(first, second)}})
    limit = sys.get_int_max_str_digits()
    outs = []
    for argv in (["degrees", "--format", "json"], ["classify", "--format", "json"],
                 ["degrees"], ["classify"]):
        code, out, err = run(capsys, *argv, path)
        assert (code, err) == (0, "")
        outs.append(out)
    assert sys.get_int_max_str_digits() == limit
    norms = [a * a + b * b for a, b in (first, second)]
    lefschetz = ((first[0] - 1) ** 2 + 1) * ((second[0] - 1) ** 2 + second[1] ** 2)
    sys.set_int_max_str_digits(0)
    try:
        top, lefschetz_text = str(norms[0] * norms[1]), str(lefschetz)
        degrees, report = json.loads(outs[0]), json.loads(outs[1])
        text_degrees, text_report = outs[2], outs[3]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(top) > limit
    assert degrees["dynamical_degrees"][-1] == report["dynamical_degrees"][-1] == [top, top]
    assert report["h1_charpoly"][0] == top
    assert report["lefschetz"] == lefschetz
    assert report["polarized_q"] == (norms[0] if second == first else None)
    assert f"lambda_2 in [{top}.000000000, {top}.000000000]" in text_degrees
    assert f"lambda_2 in [{top}.000000, {top}.000000]" in text_report
    assert f"  lefschetz: {lefschetz_text}\n" in text_report


def test_fixed_points_print_coordinates_past_the_digit_limit(capsys, tmp_path):
    # M = (2, 1; 0, 2) over the Gaussian order on E x E makes M - I
    # unimodular, so the one fixed point solves (M - I) x = -tau; its first
    # coordinate 1/b - 1/a has the 8,001-digit denominator a b
    a, b = 10**4000 + 1, 10**4000 + 3
    m = [["2", "0", "1", "0"], ["0", "2", "0", "1"], ["0", "0", "2", "0"], ["0", "0", "0", "2"]]
    tau = [Fraction(1, a), 0, Fraction(1, b), 0]
    path = write_scenario(tmp_path, {"torus": {"J": J4},
                                     "endomorphism": {"M": m, "tau": [str(t) for t in tau]}})
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "fixed-points", path, "--format", "json")
    assert (code, err) == (0, "")
    code, text, err = run(capsys, "fixed-points", path)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    assert text == _default_text(doc) + "\n"
    sys.set_int_max_str_digits(0)
    try:
        points = [[Fraction(c) for c in x] for x in doc["points"]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["count"] == len(points) == 1
    (x,) = points
    assert all(0 <= c < 1 for c in x) and x[0].denominator == a * b
    images = [sum((int(mij) - (i == j)) * c for j, (mij, c) in enumerate(zip(row, x)))
              for i, row in enumerate(m)]
    assert all((y + t).denominator == 1 for y, t in zip(images, tau))


def test_degrees_of_roots_far_beyond_float_range_are_fast(capsys, tmp_path):
    # diag(10^600 + i, 3 + 2i): the H^1 roots 10^600 +/- i are 2 apart at
    # modulus 10^600, so the float proposals overflow and the Weierstrass
    # steps meet a cluster; the enclosures must still come within 5 s
    big = 10**600
    path = write_scenario(tmp_path, {"torus": {"J": J4},
                                     "endomorphism": {"M": _gaussian_diagonal((big, 1), (3, 2))}})
    start = time.perf_counter()
    code, out, err = run(capsys, "degrees", path, "--format", "json")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    # lambda_1 = |10^600 + i|^2, a product of two enclosures 1e-9 wide
    lo, hi = (Fraction(x) for x in json.loads(out)["dynamical_degrees"][1])
    assert lo <= big * big + 1 <= hi and hi - lo <= 3 * big * Fraction(1, 10**9)


# -- torsion

def test_torsion_graph(capsys, tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    code, out, _ = run(capsys, "torsion", path, "--level", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["node_count"] == 9
    assert doc["cycle_histogram"] == {"1": 1, "2": 4}


def test_torsion_budget_exhausted(capsys):
    code, _, err = run(capsys, "torsion", "--example", "mult_2_3",
                       "--level", "11", "--budget", "100")
    assert code == 4
    assert "error[resource]" in err


def test_torsion_graph_of_10_14_nodes_is_counted_exactly(capsys):
    # x -> ix on (Z/10^7)^2: 1 - i has norm 2, so 2 points are fixed, 4
    # have period dividing 2 and every other point lies on a 4-cycle
    code, out, err = run(capsys, "torsion", "--example", "mult_by_i",
                         "--level", str(10**7), "--budget", str(10**14),
                         "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["cycle_histogram"] == {"1": 2, "2": 1, "4": 24999999999999}
    assert doc["tail_histogram"] == {"0": 10**14}


# -- quotient and orbit

def test_quotient_first_factor(capsys):
    code, out, _ = run(capsys, "quotient", "--example", "shear",
                       "--sublattice", "first_factor", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["product_identity"] == "verified"
    assert doc["restriction"] == [["-1", "0"], ["1", "0"]]


def test_quotient_unknown_sublattice(capsys):
    code, _, err = run(capsys, "quotient", "--example", "shear",
                       "--sublattice", "nope")
    assert code == 3
    assert "known:" in err


def test_quotient_prints_a_charpoly_past_the_digit_limit(capsys, tmp_path):
    # Gamma = prod_k (x - (10^1100 + k i)) on E^4: its constant term has
    # about 4,400 digits, more than str() writes by default
    big = 10**1100
    j = [["0"] * 8 for _ in range(8)]
    for k in range(4):
        j[2 * k][2 * k + 1], j[2 * k + 1][2 * k] = "-1", "1"
    path = write_scenario(tmp_path, {
        "torus": {"J": j},
        "endomorphism": {"M": _gaussian_diagonal(*((big, k) for k in range(1, 5)))},
        "sublattices": {"first": [["1"] + ["0"] * 7, ["0", "1"] + ["0"] * 6]}})
    re, im = 1, 0
    for k in range(1, 5):
        re, im = re * big - im * k, re * k + im * big
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        constant = [str(re), str(im)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(constant[0]) > limit
    code, out, err = run(capsys, "quotient", path, "--sublattice", "first",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["full"][0] == constant
    code, out, err = run(capsys, "quotient", path, "--sublattice", "first")
    assert (code, err) == (0, "")
    assert f"full Gamma:        ({constant[0]}+{constant[1]}i) + " in out
    assert sys.get_int_max_str_digits() == limit


# J with blocks [[0, -1/2], [2, 0]] has a non-integral frame inverse, so
# the analytic blocks carry a scale s = 2; M is upper block triangular and
# keeps the first factor
HALF_FRAME_SCENARIO = {
    "torus": {"J": [["0", "-1/2", "0", "0"], ["2", "0", "0", "0"],
                    ["0", "0", "0", "-1/2"], ["0", "0", "2", "0"]]},
    "endomorphism": {"M": [["1", "-1", "1", "0"], ["4", "1", "0", "1"],
                           ["0", "0", "2", "-1"], ["0", "0", "4", "2"]]},
    "sublattices": {"first": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
}

# digest of the exit code and stdout of `quotient` over every named
# example and sublattice, then HALF_FRAME_SCENARIO, in json then text.
# The json bytes are those recorded when the analytic charpolys were
# computed over Q(i) with Fractions; the text was re-recorded when a
# coefficient with a negative imaginary part became (re-imi), not
# (re+-imi).  Eight of the named sublattices are not invariant and exit 3
PINNED_QUOTIENTS = "8f8f94699ba0db76ec094130c8214a00e84b65acc6141f13b7ab50ad31358cab"


def quotient_cases(tmp_path):
    """(scenario arguments, sublattice) for every named example and
    sublattice, then HALF_FRAME_SCENARIO's first factor."""
    cases = [(("--example", name), sub)
             for name, scenario in sorted(named_examples().items())
             for sub in sorted(scenario.sublattices)]
    cases.append(((write_scenario(tmp_path, HALF_FRAME_SCENARIO),), "first"))
    return cases


def test_quotient_bytes_are_pinned(capsys, tmp_path):
    cases = quotient_cases(tmp_path)
    digest, codes = hashlib.sha256(), []
    for source, sub in cases:
        for fmt in ("json", "text"):
            code, out, _ = run(capsys, "quotient", *source, "--sublattice", sub,
                               "--format", fmt)
            codes.append(code)
            digest.update(f"{code}\n{out}".encode())
    assert len(cases) == 16 and codes.count(3) == codes.count(0) == 16
    assert digest.hexdigest() == PINNED_QUOTIENTS


QUOTIENT_TERM = re.compile(r"(?:\((-?\d+)([+-]\d+)i\)|(-?\d+))(?:\*x\^(\d+))?")


def parse_text_poly(text):
    """The (re, im) coefficients, constant first, of a polynomial as the
    text format of `quotient` writes it."""
    coeffs = {}
    for term in text.split(" + "):
        match = QUOTIENT_TERM.fullmatch(term)
        assert match, f"unreadable term {term!r} in {text!r}"
        re_part, im_part, real, k = match.groups()
        coeffs[int(k or 0)] = ((int(real), 0) if real is not None
                               else (int(re_part), int(im_part)))
    return [coeffs.get(k, (0, 0)) for k in range(max(coeffs) + 1)]


def test_quotient_text_reads_back_as_the_json_coefficients(capsys, tmp_path):
    negative_im = 0
    for source, sub in quotient_cases(tmp_path):
        code, out, _ = run(capsys, "quotient", *source, "--sublattice", sub,
                           "--format", "json")
        if code != 0:
            continue
        doc = json.loads(out)
        code, out, _ = run(capsys, "quotient", *source, "--sublattice", sub)
        assert code == 0
        lines = dict(line.split(":", 1) for line in out.splitlines())
        for key, label in (("restriction", "restriction Delta"),
                           ("quotient", "quotient"), ("full", "full Gamma")):
            expected = [(int(re_part), int(im_part)) for re_part, im_part in doc[key]]
            assert parse_text_poly(lines[label].strip()) == expected, (source, sub, key)
            negative_im += sum(im < 0 for _, im in expected)
    assert negative_im > 0  # the (re-imi) form is read back


def test_orbit_invariant(capsys):
    code, out, _ = run(capsys, "orbit", "--example", "mult_2_1",
                       "--sublattice", "first_factor", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "invariant"


def test_orbit_diagonal_gtz(capsys):
    code, out, _ = run(capsys, "orbit", "--example", "gtz_diag",
                       "--sublattice", "diagonal", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"sublattice": "diagonal", "verdict": "escaping",
                               "iterations_examined": 65}


# (verdict, iterations_examined) of every named sublattice, as the
# saturating orbit gives them
EXAMPLE_ORBITS = {
    ("gtz_diag", "diagonal"): ("escaping", 65),
    ("gtz_diag", "first_factor"): ("invariant", 2),
    ("gtz_diag", "second_factor"): ("invariant", 2),
    ("mult_2_1", "diagonal"): ("escaping", 65),
    ("mult_2_1", "first_factor"): ("invariant", 2),
    ("mult_2_1", "second_factor"): ("invariant", 2),
    ("mult_2_3", "diagonal"): ("escaping", 65),
    ("mult_2_3", "first_factor"): ("invariant", 2),
    ("mult_2_3", "second_factor"): ("invariant", 2),
    ("salem_surface", "diagonal"): ("escaping", 65),
    ("salem_surface", "first_factor"): ("escaping", 65),
    ("salem_surface", "second_factor"): ("escaping", 65),
    ("shear", "diagonal"): ("escaping", 65),
    ("shear", "first_factor"): ("invariant", 2),
    ("shear", "second_factor"): ("escaping", 65),
}


@pytest.mark.parametrize("example, sublattice", sorted(EXAMPLE_ORBITS))
def test_orbit_of_every_named_sublattice_is_pinned(capsys, example, sublattice):
    code, out, _ = run(capsys, "orbit", "--example", example,
                       "--sublattice", sublattice, "--format", "json")
    verdict, examined = EXAMPLE_ORBITS[example, sublattice]
    assert code == 0
    assert json.loads(out) == {"sublattice": sublattice, "verdict": verdict,
                               "iterations_examined": examined}


def test_orbit_long_budget_examines_every_image(capsys):
    code, out, _ = run(capsys, "orbit", "--example", "salem_surface",
                       "--sublattice", "diagonal", "--budget", "1000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "escaping" and doc["iterations_examined"] == 1001


# the factor swap (x, y) -> (y, x) on E x E, with the first factor and the
# whole lattice as sublattices
SWAP_SCENARIO = {
    "torus": {"J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                    ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "endomorphism": {"M": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                           ["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
    "sublattices": {"first": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                    "all": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
}


def test_orbit_of_a_swapped_factor_is_periodic(capsys, tmp_path):
    path = write_scenario(tmp_path, SWAP_SCENARIO)
    code, out, err = run(capsys, "orbit", path, "--sublattice", "first", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"sublattice": "first", "verdict": "periodic:2",
                               "iterations_examined": 3}
    code, out, err = run(capsys, "orbit", path, "--sublattice", "first")
    assert (code, err) == (0, "")
    assert out == "iterations_examined: 3\nsublattice: first\nverdict: periodic:2\n"


def test_quotient_by_the_whole_lattice_is_1(capsys, tmp_path):
    # the quotient blocks are 0 x 0, and the zero x^1 term of Delta is skipped
    path = write_scenario(tmp_path, SWAP_SCENARIO)
    code, out, err = run(capsys, "quotient", path, "--sublattice", "all", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["restriction"] == doc["full"] == [["-1", "0"], ["0", "0"], ["1", "0"]]
    assert doc["quotient"] == [["1", "0"]]
    code, out, err = run(capsys, "quotient", path, "--sublattice", "all")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["restriction Delta: -1 + 1*x^2", "quotient:          1"]


# -- pinned dynamics bytes

# (1+2i, 1; 0, 2+i) over the Gaussian order on E x E, translated by a
# vector of denominator 6
TAU6_SCENARIO = {
    "torus": {"J": J4},
    "endomorphism": {"M": [["1", "-2", "1", "0"], ["2", "1", "0", "1"],
                           ["0", "0", "2", "-1"], ["0", "0", "1", "2"]],
                     "tau": ["1/6", "5/6", "1/3", "1/2"]},
}

# stdout digests recorded when fixed points were enumerated over a grid of
# Smith-form options and sorted, each torsion power was raised from the
# identity and orbit spans were compared by Fraction rrefs; None stands
# for the path of TAU6_SCENARIO.  The last two, gtz_diag --iterate 4
# (409,600 points, 12,963,896 JSON bytes), were recorded when fixed points
# were listed row by row from a Hermite basis
PINNED_DYNAMICS = [
    (("fixed-points", "--example", "gtz_diag", "--iterate", "3", "--format", "json"),
     "53be7611de93f919a5b3e1d9bb3e91bceec7f891956f8c071f5132f86ae12b06"),
    (("fixed-points", "--example", "gtz_diag", "--iterate", "3", "--format", "text"),
     "524f0bb48862820467c5e1bcf15a5ebecb6b6fb069648ff582b64e52daf16785"),
    (("fixed-points", "--example", "mult_2_1", "--format", "json"),
     "93d4a13b05a6756787bd0109f321ddf3374159e05b21b7f7b3d57151580097b9"),
    (("fixed-points", "--example", "mult_2_1", "--format", "text"),
     "16e9c8d78f25b75b7b82724f340c73a6974f322213b49fda7a7e0653bb19d5aa"),
    (("fixed-points", None, "--iterate", "2", "--format", "json"),
     "8dad0f9d334524688cfb0d4a56a7f97abebdc28bb580e813591b4c5d9bfb5017"),
    (("fixed-points", None, "--iterate", "2", "--format", "text"),
     "b3c308de7f46f5f2c5b1aa5d5373a8667b631547c877eb93c4f8c5f8b2c42e54"),
    (("torsion", "--example", "gtz_diag", "--level", "31", "--format", "json"),
     "1998ef0b85c72b8552cbcfdf8149687bdd7ee95f18204e07d2d5c8ca3bbb4783"),
    (("orbit", "--example", "gtz_diag", "--sublattice", "diagonal", "--format", "json"),
     "8e131e0b73fe0a080bfb59ec1e2fecc04055122f4550869aa932cd8260c816bf"),
    (("fixed-points", "--example", "gtz_diag", "--iterate", "4", "--format", "json"),
     "7682cb5574d5b8b05b792016754260a0ecd72546dc10b4af41324abe51e65802"),
    (("fixed-points", "--example", "gtz_diag", "--iterate", "4", "--format", "text"),
     "a89f17fefbd485a8773e51151e7d26e003b616c58e17a319a30335ef08bdb0af"),
    # recorded when fixed points were listed column by column over every
    # point: all 1,274 parents of mult_2_3 --iterate 3 end in one tail, and
    # the 512 parents of e4_auto --iterate 3 in 64 distinct tails
    (("fixed-points", "--example", "mult_2_3", "--iterate", "3", "--format", "json"),
     "6c3b15ead8781dedbad8597895dd32e3860982ea68324a423d6b5b4326c48f39"),
    (("fixed-points", "--example", "mult_2_3", "--iterate", "3", "--format", "text"),
     "e2a46bf45e6f05cb32a2fb3aefe36af73f4387d3b19845679d86e19d3d773e0c"),
    (("fixed-points", "--example", "e4_auto", "--iterate", "3", "--format", "json"),
     "6f04e8364d76564dc1a2cc8c1d66779babdc89a9a686e0f4a5ab9f33607b5ee6"),
    (("fixed-points", "--example", "e4_auto", "--iterate", "3", "--format", "text"),
     "329363aabe65aea2a3a3d17b868ced6d30a1786e184c953b9095a4f24f848263"),
]


@pytest.mark.parametrize("argv, digest", PINNED_DYNAMICS)
def test_dynamics_bytes_are_pinned(capsys, tmp_path, argv, digest):
    path = write_scenario(tmp_path, TAU6_SCENARIO)
    code, out, _ = run(capsys, *(path if a is None else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class DigestSink:
    """A stdout that hashes what is written to it and keeps only the
    digest, the number of bytes and the length of the longest write."""

    def __init__(self):
        self.sha, self.size, self.largest = hashlib.sha256(), 0, 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        self.largest = max(self.largest, len(data))
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


# e4_auto --iterate 5 lists 937,024 points as 85,184 parents, each with its
# own tail of 11 rows; recorded when every tail row was joined before the
# first write (the text form then hashed to 63bb0bd2...4dfff0)
UNSHARED_TAILS = (("fixed-points", "--example", "e4_auto", "--iterate", "5", "--format", "json"),
                  "1c2579d97ceca4fd60fb55580c9f933378aec0dca9975afa7e363b90d506bd53")


@pytest.mark.parametrize("fmt, sep", [("json", ","), ("text", ", ")])
def test_fixed_point_listing_is_never_held_whole(monkeypatch, fmt, sep):
    # gtz_diag --iterate 4 lists 409,600 points as 51,200 parents of 8 rows
    # each (12,963,896 JSON bytes), ending in 10 shared tails, and e4_auto
    # --iterate 5 (json only, for time) has no shared tail (57,584,440
    # bytes): every write holds at most one parent, and the listing adds
    # less than a quarter of its size to the peak of fixed_points itself.
    # The shared listing also stays below half its size in all.
    shared = ("fixed-points", "--example", "gtz_diag", "--iterate", "4", "--format", fmt)
    cases = [(shared, dict(PINNED_DYNAMICS)[shared])]
    if fmt == "json":
        cases.append(UNSHARED_TAILS)
    for argv, digest in cases:
        tracemalloc.start()
        try:
            fps = fixed_points(iterate(get_example(argv[2]).endo, int(argv[4])))
            _, build = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a parent is rowsep before each of its rows, of d tokens "k/D" and seps
        token, d = 3 + 2 * len(str(fps.denominator)), len(fps.heads) + len(fps.tails)
        block = fps.tail_length * (len(f"]{sep}[") + d * (token + len(sep)))
        del fps
        sink = DigestSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert code == 0 and sink.sha.hexdigest() == digest, argv
        assert sink.largest <= block, argv
        assert peak < build + sink.size / 4, (argv, peak, build, sink.size)
        if argv == shared:
            assert peak < sink.size / 2, (peak, sink.size)


class ClosedPipe:
    """A stdout whose reader has gone, with no file descriptor."""

    def write(self, *args):
        raise BrokenPipeError(32, "Broken pipe")

    writelines = flush = write


@pytest.mark.parametrize("argv", [
    ("--help",), ("fixed-points", "--help"), ("examples",),
    ("orbit", "--example", "gtz_diag", "--sublattice", "diagonal"),
    ("fixed-points", "--example", "gtz_diag", "--iterate", "2", "--format", "json"),
])
def test_every_write_to_a_closed_stdout_exits_141(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(list(argv)) == 141
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "error[io]: stdout was closed\n")


@pytest.mark.parametrize("argv, keep", [
    (("fixed-points", "--example", "gtz_diag", "--iterate", "4", "--format", "json"), 20),
    (("examples",), 0),
    (("--help",), 0),
])
def test_a_closed_stdout_exits_141_with_one_stderr_line(argv, keep):
    # stdout stays block-buffered, as on any pipe, and the child starts
    # when its stdin closes.  The listing, 12,963,896 bytes, is far more
    # than a pipe holds, so its writes fail once the reader has read `keep`
    # bytes and gone; the list of examples and the usage are still in the
    # buffer when they meet a reader that went before the child started
    script = ("import sys; sys.stdin.read(); from toridyn.cli import main; "
              f"sys.exit(main({argv!r}))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)})
    if keep:
        proc.stdin.close()
        head = proc.stdout.read(keep)
        proc.stdout.close()
        assert head == b'{"count":409600,"ite'
    else:
        proc.stdout.close()
        proc.stdin.close()
    code = proc.wait(timeout=60)  # stderr is one line, which the pipe holds
    with proc.stderr:
        err = proc.stderr.read()
    assert (code, err) == (141, b"error[io]: stdout was closed\n")


# -- sweep and examples

def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--count", "5", "--dim", "1",
                       "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and sum(doc["cells"].values()) == 5


def test_sweep_keeps_polarization_of_a_scalar_iterate(capsys):
    # the sample's square is -5 I, which is polarized with q = 25
    code, out, _ = run(capsys, "sweep", "--count", "1", "--dim", "2",
                       "--order", "eisenstein", "--height", "2", "--seed", "38",
                       "--iterate", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("argv, cells", [
    (("--count", "25", "--dim", "2", "--iterate", "4", "--height", "3",
      "--seed", "7"),
     {"no / no / has-unity / infinite": 1, "no / yes / unity-free / infinite": 24}),
    (("--count", "30", "--dim", "2", "--order", "eisenstein", "--iterate", "3",
      "--height", "1", "--seed", "0"),
     {"no / no / has-unity / finite": 6, "no / no / has-unity / infinite": 5,
      "no / yes / unity-free / infinite": 16, "yes / yes / unity-free / infinite": 3}),
])
def test_sweep_verdicts_are_pinned(capsys, argv, cells):
    code, out, _ = run(capsys, "sweep", *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["cells"] == cells and doc["violations"] == []


PINNED_SWEEPS = [
    (("--dim", "2", "--order", "eisenstein", "--iterate", "6"),
     "37e2e3993713984856d3303074cdeb877c8c7b49fd0aaa5669c6dd2d461fa799"),
    (("--dim", "1", "--iterate", "6"),
     "19b5b3002fca88b771afba5eaa301177f3e45df4da7bcaf2949cea95fa56369d"),
    (("--dim", "3", "--iterate", "3"),
     "17f41fca154f1a211d717e291f388e3a702ae4a0fb0aa11e7826c4fc1c5c4e71"),
    (("--dim", "2", "--order", "eisenstein", "--iterate", "6", "--format", "text"),
     "d08b8a13d4b044185a055b9414cc67e7056f1fa4ae15287367942edd19ad87c4"),
    # rho = 64: E_omega^4 and E_sqrt(-2)^4 have complex dimension 8
    (("--count", "10", "--dim", "4", "--iterate", "3", "--seed", "1",
      "--order", "eisenstein"),
     "6372e2dd7503188c183cf9c7c0b878f40c758ee47c3f0b849bdadb875077b230"),
    (("--count", "10", "--dim", "4", "--iterate", "3", "--seed", "1",
      "--order", "quadratic(-2)"),
     "942e1f7a4fbb3c76bbcfb97e5094257d295f6327759cfd14c1cb2dcb23dd2c96"),
]


@pytest.mark.parametrize("argv, digest", PINNED_SWEEPS)
def test_sweep_json_bytes_are_pinned(capsys, argv, digest):
    # recorded when verify_iterates built and classified every iterate f^k
    # (JSON) and when the sweep built a full report per sample (text)
    code, out, _ = run(capsys, "sweep", "--count", "25", "--height", "2",
                       "--seed", "3", "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", PINNED_SWEEPS)
def test_sweep_computes_no_report_fields_it_does_not_print(
        capsys, monkeypatch, argv, digest):
    # a sweep prints four verdicts per sample; degrees, the Serre test,
    # the Lefschetz number and the polynomial class are never computed
    import toridyn.classify as classify

    def not_printed(*args, **kwargs):
        raise AssertionError("a sweep computed a value it does not print")

    for name in ("dynamical_degrees", "serre_test", "lefschetz_number",
                 "polynomial_class"):
        monkeypatch.setattr(classify, name, not_printed)
    test_sweep_json_bytes_are_pinned(capsys, argv, digest)


def test_reports_and_sweeps_take_no_exterior_power(capsys, monkeypatch):
    # NS and the action of f^* on it are read off the frame (v, Jv); the
    # caches are emptied so that nothing is reused from an earlier call
    reports = {name: full_report(get_example(name).endo).to_dict()
               for name in sorted(named_examples())}

    def no_exterior_power(*args):
        raise AssertionError("an exterior power was computed")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "toridyn"]
    for module in modules:
        if hasattr(module, "exterior_power"):
            monkeypatch.setattr(module, "exterior_power", no_exterior_power)
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    for name, report in reports.items():
        assert full_report(get_example(name).endo).to_dict() == report
    for argv, digest in PINNED_SWEEPS:
        test_sweep_json_bytes_are_pinned(capsys, argv, digest)


def test_reports_and_sweeps_take_no_ns_action(capsys, monkeypatch):
    # the spectrum of f^* on NS is read off the analytic charpoly, so no
    # decision builds the rho x rho action; caches are emptied as above
    reports = {name: full_report(get_example(name).endo).to_dict()
               for name in sorted(named_examples())}

    def no_ns_action(*args):
        raise AssertionError("the NS action was computed")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "toridyn"]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        if hasattr(module, "ns_action"):
            monkeypatch.setattr(module, "ns_action", no_ns_action)
    for name, report in reports.items():
        assert full_report(get_example(name).endo).to_dict() == report
    for argv, digest in PINNED_SWEEPS:
        test_sweep_json_bytes_are_pinned(capsys, argv, digest)


def test_sweep_reports_a_chain_violation_as_a_failure(capsys, monkeypatch):
    # an amplified verdict on a map with roots of unity breaks the chain;
    # the sweep lists it and exits 1 rather than stopping at the sample
    import toridyn.cli as cli
    from toridyn.classify import AmplifiedVerdict

    monkeypatch.setattr(cli, "amplified", lambda f: AmplifiedVerdict("yes", "forced"))
    code, out, err = run(capsys, "sweep", "--count", "25", "--dim", "2",
                         "--iterate", "4", "--height", "3", "--seed", "7",
                         "--format", "json")
    doc = json.loads(out)
    assert code == 1 and err == ""
    assert doc["cells"] == {"no / yes / has-unity / infinite": 1,
                            "no / yes / unity-free / infinite": 24}
    assert [v["failures"] for v in doc["violations"]] == [["amplified but not unity-free"]]


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_reports_a_surface_that_is_unity_free_but_not_amplified(capsys, monkeypatch,
                                                                      dim):
    # on a surface (dim 2) unity-free forces amplified, so a "no" on a
    # unity-free sample is listed; in dim 3 no such rule holds
    import toridyn.cli as cli
    from toridyn.classify import AmplifiedVerdict

    monkeypatch.setattr(cli, "amplified", lambda f: AmplifiedVerdict("no", "forced"))
    code, out, err = run(capsys, "sweep", "--count", "6", "--dim", str(dim),
                         "--seed", "7", "--format", "json")
    doc = json.loads(out)
    rule = "surface unity-free but not amplified"
    listed = sum(rule in v["failures"] for v in doc["violations"])
    free = sum(n for cell, n in doc["cells"].items() if "/ unity-free /" in cell)
    assert err == "" and free > 0
    if dim == 2:
        assert code == 1 and listed == free
    else:
        assert listed == 0


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    assert "gtz_diag" in json.loads(out)


# -- error paths

HALF_GENERATORS = {
    "torus": {"J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                    ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "endomorphism": {"M": [["2", "0", "0", "0"], ["0", "2", "0", "0"],
                           ["0", "0", "3", "0"], ["0", "0", "0", "3"]]},
    "sublattices": {"half": [["1/2", "0", "1", "0"], ["0", "1/2", "0", "1"]]},
}


@pytest.mark.parametrize("command", ["orbit", "quotient"])
def test_parse_error_fractional_sublattice_generator(capsys, tmp_path, command):
    # int() truncated 1/2 to 0, which made these generators span the
    # second factor: orbit said invariant, quotient gave x - 3
    path = write_scenario(tmp_path, HALF_GENERATORS)
    code, out, err = run(capsys, command, path, "--sublattice", "half")
    assert (code, out) == (2, "")
    assert err == "error[parse]: sublattices.half[0][0]: '1/2' is not an integer\n"


@pytest.mark.parametrize("doc, message", [
    (dict(DOUBLING, endomorphism={"M": [["2", "0"], ["0", "2"]], "tau": 5}),
     "endomorphism.tau: expected a list"),
    (dict(DOUBLING, sublattices=[[["1", "0"], ["0", "1"]]]),
     "sublattices: expected an object"),
])
def test_parse_error_malformed_tau_or_sublattices(capsys, tmp_path, doc, message):
    # these ended in exit 5, a TypeError and an AttributeError
    code, out, err = run(capsys, "classify", write_scenario(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error[parse]: {message}\n"


@pytest.mark.parametrize("content, message", [
    pytest.param(None, "cannot read ", id="missing-file"),
    pytest.param("[1]", ": top level must be an object", id="top-level-array"),
    pytest.param(json.dumps(dict(DOUBLING, torus={"J": "x"})),
                 "torus.J: expected a list of rows", id="J-not-rows"),
])
def test_parse_error_unreadable_scenario_file(capsys, tmp_path, content, message):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[parse]: ") and err.count("\n") == 1 and message in err


def test_parse_error_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "error[parse]" in err


def test_parse_error_bad_rational(capsys, tmp_path):
    doc = {"torus": {"J": [["0", "-1"], ["1", "x"]]},
           "endomorphism": {"M": [["2", "0"], ["0", "2"]]}}
    code, _, err = run(capsys, "classify", write_scenario(tmp_path, doc))
    assert code == 2
    assert "torus.J[1][1]" in err


@pytest.mark.parametrize("entry", ["1e10000000", "1e5000", "1e-5000", "1" * 4301],
                         ids=["1e10000000", "1e5000", "1e-5000", "4301-digits"])
def test_parse_error_number_past_the_digit_limit(capsys, tmp_path, entry):
    # 10**10000000 alone takes seconds to build; the exponent is refused first
    doc = {"torus": {"J": [["0", "-1"], ["1", "0"]]},
           "endomorphism": {"M": [[entry, "0"], ["0", entry]]}}
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", write_scenario(tmp_path, doc))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error[parse]: endomorphism.M[0][0]") and err.count("\n") == 1


def test_number_within_the_digit_limit_is_parsed(capsys, tmp_path):
    doc = {"torus": {"J": [["0", "-1"], ["1", "0"]]},
           "endomorphism": {"M": [["1e4200", "0"], ["0", "1e4200"]]}}
    endo, _ = load_scenario_file(write_scenario(tmp_path, doc))
    assert endo.m[0, 0] == 10**4200
    args = parse_args(["degrees", "--example", "gtz_diag", "--precision", "1e-4200"])
    assert args.precision == Fraction(1, 10**4200)


@pytest.mark.parametrize("argv", [("classify",), ("degrees",),
                                  ("orbit", "--sublattice", "first")])
def test_singular_map_is_a_domain_error(capsys, tmp_path, argv):
    # E x E with M = diag(2, 0) over Z[i]
    doc = {"torus": {"J": J4},
           "endomorphism": {"M": _diagonal(2, 2, 0, 0)},
           "sublattices": {"first": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}}
    code, out, err = run(capsys, argv[0], write_scenario(tmp_path, doc), *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error[domain]: ") and err.count("\n") == 1


def test_refinement_reaches_every_accepted_precision(capsys):
    # 1e-4200 asks for a grid of 13,961 bits, which a cap of 16,600 bits
    # would leave no room to double
    code, out, _ = run(capsys, "degrees", "--example", "e4_auto", "--format", "json",
                       "--precision", "1e-4200")
    doc = json.loads(out)
    assert code == 0 and doc["precision"] == "1/1" + "0" * 4200
    assert len(doc["dynamical_degrees"]) == 5  # lambda_0..lambda_4 on a 4-fold


def test_refinement_cap_is_a_resource_error(capsys, tmp_path, monkeypatch):
    # E x E with M = [[0, b], [c, 0]] over Z[i], bc = B^2 + B + 1 + i: the H^1
    # roots +-sqrt(bc), +-sqrt(conj(bc)) pair up about 1/B apart, so their
    # disks part only on a grid finer than 2^-133
    big, g = 10**40, gaussian_order()
    f = cm_matrix_endo(cm_power_torus(g, 2), g,
                       [[(0, 0), (big, 1)], [(big + 1, -1), (0, 0)]])
    doc = {"torus": {"J": [[str(x) for x in row] for row in f.torus.j.entries]},
           "endomorphism": {"M": [[str(x) for x in row] for row in f.m.entries]}}
    path = write_scenario(tmp_path, doc)
    with monkeypatch.context() as patch:  # the cap is twice the starting 53 bits
        patch.setattr("toridyn.exactnum.MAX_REFINEMENT_BITS", 0)
        code, out, err = run(capsys, "degrees", path)
    assert (code, out) == (4, "")
    assert err.startswith("error[resource]: root magnitude refinement") and err.count("\n") == 1
    assert run(capsys, "degrees", path)[0] == 0


def _raw_scenario(tmp_path, m, tau="[0, 0]"):
    """A scenario file on E whose M and tau are written as raw JSON text."""
    path = tmp_path / "raw.json"
    path.write_text('{"torus": {"J": [[0, -1], [1, 0]]}, '
                    f'"endomorphism": {{"M": {m}, "tau": {tau}}}}}')
    return str(path)


def test_json_integer_past_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    # json.load would build the int itself, and int() refuses 5,000 digits
    path = _raw_scenario(tmp_path, f"[[1{'0' * 5000}, 0], [0, 2]]")
    code, out, err = run(capsys, "fixed-points", path)
    assert (code, out) == (2, "")
    assert err.startswith("error[parse]: endomorphism.M[0][0]") and err.count("\n") == 1


def test_json_numbers_are_read_exactly(capsys, tmp_path):
    # as floats, 2.5e400 is inf and 0.33333333333333333333 is 0.3333333333333333
    endo, _ = load_scenario_file(_raw_scenario(tmp_path, "[[2.5e400, 0], [0, 2.5e400]]"))
    assert endo.m[0, 0] == endo.m[1, 1] == 25 * 10**399
    path = _raw_scenario(tmp_path, "[[2, 0], [0, 2]]", "[0.33333333333333333333, 0]")
    code, out, _ = run(capsys, "fixed-points", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["points"] == [["66666666666666666667/100000000000000000000", "0"]]


@pytest.mark.parametrize("value", ["1e-10000000", "1e-5000", "1e5000"])
def test_precision_past_the_digit_limit_is_a_parse_error(capsys, value):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["degrees", "--example", "gtz_diag", "--precision", value])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error[parse]: toridyn degrees: argument --precision")
    assert err.count("\n") == 1


def test_parse_error_missing_sections(capsys, tmp_path):
    code, _, err = run(capsys, "classify", write_scenario(tmp_path, {"torus": {}}))
    assert code == 2


def test_parse_error_no_scenario(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "--example" in err


def _on_e(m=DOUBLING["endomorphism"]["M"], tau=None, j=DOUBLING["torus"]["J"]):
    """A scenario document on E, or on the torus of `j`."""
    return {"torus": {"J": j}, "endomorphism": {"M": m, **({"tau": tau} if tau else {})}}


def _on_ee(generators):
    """A scenario document on E x E with M = 2 and one sublattice 's'."""
    return {"torus": {"J": J4}, "endomorphism": {"M": _diagonal(2, 2, 2, 2)},
            "sublattices": {"s": generators}}


@pytest.mark.parametrize("argv, doc, message", [
    pytest.param(("classify",), _on_e(j=_diagonal(1, 1)),
                 "J^2 != -I", id="J-not-a-complex-structure"),
    pytest.param(("classify",), _on_e(tau=["0"]),
                 "translation vector has wrong length", id="tau-length"),
    pytest.param(("classify",), _on_e(m=_diagonal(2, 2, 2, 2)),
                 "endomorphism matrix has wrong size", id="M-size"),
    pytest.param(("orbit", "--sublattice", "s"), _on_ee([["1", "0", "0", "0"],
                                                         ["2", "0", "0", "0"]]),
                 "saturation requires full column rank", id="dependent-sublattice"),
    pytest.param(("orbit", "--sublattice", "s"), _on_ee([["0", "0", "0", "0"]]),
                 "saturation requires full column rank", id="zero-sublattice"),
    pytest.param(("quotient", "--sublattice", "s"), _on_ee([[]]),
                 "saturation requires full column rank", id="empty-sublattice"),
    pytest.param(("orbit", "--sublattice", "s"), _on_ee([["1", "0"], ["0", "1"]]),
                 "sublattice has wrong ambient rank", id="sublattice-row-length"),
    pytest.param(("sweep", "--order", "quadratic(x)"), None,
                 "unknown CM order: quadratic(x)", id="order-quadratic-x"),
    pytest.param(("sweep", "--order", "quadratic(0)"), None,
                 "quadratic order requires d >= 1", id="order-quadratic-0"),
])
def test_domain_error_bad_structure(capsys, tmp_path, argv, doc, message):
    # every validation path exits 3 with empty stdout and one stderr line
    path = (write_scenario(tmp_path, doc),) if doc else ()
    code, out, err = run(capsys, argv[0], *path, *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error[domain]: ") and err.count("\n") == 1
    assert message in err


def test_domain_error_not_holomorphic(capsys, tmp_path):
    doc = {"torus": {"J": [["0", "-1"], ["1", "0"]]},
           "endomorphism": {"M": [["1", "1"], ["0", "1"]]}}
    code, _, err = run(capsys, "classify", write_scenario(tmp_path, doc))
    assert code == 3


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import toridyn.cli as cli

    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_examples", broken)
    code, out, err = run(capsys, "examples")
    assert code == 5 and out == ""
    assert err == "error[internal]: RuntimeError: boom second line\n"


def test_invariant_violation_exits_1(capsys, monkeypatch):
    import toridyn.cli as cli

    def broken(args):
        raise InvariantViolation("h1 charpoly is not analytic x conjugate")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    code, out, err = run(capsys, "classify", "--example", "shear")
    assert code == 1 and out == ""
    assert err == "error[violation]: h1 charpoly is not analytic x conjugate\n"


def test_unknown_example(capsys):
    code, _, err = run(capsys, "classify", "--example", "missing")
    assert code == 3


def test_ragged_matrix_rejected(capsys, tmp_path):
    doc = {"torus": {"J": [["0", "-1"], ["1"]]},
           "endomorphism": {"M": [["2", "0"], ["0", "2"]]}}
    code, _, err = run(capsys, "classify", write_scenario(tmp_path, doc))
    assert code == 2
    assert "row 1" in err


# -- argument parsing

@pytest.mark.parametrize("argv, token", [
    pytest.param((), "command", id="no-subcommand"),
    pytest.param(("bogus",), "'bogus'", id="unknown-subcommand"),
    pytest.param(("classify", "--example", "shear", "--bogus"), "--bogus",
                 id="unknown-option"),
    pytest.param(("sweep", "--h", "3"), "--h", id="ambiguous-prefix"),  # --height, --help
    pytest.param(("classify", "--example", "--format", "json"), "--example",
                 id="missing-value"),
    pytest.param(("sweep", "--count", "abc"), "'abc'", id="bad-int"),
    pytest.param(("sweep", "--count", "0"), "must be a positive integer", id="zero-count"),
    pytest.param(("degrees", "--example", "shear", "--precision", "1/0"), "'1/0'",
                 id="bad-rational"),
    pytest.param(("classify", "--example", "shear", "--format", "xml"), "'xml'",
                 id="bad-choice"),
    pytest.param(("torsion", "--example", "shear"), "--level", id="missing-required"),
    pytest.param(("quotient", "--example", "shear"), "--sublattice",
                 id="missing-sublattice-quotient"),
    pytest.param(("orbit", "--example", "shear"), "--sublattice",
                 id="missing-sublattice-orbit"),
    pytest.param(("sweep", "extra"), "extra", id="stray-positional-sweep"),
    pytest.param(("examples", "extra"), "extra", id="stray-positional-examples"),
])
def test_parse_errors_exit_2_with_one_stderr_line(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    assert lines[0].startswith("error[parse]: toridyn") and token in lines[0]


def test_parse_args_accepts_the_option_forms(monkeypatch):
    assert vars(parse_args(["torsion", "--level", "3"])) == {
        "command": "torsion", "scenario": None, "example": None,
        "format": "text", "level": 3, "budget": DEFAULT_NODE_BUDGET}
    args = parse_args(["sweep", "--count=2", "--iter", "2", "--seed", "-3",
                       "--dim", "3", "--dim", "2", "--format=json"])
    assert (args.count, args.iterate, args.seed, args.dim, args.format) == (2, 2, -3, 2, "json")
    assert not hasattr(args, "scenario")
    args = parse_args(["degrees", "--format", "json", "s.json", "--prec=1/10"])
    assert (args.scenario, args.precision) == ("s.json", Fraction(1, 10))
    assert parse_args(["classify", "--", "-s.json"]).scenario == "-s.json"
    monkeypatch.setattr(sys, "argv", ["toridyn", "orbit", "--sub", "d"])
    assert parse_args().sublattice == "d"


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_every_command_and_option(capsys, command):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            parse_args([flag] if command is None else [command, flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        if command is None:
            assert all(f"  {name} " in out for name in COMMANDS)
        else:
            assert all(f"--{name} " in out for name in COMMANDS[command][2])


def test_every_readme_cli_line_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("toridyn ")]
    assert {line[1] for line in lines} == set(COMMANDS)
    for line in lines:
        assert parse_args(line[1:]).command == line[1]


def test_cli_loads_no_argparse_gettext_or_locale():
    # the options are read from COMMANDS, so a call imports none of them
    code = ("import sys, toridyn.cli; "
            "toridyn.cli.main(['classify', '--example', 'shear', '--format', 'json']); "
            "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert '"amplified"' in out.stdout
    assert out.stdout.split("\n")[-2] == "[]"


# -- random scenario files through the CLI

@st.composite
def gaussian_scenarios(draw):
    """A scenario on E_i^n, n = 1 or 2: M drawn over Z[i] (sometimes
    singular) and tau with small denominators, with J and M conjugated by
    a unimodular U made of elementary column operations."""
    n = draw(st.integers(1, 2))
    size = 2 * n
    j, m = sympy.zeros(size, size), sympy.zeros(size, size)
    for r in range(n):
        j[2 * r, 2 * r + 1], j[2 * r + 1, 2 * r] = -1, 1
        for c in range(n):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[2 * r:2 * r + 2, 2 * c:2 * c + 2] = sympy.Matrix([[a, -b], [b, a]])
    u = sympy.eye(size)
    for _ in range(draw(st.integers(0, 3 * size))):
        src, dst = draw(st.permutations(range(size)))[:2]
        u[:, dst] += draw(st.integers(-2, 2)) * u[:, src]
    u_inv = u.inv()
    tau = [str(draw(st.fractions(0, 1, max_denominator=6))) for _ in range(size)]
    return {"torus": {"J": [[str(x) for x in row] for row in (u_inv * j * u).tolist()]},
            "endomorphism": {"M": [[str(x) for x in row] for row in (u_inv * m * u).tolist()],
                             "tau": tau}}


@given(gaussian_scenarios())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_classify_of_random_scenario_files_agrees_with_sympy(capsys, tmp_path, doc):
    # a refusal is a domain error on one line; a report has sympy's charpoly
    # of M as h1_charpoly and det(I - M) as its Lefschetz number
    code, out, err = run(capsys, "classify", write_scenario(tmp_path, doc), "--format", "json")
    if code:
        assert code == 3 and out == ""
        assert err.startswith("error[domain]: ") and err.count("\n") == 1
        return
    m = sympy.Matrix([[sympy.Integer(x) for x in row] for row in doc["endomorphism"]["M"]])
    report = json.loads(out)
    assert report["h1_charpoly"] == [str(c) for c in reversed(m.charpoly().all_coeffs())]
    assert report["lefschetz"] == (sympy.eye(m.rows) - m).det()


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _solves(m, tau, point):
    """M x + tau = x (mod 1), in Fractions."""
    return all((sum(map(mul, row, point)) + t - x).denominator == 1
               for row, t, x in zip(m, tau, point))


def eigenvalue_one_scenario(seed):
    """A scenario on E_i x E_i with a coset family of fixed points: the
    analytic matrix N = I + u v^T, u and v drawn over Z[i], has the
    eigenvalue 1; J and M are conjugated by a unimodular U made of
    elementary column operations, and tau = -(M - I) y mod 1 for a
    rational y with denominators up to 6."""
    rng = random.Random(seed)
    u, v = ([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
            for _ in range(2))
    j, m = [[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]
    for r in range(2):
        j[2 * r][2 * r + 1], j[2 * r + 1][2 * r] = -1, 1
        for c in range(2):
            (p, q), (s, t) = u[r], v[c]  # N_rc = [r == c] + (p + qi)(s + ti)
            a, b = int(r == c) + p * s - q * t, p * t + q * s
            m[2 * r][2 * c:2 * c + 2], m[2 * r + 1][2 * c:2 * c + 2] = [a, -b], [b, a]
    # column dst += k * column src of U is row src -= k * row dst of U^-1
    frame = [[int(r == c) for c in range(4)] for r in range(4)]
    inverse = [row[:] for row in frame]
    for _ in range(rng.randint(0, 12)):
        src, dst = rng.sample(range(4), 2)
        k = rng.randint(-2, 2)
        for row in frame:
            row[dst] += k * row[src]
        inverse[src] = [x - k * y for x, y in zip(inverse[src], inverse[dst])]

    def conjugate(a):
        return [[sum(map(mul, row, col)) for col in zip(*frame)]
                for row in ([sum(map(mul, r, col)) for col in zip(*a)] for r in inverse)]

    j, m = conjugate(j), conjugate(m)
    y = [Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(4)]
    tau = [(x - sum(map(mul, row, y))) % 1 for row, x in zip(m, y)]
    return {"torus": {"J": [[str(x) for x in row] for row in j]},
            "endomorphism": {"M": [[str(x) for x in row] for row in m],
                             "tau": [str(t) for t in tau]}}


# digest of the exit code and stdout of `fixed-points` on
# eigenvalue_one_scenario(seed), seeds 0-31, in json then text: coset
# families whose transversals have 1 to 25 points, which follow the Smith
# transform V, and so its pivot order
PINNED_COSET_FAMILIES = "ef00f88b471190cb6326ddd50d90ce2703d69a579917d528362b455b9a0f77ad"


def test_coset_family_transversals_are_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    for seed in range(32):
        path = write_scenario(tmp_path, eigenvalue_one_scenario(seed))
        for fmt in ("json", "text"):
            code, out, _ = run(capsys, "fixed-points", path, "--format", fmt)
            assert code == 0 and "coset-family" in out
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PINNED_COSET_FAMILIES


@given(st.one_of(gaussian_scenarios(), st.integers(0, 2**32 - 1)))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fixed_points_of_random_scenario_files_agree_with_sympy(capsys, tmp_path, source):
    # a seed stands for eigenvalue_one_scenario(seed).  A refusal is one
    # stderr line; a listing solves M x + tau = x (mod 1) and has
    # |det(M - I)| points, or, when M - I is singular, a transversal of the
    # product of its nonzero Smith invariant factors over a subtorus of
    # rank nullity(M - I), all counted by sympy
    doc = eigenvalue_one_scenario(source) if isinstance(source, int) else source
    code, out, err = run(capsys, "fixed-points", write_scenario(tmp_path, doc),
                         "--format", "json")
    if code:
        assert code in (3, 4) and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    m = _fractions(doc["endomorphism"]["M"])
    tau = [Fraction(t) for t in doc["endomorphism"]["tau"]]
    m_minus_i = sympy.Matrix(m) - sympy.eye(len(m))
    result = json.loads(out)
    if result["kind"] == "empty":
        assert m_minus_i.det() == 0
        return
    rows = _fractions(result["points" if result["kind"] == "finite" else "transversal"])
    assert all(_solves(m, tau, x) for x in rows)
    if result["kind"] == "finite":
        assert result["count"] == len(rows) == abs(m_minus_i.det()) > 0
        assert all(a < b for a, b in zip(rows, rows[1:]))
    else:
        assert result["kind"] == "coset-family"
        assert result["subtorus_rank"] == len(m) - m_minus_i.rank() > 0
        factors = invariant_factors(m_minus_i, domain=sympy.ZZ)
        assert len(rows) == math.prod(abs(d) for d in factors if d)
