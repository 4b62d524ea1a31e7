"""Output checks that decide which ops failed.

They run in the parent process after the workers have exited, so no check
is inside a timed region.  An op fails on an exception, a nonzero exit, a
non-empty `violations` list, or a failed check below.  Independent values
come from sympy and mpmath; toridyn is used only to rebuild each input
(the sweep sample's matrix, or the named example's matrix and complex
structure) and to read the CLI's default precision.  Each distinct output
of an op is checked once per run.
"""

import itertools
import json
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import mpmath
import sympy as sp
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

import workloads

GOLDEN = Path(__file__).with_name("golden.json")

# Fields that ROADMAP defects 4 (entropy) and 5 (equal pairs, and the
# note built from them) are expected to change; they are not compared.
NOT_COMPARED = frozenset({"entropy", "equal_consecutive_pairs", "notes"})
# Fields with more than one right value, checked on their own instead of
# against golden: the verdicts through the implication chain, the
# amplified path only through its verdict, q and the witness by
# `_polarization_problem`, and the degree enclosures by `_degrees_problem`.
# ROADMAP D3 (certified root path) and D4 (witness search) change them.
CHECKED_ALONE = frozenset({"amplified", "amplified_path", "polarized",
                           "polarized_q", "polarized_witness",
                           "dynamical_degrees"})
DIGITS = 50
_x = sp.Symbol("x")


def load_golden():
    return json.loads(GOLDEN.read_text())


def _chain_holds(polarized, amplified, unity_free, finite):
    return not ((polarized == "yes" and amplified == "no")
                or (amplified == "yes" and not unity_free)
                or (unity_free and finite))


def _verdict_ok(got, want, chain_ok):
    if want == "inconclusive" and got in ("yes", "no"):
        return chain_ok
    return got == want


# ---------------------------------------------------------------------------
# Independent values


def _charpoly(m):
    return sp.Poly(sp.Matrix(m).charpoly(_x).as_expr(), _x)


def unity_and_finite(m):
    """(unity-free, finite order) of an integer matrix from sympy alone:
    unity-free means no cyclotomic factor of the charpoly; finite order
    means M^L = I for L the lcm of all k with phi(k) <= size."""
    size = len(m)
    factors = [sp.Poly(f, _x) for f, _ in _charpoly(m).factor_list()[1]]
    cyclotomic = [f.is_cyclotomic for f in factors]
    if not all(cyclotomic):
        return not any(cyclotomic), False
    order = lcm(*[k for k in range(1, 2 * size * size + 1)
                  if sp.totient(k) <= size])
    return False, sp.Matrix(m) ** order == sp.eye(size)


def root_moduli(m):
    """Moduli of the H^1 charpoly's roots, with multiplicity and largest
    first, at DIGITS significant digits."""
    moduli = []
    for factor, mult in _charpoly(m).factor_list()[1]:
        for root in sp.Poly(factor, _x).nroots(n=DIGITS + 10, maxsteps=200):
            moduli += [abs(sp.N(root, DIGITS + 10))] * mult
    moduli.sort(reverse=True)
    with mpmath.workdps(DIGITS + 10):
        return [mpmath.mpf(str(v)) for v in moduli]


def _mpf(fraction):
    return mpmath.mpf(fraction.numerator) / fraction.denominator


def _degrees_problem(intervals, m, precision):
    """lambda_j, j = 0..n, is the product of the 2j largest root moduli.
    Each interval must contain it, lambda_n must be |det M| exactly, and
    no interval may be wider than enclosures of width `precision` around
    each modulus allow."""
    if len(intervals) != len(m) // 2 + 1:
        return f"{len(intervals)} degree intervals for n = {len(m) // 2}"
    det = abs(sp.Matrix(m).det())
    if [Fraction(s) for s in intervals[-1]] != [det, det]:
        return f"lambda_n is {intervals[-1]}, not |det M| = {det}"
    moduli = root_moduli(m)
    with mpmath.workdps(DIGITS + 10):
        p = _mpf(precision)
        for j, interval in enumerate(intervals):
            top = moduli[:2 * j]
            value = mpmath.fprod(top)
            slack = value * mpmath.mpf(10) ** (-DIGITS + 5)
            lo, hi = (_mpf(Fraction(s)) for s in interval)
            if not lo <= value + slack or not value - slack <= hi:
                return f"lambda_{j} interval {interval} misses {mpmath.nstr(value, 20)}"
            widest = (mpmath.fprod(r + p for r in top)
                      - mpmath.fprod(max(r - p, 0) for r in top))
            if hi - lo > widest + slack:
                return (f"lambda_{j} interval is {mpmath.nstr(hi - lo, 5)} wide, "
                        f"more than {mpmath.nstr(widest, 5)} at precision {precision}")
    return None


def _polarization_problem(m, j, q, witness):
    """f^*L = qL for an ample class L, checked with sympy alone: q^n is
    |det M|, and the witness's alternating form E has E(Jx, Jy) = E(x, y),
    M^T E M = qE and J^T E positive definite."""
    size = len(m)
    mat = sp.Matrix(m)
    if q is None or witness is None:
        return "polarized yes without q and witness"
    if q < 2 or q ** (size // 2) != abs(mat.det()):
        return f"q = {q}, but |det M| = {abs(mat.det())}"
    pairs = list(itertools.combinations(range(size), 2))
    if len(witness) != len(pairs):
        return f"witness has {len(witness)} coordinates, not {len(pairs)}"
    e = sp.zeros(size)
    for (a, b), value in zip(pairs, witness):
        e[a, b], e[b, a] = sp.Rational(value), -sp.Rational(value)
    jm = sp.Matrix(j)
    s = jm.T * e
    if e.is_zero_matrix or jm.T * e * jm != e or s != s.T:
        return f"witness {witness} is not of type (1,1)"
    if mat.T * e * mat != q * e:
        return f"witness {witness} is not pulled back to {q} times itself"
    if not s.is_positive_definite:
        return f"witness {witness} is not ample"
    return None


# ---------------------------------------------------------------------------
# Per-workload checks


class Checker:
    """Checks the ops of one workload against golden values and
    independent computations; `check` returns None or a failure reason."""

    def __init__(self, workload, golden):
        # after the caller set sys.path
        import toridyn.scenarios as scenarios
        from toridyn.exactnum import DEFAULT_PRECISION
        self.scenarios = scenarios
        self.default_precision = DEFAULT_PRECISION
        self.workload = workload
        self.golden = golden
        self._examples = {}
        self._verdicts = {}

    def _example(self, name):
        """(M as integers, J as sympy rationals) of a named example."""
        if name not in self._examples:
            endo = self.scenarios.get_example(name).endo
            j = [[sp.Rational(x.numerator, x.denominator) for x in row]
                 for row in endo.torus.j.entries]
            self._examples[name] = endo.m.to_integer(), j
        return self._examples[name]

    def check(self, argv, op):
        key = (tuple(argv), op["rc"], op["out"], op["error"])
        if key not in self._verdicts:
            self._verdicts[key] = self._check(argv, op)
        return self._verdicts[key]

    def _check(self, argv, op):
        if op["rc"] != 0:
            return f"exit code {op['rc']}: {(op['error'] or '').strip()[-500:]}"
        try:
            doc = json.loads(op["out"])
            if self.workload in workloads.SWEEPS:
                return self._sweep(argv, doc)
            if self.workload == "examples":
                return self._report(argv, doc)
            return self._dynamics(argv, doc)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"output is not in the expected form: {exc!r}"

    def _sweep(self, argv, doc):
        w = workloads.SWEEPS[self.workload]
        seed = int(argv[argv.index("--seed") + 1])
        if doc["violations"]:
            return f"violations: {doc['violations']}"
        if list(doc["cells"].values()) != [1] or doc["seed"] != seed:
            return f"unexpected sweep document {doc}"
        (cell,) = doc["cells"]
        gold = self.golden[self.workload]
        want = gold["cells"][gold["index"][seed - w["base"]]]
        pol, amp, unity, finite = cell.split(" / ")
        want_pol, want_amp, want_unity, want_finite = want.split(" / ")
        m = self.scenarios.random_endo(
            w["dim"], self.scenarios.order_by_name(workloads.SWEEP_ORDER),
            w["height"], seed).m.to_integer()
        free, is_finite = unity_and_finite(m)
        chain = _chain_holds(pol, amp, unity == "unity-free", finite == "finite")
        if not (_verdict_ok(pol, want_pol, chain) and _verdict_ok(amp, want_amp, chain)
                and (unity, finite) == (want_unity, want_finite)):
            return f"seed {seed}: cell {cell!r}, golden {want!r}"
        if (unity == "unity-free", finite == "finite") != (free, is_finite):
            return (f"seed {seed}: cell {cell!r}, sympy says unity-free={free} "
                    f"finite={is_finite}")
        return None

    def _report(self, argv, doc):
        kind, name = argv[0], argv[argv.index("--example") + 1]
        want = self.golden["examples"][kind][name]
        m, j = self._example(name)
        if kind == "classify":
            chain = _chain_holds(doc["polarized"], doc["amplified"],
                                 doc["unity_free"], doc["finite_order"] is not None)
            for key in ("amplified", "polarized"):
                if not _verdict_ok(doc[key], want[key], chain):
                    return f"{name}: {key} is {doc[key]!r}, golden {want[key]!r}"
            if doc["polarized"] == "yes":
                problem = _polarization_problem(m, j, doc["polarized_q"],
                                                doc["polarized_witness"])
                if problem:
                    return f"{name}: {problem}"
            elif (doc["polarized_q"], doc["polarized_witness"]) != (None, None):
                return f"{name}: q or witness given for polarized {doc['polarized']!r}"
            charpoly = [str(c) for c in reversed(_charpoly(m).all_coeffs())]
            if doc["h1_charpoly"] != charpoly:
                return f"{name}: h1_charpoly {doc['h1_charpoly']}, sympy {charpoly}"
            lefschetz = (sp.eye(len(m)) - sp.Matrix(m)).det()
            if doc["lefschetz"] != lefschetz:
                return f"{name}: lefschetz {doc['lefschetz']}, sympy {lefschetz}"
        for key in want.keys() - NOT_COMPARED - CHECKED_ALONE:
            if doc.get(key) != want[key]:
                return f"{kind} {name}: {key} is {doc.get(key)!r}, golden {want[key]!r}"
        precision = (Fraction(argv[argv.index("--precision") + 1])
                     if "--precision" in argv else self.default_precision)
        problem = _degrees_problem(doc["dynamical_degrees"], m, precision)
        return problem and f"{kind} {name}: {problem}"

    def _dynamics(self, argv, doc):
        kind, name = argv[0], argv[argv.index("--example") + 1]
        want = self.golden["dynamics"][" ".join(argv)]
        m, _ = self._example(name)
        minus_i = sp.Matrix(m) - sp.eye(len(m))
        if kind == "torsion":
            level = int(argv[argv.index("--level") + 1])
            if doc["node_count"] != level ** len(m):
                return f"node_count {doc['node_count']} != {level}^{len(m)}"
            snf = smith_normal_form(minus_i, domain=ZZ)
            fixed = prod(gcd(int(snf[i, i]), level) for i in range(len(m)))
            if doc["fixed_node_count"] != fixed:
                return f"fixed_node_count {doc['fixed_node_count']}, Smith form gives {fixed}"
        elif kind == "fixed-points":
            k = int(argv[argv.index("--iterate") + 1])
            problem = _fixed_points_problem(m, k, doc)
            if problem:
                return problem
            doc = {key: doc[key] for key in want}
        if doc != want:
            return f"{' '.join(argv)}: {doc} differs from golden {want}"
        return None


def _fixed_points_problem(m, k, doc):
    mk = sp.Matrix(m) ** k
    count = abs((mk - sp.eye(len(m))).det())
    if doc["kind"] != "finite" or doc["count"] != count:
        return f"{doc['kind']} with count {doc.get('count')}, |det(M^{k} - I)| = {count}"
    points = [tuple(Fraction(c) for c in p) for p in doc["points"]]
    if len(set(points)) != count:
        return f"{len(set(points))} distinct points listed, expected {count}"
    rows = [[int(v) for v in mk.row(i)] for i in range(len(m))]
    for p in points:
        for row, coord in zip(rows, p):
            if (sum(a * c for a, c in zip(row, p)) - coord).denominator != 1:
                return f"point {p} is not fixed by M^{k}"
    return None
