"""Independent check of frobdet outputs, using no frobdet arithmetic.

For a table request the checker draws integer points, computes the exact
integer determinant of the numeric multiplication matrix (plain, or
contracted over the nonzero elements) by its own fraction-free
elimination, and compares it with what the output claims:

* factored: constant * prod factor^m evaluated at the point. With
  cyclotomic order 1 the evaluation is exact; otherwise it is complex
  floating point with z = exp(2 pi i / N), compared as a ratio
  |value / det - 1| <= REL_TOL plus a first-order rounding bound.
* zero, not_frobenius: the determinant vanishes at every point.
* frobenius: a witness must reproduce the checker's own determinant at
  the witness point; a printed determinant polynomial must match at the
  points; otherwise some point must give a nonzero determinant.
* det: the printed polynomial matches at the points.

A ringcheck output must match the checker's own complex determinant of
[lambda(st)]. Anything else, a nonzero exit code or unparsable output,
is a failure.
"""

import cmath
import json
import math
import random
from fractions import Fraction
from itertools import product

from workloads import zero_of

REL_TOL = 1e-9
EPS = 2.0 ** -52
POINT_RANGE = 1000
NONZERO_POINTS = 2
MAX_POINTS = 8


# exact and complex determinants


def int_det(m):
    """Exact determinant of an integer matrix (Bareiss, row pivoting)."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * ak[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def complex_det(m):
    """Determinant by partial-pivoting elimination in complex floats, and
    the Hadamard bound prod ||row|| as its scale."""
    n = len(m)
    a = [[complex(v) for v in row] for row in m]
    scale = 1.0
    for row in a:
        scale *= math.sqrt(sum(abs(v) ** 2 for v in row))
    det = 1 + 0j
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            return 0j, scale
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        p = a[k][k]
        det *= p
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                ai, ak = a[i], a[k]
                for j in range(k + 1, n):
                    ai[j] -= f * ak[j]
    return det, scale


def table_matrix(table, point, contracted):
    n = len(table)
    if not contracted:
        return [[point[table[a][b]] for b in range(n)] for a in range(n)]
    z = zero_of(table)
    if z is None:
        raise ValueError("contracted request on a table without zero")
    basis = [s for s in range(n) if s != z]
    return [[0 if table[a][b] == z else point[table[a][b]] for b in basis]
            for a in basis]


# the output grammar


def parse_cyc(text):
    """'-1/2*z^2+z-1' -> {power of z: Fraction}."""
    out = {}
    for sign, body in _signed_terms(text):
        coef, star, mono = body.partition("*")
        if not star:
            coef, mono = ("1", body) if body.startswith("z") else (body, "")
        if mono == "":
            power = 0
        elif mono == "z":
            power = 1
        elif mono.startswith("z^"):
            power = int(mono[2:])
        else:
            raise ValueError(f"bad cyclotomic term {body!r}")
        out[power] = out.get(power, 0) + sign * Fraction(coef)
    return out


def parse_poly(text):
    """A printed polynomial -> [(coefficient dict, {var: exponent})]."""
    terms = []
    for sign, body in _signed_terms(text):
        if body.startswith("("):
            close = body.index(")")
            coef = parse_cyc(body[1:close])
            rest = body[close + 2:]
        else:
            head, _, tail = body.partition("*")
            if head.startswith("x"):
                coef, rest = {0: Fraction(1)}, body
            elif tail:
                coef, rest = {0: Fraction(head)}, tail
            else:
                coef, rest = {0: Fraction(head)}, ""
        coef = {k: sign * v for k, v in coef.items()}
        terms.append((coef, parse_monomial(rest)))
    return terms


def parse_monomial(text):
    """'x0^2*x3' -> {0: 2, 3: 1}; '' is the empty monomial."""
    mono = {}
    for factor in filter(None, text.split("*")):
        name, _, exp = factor.partition("^")
        if not name.startswith("x"):
            raise ValueError(f"bad monomial factor {factor!r}")
        v = int(name[1:])
        mono[v] = mono.get(v, 0) + int(exp or 1)
    return mono


def parse_form(form):
    """A factor as printed by factor --json: {monomial: coefficient}."""
    return [(parse_cyc(c), parse_monomial("" if m == "1" else m))
            for m, c in form.items()]


def _signed_terms(text):
    """Split at top-level + and -: [(sign, unsigned term)]."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and i > start:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    if not all(t.lstrip("+-") for t in terms):
        raise ValueError(f"bad expression {text!r}")
    return [(-1 if t[0] == "-" else 1, t.lstrip("+-")) for t in terms]


# evaluation


class Evaluator:
    """Evaluates parsed coefficients and polynomials in Q when the
    cyclotomic order is 1 and in complex floats otherwise. Complex values
    come with the sum of absolute term values, which scales the rounding
    error."""

    def __init__(self, order):
        self.exact = order == 1
        self.zeta = cmath.exp(2j * cmath.pi / order)

    def cyc(self, c):
        if self.exact:
            if any(k for k in c if c[k]):
                raise ValueError("power of z at cyclotomic order 1")
            return c.get(0, Fraction(0)), 0.0
        val = sum(float(q) * self.zeta ** k for k, q in c.items())
        return val, sum(abs(float(q)) for q in c.values())

    def poly(self, terms, point):
        total, scale = (Fraction(0), 0.0) if self.exact else (0j, 0.0)
        for coef, mono in terms:
            mv = 1
            for v, e in mono.items():
                mv *= point[v] ** e
            cv, cs = self.cyc(coef)
            total += cv * mv
            scale += cs * abs(mv)
        return total, scale


class _LogProduct:
    """A complex product kept as mantissa * 2^exponent so that products of
    many factors neither overflow nor underflow."""

    def __init__(self, value):
        self.m, self.e = complex(value), 0
        self._norm()

    def _norm(self):
        a = abs(self.m)
        if a:
            _, ex = math.frexp(a)
            self.m = complex(math.ldexp(self.m.real, -ex),
                             math.ldexp(self.m.imag, -ex))
            self.e += ex

    def mul(self, v):
        self.m *= v
        self._norm()

    def value_over(self, det):
        shift = max(det.bit_length() - 60, 0)
        d = float(det >> shift) if det > 0 else -float((-det) >> shift)
        r = self.m / d
        k = self.e - shift
        return complex(math.ldexp(r.real, k), math.ldexp(r.imag, k))


class Checker:
    """Checks outputs; reference determinants are cached per input class
    and matrix mode, since every pass repeats the same tables."""

    def __init__(self, seed):
        self.seed = seed
        self._points = {}

    def points(self, spec, contracted):
        """[(point, exact det)] for the spec: points are drawn until
        NONZERO_POINTS of them give a nonzero determinant, at most
        MAX_POINTS. If none does, the determinant vanishes identically but
        for a chance below (n / 2001)^MAX_POINTS (Schwartz-Zippel)."""
        key = (spec.key, contracted)
        if key not in self._points:
            rng = random.Random(f"{self.seed}:check:{spec.key}:{contracted}")
            n = len(spec.table)
            out = []
            for _ in range(MAX_POINTS):
                pt = [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(n)]
                out.append((pt, int_det(table_matrix(spec.table, pt,
                                                      contracted))))
                if sum(1 for _, d in out if d) >= NONZERO_POINTS:
                    break
            self._points[key] = out
        return self._points[key]

    def check(self, spec, rc, stdout):
        """(ok, mode): mode is the verification mode of a zero or
        factored output ('' when it has none) and None for other outputs."""
        if rc != 0:
            return False, None
        try:
            data = json.loads(stdout)
            if spec.ring is not None:
                return self._ring(spec, data), None
            return self._table(spec, data)
        except (ValueError, KeyError, TypeError, ZeroDivisionError,
                OverflowError):
            return False, None

    def _table(self, spec, data):
        status = data.get("status")
        contracted = "--contracted" in spec.flags
        pts = self.points(spec, contracted)
        vanishes = not any(d for _, d in pts)
        mode = None
        if status in ("zero", "factored"):
            mode = (data.get("verification") or {}).get("mode", "")
        if spec.command == "det":
            if data.get("mode") != ("contracted" if contracted else "plain"):
                return False, None
            ok = self._poly_matches(parse_poly(data["determinant"]),
                                    data["cyclotomic_order"], pts)
            return ok, None
        if status in ("zero", "not_frobenius"):
            return vanishes, mode
        if status == "factored":
            return (not vanishes and self._factors_match(data, pts)), mode
        if status == "frobenius":
            if data.get("witness"):
                w = data["witness"]
                pt = [0] * len(spec.table)
                for tok, v in w["point"].items():
                    pt[int(tok[1:])] = v
                d = int_det(table_matrix(spec.table, pt, contracted))
                return d != 0 and d == w["determinant"], None
            if "determinant" in data:
                return (not vanishes and self._poly_matches(
                    parse_poly(data["determinant"]),
                    data["cyclotomic_order"], pts)), None
            return not vanishes, None
        return False, None

    def _poly_matches(self, terms, order, pts):
        ev = Evaluator(order)
        for pt, det in pts:
            val, scale = ev.poly(terms, pt)
            if ev.exact:
                if val != det:
                    return False
            elif det == 0:
                if abs(val) > 64 * EPS * len(terms) * scale:
                    return False
            elif abs(_LogProduct(val).value_over(det) - 1) > REL_TOL + \
                    64 * EPS * len(terms) * scale / abs(val):
                return False
        return True

    def _factors_match(self, data, pts):
        ev = Evaluator(data["cyclotomic_order"])
        const, _ = ev.cyc(parse_cyc(data["constant"]))
        factors = [(parse_form(f["form"]), f["multiplicity"])
                   for f in data["factors"]]
        for pt, det in pts:
            if ev.exact:
                val = const
                for terms, m in factors:
                    val *= ev.poly(terms, pt)[0] ** m
                if val != det:
                    return False
                continue
            prod = _LogProduct(const)
            bound = 0.0
            hit_zero = False
            for terms, m in factors:
                v, scale = ev.poly(terms, pt)
                tiny = 64 * EPS * len(terms) * scale
                if abs(v) <= tiny:
                    hit_zero = True
                    continue
                bound += m * tiny / abs(v)
                for _ in range(m):
                    prod.mul(v)
            if det == 0 or hit_zero:
                if not (det == 0 and hit_zero):
                    return False
                continue
            if abs(prod.value_over(det) - 1) > REL_TOL + bound:
                return False
        return True

    def _ring(self, spec, data):
        table, lam_exp, order = ring_character_matrix(spec.ring)
        zeta = cmath.exp(2j * cmath.pi / order)
        n = len(table)
        mat = [[zeta ** lam_exp[table[a][b]] for b in range(n)]
               for a in range(n)]
        mine, scale = complex_det(mat)
        ev = Evaluator(data["cyclotomic_order"])
        val, _ = ev.cyc(parse_cyc(data["determinant"]))
        val = complex(val)
        if data.get("size") != n:
            return False
        tol = 1e-9 * scale
        if abs(mine) <= tol:
            return data["status"] == "inconclusive" and abs(val) <= tol
        return data["status"] == "frobenius" and \
            abs(val - mine) <= 1e-7 * abs(mine) + tol


def ring_character_matrix(ring):
    """(multiplication table, exponents k with lambda(s) = zeta^k, order
    of zeta) of a ring monoid with its generating additive character."""
    if ring[0] == "zmod":
        n = ring[1]
        return ([[a * b % n for b in range(n)] for a in range(n)],
                list(range(n)), n)
    _, dim, p = ring
    if p not in (2, 3, 5, 7):
        raise ValueError("the checker builds matrix monoids over prime fields")
    mats = list(product(range(p), repeat=dim * dim))
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        return tuple(sum(x[i * dim + k] * y[k * dim + j] for k in range(dim)) % p
                     for i in range(dim) for j in range(dim))

    table = [[index[mul(x, y)] for y in mats] for x in mats]
    exps = [sum(m[i * dim + i] for i in range(dim)) % p for m in mats]
    return table, exps, p
