"""Sparse multivariate polynomials over cyclotomic fields.

Variables are nonnegative integers (element ids). A monomial is a tuple of
(var, exp) pairs sorted by var with positive exponents; the empty tuple is 1.
Terms are kept in a dict monomial -> CycNum with no zero coefficients, all
coefficients embedded at the polynomial's cyclotomic order. The term order
everywhere is graded lexicographic on variable index.

det_poly_matrix does not multiply Poly objects. It packs each term
c * x^e * zeta_N^j into one integer key, with j in digit 0 and the exponent
of the i-th variable of the matrix in digit i, all digits w bits wide. The
width is chosen from a bound on every digit of a product of n entries, so
no digit carries and multiplying two terms is adding their keys. Only the
result is turned back into a Poly: its zeta-parts, left unreduced during
the expansion, are reduced mod Phi_N once at the end.
"""

from fractions import Fraction
from math import lcm

from .cyclotomic import (CycNum, _coerce, _combine, _phi,
                         _repeated_squaring, parse_cyc)
from .errors import DimensionCap, MissingVariable, ParseError

DEFAULT_CAP = 12
# The most packed terms det_poly_matrix holds at once before it gives up
# with DimensionCap. A term takes about 100 bytes in CPython, so the budget
# trips near 0.4 GB of resident memory (the 18x18 groupoid block of rook 3,
# reached with --cap 18 or more). The plain det of zmult 12, at the default
# cap, peaks at 1.15 million terms.
TERM_BUDGET = 4_000_000


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_deg(m):
    return sum(e for _, e in m)


def _mono_key(m):
    """Sort key of graded lex: higher total degree wins, then the higher
    power of the least-index variable where two monomials differ. A
    monomial in one variable, the whole of a linear form, takes a short
    path."""
    if len(m) == 1:
        (v, e), = m
        return e, ((-v, e),)
    return sum([e for _, e in m]), tuple([(-v, e) for v, e in m])


def mono_str(m, names=None):
    """A monomial as factors joined by '*', each x_<name> when names gives
    its variable a nonempty name and x<id> otherwise, with ^e above 1."""
    parts = []
    for v, e in m:
        named = names and v < len(names) and names[v]
        t = f"x_{names[v]}" if named else f"x{v}"
        parts.append(t if e == 1 else f"{t}^{e}")
    return "*".join(parts)


def _merge_terms(out, terms):
    """Add (monomial, coefficient) pairs into the term dict out and return
    it: a repeated monomial keeps its first place, one that cancels is
    dropped."""
    for m, c in terms:
        if m in out:
            c = out[m] + c
        if c.is_zero():
            out.pop(m, None)
        else:
            out[m] = c
    return out


class Poly:
    """Sparse polynomial with CycNum coefficients at a shared order."""

    __slots__ = ("order", "terms", "_printed")

    def __init__(self, order=1, terms=None):
        self.order = order
        self.terms = terms if terms is not None else {}
        self._printed = None

    @staticmethod
    def zero(order=1):
        return Poly(order, {})

    @staticmethod
    def const(c, order=None):
        c = _coerce(c, order or 1) if not isinstance(c, CycNum) else c
        if order is not None and order != c.order:
            c = c.embed(lcm(order, c.order))
        if c.is_zero():
            return Poly(c.order, {})
        return Poly(c.order, {(): c})

    @staticmethod
    def from_terms(order, terms):
        """The sum of c * m over (monomial m, CycNum c at order) pairs."""
        return Poly(order, _merge_terms({}, terms))

    @staticmethod
    def linear(mapping):
        """The linear form sum(mapping[v] * x_v), at the lcm of the orders
        of its coefficients; int and Fraction values are taken at order 1,
        and zero coefficients are dropped."""
        order, terms = 1, {}
        for v, c in sorted(mapping.items()):
            if not isinstance(c, CycNum):
                c = _coerce(c, 1)
            if not c.is_zero():
                order = lcm(order, c.order)
                terms[((v, 1),)] = c
        if not terms:
            raise ValueError("linear form needs a nonzero coefficient")
        return Poly(order, {m: c.embed(order) for m, c in terms.items()})

    @staticmethod
    def variable(v, order=1):
        return Poly(order, {((v, 1),): CycNum.one(order)})

    def at_order(self, order):
        if order == self.order:
            return self
        return Poly(order, {m: c.embed(order) for m, c in self.terms.items()})

    @staticmethod
    def unify(a, b):
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.at_order(n), b.at_order(n)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = Poly.const(other, self.order)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = Poly.unify(self, other)
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[m] == b.terms[m] for m in a.terms)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.order)
        a, b = Poly.unify(self, other)
        return Poly(a.order, _merge_terms(dict(a.terms), b.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.order, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if not isinstance(c, CycNum):
            c = _coerce(c, self.order)
        if c.is_zero():
            return Poly.zero(max(self.order, c.order))
        n = lcm(self.order, c.order)
        c = c.embed(n)
        return Poly(n, {m: x.embed(n) * c for m, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = Poly.unify(self, other)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        return Poly.from_terms(a.order, (
            (mono_mul(ma, mb), ca * cb)
            for ma, ca in a.terms.items() for mb, cb in b.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _repeated_squaring(self, k) if k else Poly.const(1, self.order)

    def total_degree(self):
        if not self.terms:
            return 0
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading(self):
        """(monomial, coefficient) maximal in graded lex order, the first
        term of the canonical print: read from the print when it is built
        and found by a scan otherwise, so that finding it prints nothing."""
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        if self._printed is not None:
            m = self._printed[0][0]
        else:
            m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def coefficient(self, m):
        return self.terms.get(m, CycNum.zero(self.order))

    def evaluate(self, point):
        """Evaluate at a map var -> int | Fraction | CycNum, as a CycNum."""
        missing = self.variables() - set(point)
        if missing:
            raise MissingVariable(f"no value for x{sorted(missing)[0]}")
        total = CycNum.zero(self.order)
        for m, c in self.terms.items():
            for var, e in m:
                p = point[var]
                c = c * (p if isinstance(p, CycNum) else Fraction(p)) ** e
            total = total + c
        return total

    def substitute(self, sub):
        """Substitute variables by polynomials; sub maps var -> Poly.
        Variables absent from sub are kept. The result is at the lcm of
        the orders of self and of the polynomials it substitutes."""
        order = lcm(self.order, *(sub[v].order for m in self.terms
                                  for v, _ in m if v in sub))
        cache = {}

        def power(v, e):
            key = (v, e)
            if key not in cache:
                p = sub[v].at_order(order)
                cache[key] = p if e == 1 else p ** e
            return cache[key]

        terms = {}
        for m, c in self.at_order(order).terms.items():
            if len(m) == 1 and m[0][1] == 1 and m[0][0] in sub:
                _merge_terms(terms, ((ms, c * cs) for ms, cs
                                     in power(m[0][0], 1).terms.items()))
                continue
            term = Poly.const(c, order)
            for v, e in m:
                if v in sub:
                    term = term * power(v, e)
                else:
                    term = term * Poly.variable(v, order) ** e
            _merge_terms(terms, term.terms.items())
        return Poly(order, terms)

    def printed(self):
        """The canonical print as (monomial, coefficient string) pairs in
        descending graded lex order, built on first use. No Poly's terms
        change after construction, so the pairs never go stale."""
        if self._printed is None:
            terms = self.terms
            self._printed = tuple(
                (m, terms[m].to_str())
                for m in sorted(terms, key=_mono_key, reverse=True))
        return self._printed

    def to_str(self, names=None):
        """Canonical string, terms in descending graded lex order."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.printed():
            body, neg = _term_str(m, c, names)
            parts.append(("-" if neg else "+" if parts else "") + body)
        return "".join(parts)

    __str__ = to_str

    def __repr__(self):
        return f"Poly({self.order}, {self.to_str()!r})"


def _term_str(m, c, names=None):
    """Return (body, negated) for one term in the canonical print, from
    its monomial and its coefficient's string: a coefficient that is not
    rational prints in parentheses and its string holds z."""
    if "z" in c:
        body = f"({c})"
        return (body + "*" + mono_str(m, names) if m else body), False
    neg = c[0] == "-"
    q = c[1:] if neg else c
    if not m:
        return q, neg
    mono = mono_str(m, names)
    return (mono if q == "1" else f"{q}*{mono}"), neg


def _add_product(out, a, b):
    """Add the product of two packed polynomials (key -> int) into out."""
    get = out.get
    if len(b) == 1:
        [(kb, cb)] = b.items()
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
        return
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb


def det_poly_matrix(matrix, cap=DEFAULT_CAP):
    """Exact determinant of a square matrix of Poly, division-free.

    Laplace expansion along the rows with the minors memoised over column
    subsets: after row k, `partial` maps each set of k columns (a bitmask)
    to the signed sum of the products that place rows 0..k-1 in exactly
    those columns. Row k extends each sum by every unused column j with a
    nonzero entry, negated when an odd number of used columns lie right of
    j. Only products and sums are formed, so the result is exact for any
    entries; the cost grows as n*2^n. Before that, each row with at most
    one nonzero entry is expanded on its own: it contributes that entry,
    signed (-1)^(i+j), times its minor, or makes the determinant 0.

    The expansion runs on dicts key -> int, not on Poly. Every entry is
    lifted to the common order N and each row is scaled by the lcm of its
    coefficients' denominators, so a term is an integer times x^e * z^j
    with z = zeta_N and j < phi(N). Its key is j + sum e_v * 2^(w*i(v)),
    where i(v) >= 1 numbers the variables of the matrix in increasing
    order. A product of n entries has j <= n*(phi(N)-1) and no exponent
    above the sum over rows of the highest entry degree; w is the bit
    length of the larger bound, so no digit carries and a product of two
    terms is one addition of keys and one multiplication of coefficients.
    At the end the terms are grouped by their x-part, each z-polynomial is
    reduced mod Phi_N, and the product of the row scales is divided out.
    Holding more than TERM_BUDGET terms at once raises DimensionCap."""
    n = len(matrix)
    if n == 0:
        return Poly.const(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n > cap:
        raise DimensionCap(f"symbolic determinant of dimension {n} exceeds cap {cap}")
    order = lcm(*(p.order for row in matrix for p in row))
    matrix = [[p.at_order(order) for p in row] for row in matrix]
    variables, degree = set(), 0  # degree: sum of each row's top degree
    for row in matrix:
        top = 0
        for p in row:
            for m in p.terms:
                d = 0
                for v, e in m:
                    variables.add(v)
                    d += e
                if d > top:
                    top = d
        degree += top
    variables = sorted(variables)
    index = {v: i + 1 for i, v in enumerate(variables)}
    bound = max(degree, n * (_phi(order) - 1), 1)
    w = bound.bit_length()
    scale = 1
    rows = []
    for row in matrix:
        s = lcm(*(c.den for p in row for c in p.terms.values()))
        scale *= s
        packed = []
        for p in row:
            terms = {}
            for m, c in p.terms.items():
                x = sum(e << w * index[v] for v, e in m)
                f = s // c.den
                for j, a in enumerate(c.nums):
                    if a:
                        terms[x + j] = a * f
            packed.append(terms)
        rows.append(packed)
    peeled = {0: 1}
    while True:
        for i, row in enumerate(rows):
            nonzero = [j for j, p in enumerate(row) if p]
            if len(nonzero) <= 1:
                break
        else:
            break
        if not nonzero:
            return Poly.zero(order)
        j = nonzero[0]
        entry = row[j]
        if (i + j) & 1:
            entry = {k: -c for k, c in entry.items()}
        product = {}
        _add_product(product, peeled, entry)
        peeled = product
        rows = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
    partial = {0: peeled}
    live = len(peeled)
    for row in rows:
        entries = [(1 << j, p, {k: -c for k, c in p.items()})
                   for j, p in enumerate(row) if p]
        nxt = {}
        while partial:
            used, acc = partial.popitem()
            for bit, entry, negated in entries:
                if used & bit:
                    continue
                if (used // bit).bit_count() & 1:
                    entry = negated
                out = nxt.setdefault(used | bit, {})
                live -= len(out)
                _add_product(out, acc, entry)
                live += len(out)
                if live > TERM_BUDGET:
                    raise DimensionCap(
                        f"symbolic determinant of dimension {n} exceeds "
                        f"the budget of {TERM_BUDGET} terms")
            live -= len(acc)
        live = 0
        for key, out in nxt.items():
            for k in [k for k, c in out.items() if not c]:
                del out[k]
            if out:
                partial[key] = out
                live += len(out)
        if not partial:
            return Poly.zero(order)
    mask = (1 << w) - 1
    groups = {}
    for k, c in partial.popitem()[1].items():
        groups.setdefault(k >> w, {})[k & mask] = c
    terms = {}
    for x, zs in groups.items():
        coeffs = [0] * (max(zs) + 1)
        for j, c in zs.items():
            coeffs[j] = c
        nums = _combine(coeffs, order)
        if any(nums):
            mono = []
            for v in variables:
                if x & mask:
                    mono.append((v, x & mask))
                x >>= w
            terms[tuple(mono)] = CycNum.from_numerators(order, nums, scale)
    return Poly(order, terms)


def parse_poly(text, order=1):
    """Parse the canonical Poly string form."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    if s == "0":
        return Poly.zero(order)
    return Poly.from_terms(order, (_parse_term(term, sg, order, text)
                                   for sg, term in _split_terms(s, text)))


def _split_terms(s, context):
    terms = []
    i, n = 0, len(s)
    while i < n:
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        j = i
        depth = 0
        while j < n:
            ch = s[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced parens in {context!r}")
            elif ch in "+-" and depth == 0:
                break
            j += 1
        if depth != 0 or j == i:
            raise ParseError(f"bad polynomial literal {context!r}")
        terms.append((sign, s[i:j]))
        i = j
    return terms


def _parse_term(term, sign, order, context):
    """(monomial, coefficient) of one signed term."""
    coeff = CycNum.one(order)
    rest = term
    if rest.startswith("("):
        close = rest.index(")")
        coeff = parse_cyc(rest[1:close], order)
        rest = rest[close + 1:]
        if rest.startswith("*"):
            rest = rest[1:]
        elif rest:
            raise ParseError(f"bad term {term!r} in {context!r}")
    factors = [f for f in rest.split("*") if f] if rest else []
    seen = {}
    for f in factors:
        if f.startswith("x"):
            body = f[1:]
            if "^" in body:
                v_s, _, e_s = body.partition("^")
                if not v_s.isdecimal() or not e_s.isdecimal() or int(e_s) < 1:
                    raise ParseError(f"bad factor {f!r} in {context!r}")
                v, e = int(v_s), int(e_s)
            elif body.isdecimal():
                v, e = int(body), 1
            else:
                raise ParseError(f"bad factor {f!r} in {context!r}")
            seen[v] = seen.get(v, 0) + e
        else:
            coeff = coeff * parse_cyc(f, order)
    if sign < 0:
        coeff = -coeff
    return tuple(sorted(seen.items())), coeff
