"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value of order N is stored by its coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q[z]/(Phi_N), as integer numerators over one
shared positive denominator in lowest terms, so two values of equal order
are equal iff their numerators and denominators are equal. Phi_N is monic
with integer coefficients, so the powers z^phi(N), ..., z^(N-1) have
integer coordinates. Reduction mod Phi_N, the change of basis between
orders and the Galois action all read that one table, and sums and
products work on ints.
Values of different orders are compared and combined after embedding both
into Q(zeta_lcm) via zeta_N = zeta_M^(M/N).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import OutOfRange, ParseError

MAX_ORDER = 10000

_ONE = Fraction(1)


def _poly_div_exact_int(num, den):
    """Quotient of integer coefficient lists, den monic; remainder must be 0."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + dd]
        q[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    if any(num[:dd]):
        raise ArithmeticError("division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order):
    """Integer coefficients of Phi_order, ascending, monic."""
    if not 1 <= order <= MAX_ORDER:
        raise OutOfRange(f"cyclotomic order {order} outside 1..{MAX_ORDER}")
    poly = [0] * order + [1]
    poly[0] = -1
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_div_exact_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(order):
    return len(cyclotomic_polynomial(order)) - 1


def _powers_from_phi(order):
    """The integer coordinates of z^k mod Phi_order for k = phi, ...,
    order - 1, the powers below order that are not basis vectors, one new
    list each, from the recurrence z^(k+1) = z * z^k."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    row = [-c for c in phi[:d]]
    for _ in range(order - d):
        yield row
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [x - top * c for x, c in zip(row, phi)]


@lru_cache(maxsize=None)
def _high_powers(order):
    """The table of _powers_from_phi: row k - phi is z^k."""
    return tuple(map(tuple, _powers_from_phi(order)))


@lru_cache(maxsize=None)
def power_basis_bound(order):
    """R_order: the largest |coordinate| of z^k mod Phi_order over
    k < order. A polynomial in z with coefficient 1-norm L reduces to
    coordinates of size at most R_order * L, since z^order = 1. The basis
    vectors contribute 1, and every row is nonzero. The rows are taken
    one at a time and none is kept."""
    return max((max(map(abs, row)) for row in _powers_from_phi(order)),
               default=1)


def _combine(nums, order, step=1):
    """Integer coordinates of sum(nums[j] * z^(j*step)) mod Phi_order, for
    any number of terms. A power below phi is a basis vector, so the table
    of higher powers is read only when one occurs."""
    d = _phi(order)
    out = [0] * d
    rows = None
    for j, c in enumerate(nums):
        if c:
            k = j * step % order
            if k < d:
                out[k] += c
                continue
            if rows is None:
                rows = _high_powers(order)
            for i, x in enumerate(rows[k - d]):
                if x:
                    out[i] += c * x
    return out


def _product(a, b, order):
    """Integer coordinates of the product of two lists of integer
    coordinates, mod Phi_order."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _combine(conv, order)


def _repeated_squaring(base, k):
    """base ** k for a CycNum or Poly base and k >= 1. The product starts
    from the base itself, so base ** 1 multiplies nothing."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


class CycNum:
    """An element of Q(zeta_order): the integer numerators `nums` of its
    power-basis coordinates over one positive denominator `den`, with
    gcd(den, *nums) = 1, so zero is (0, ..., 0)/1 and two values of equal
    order are equal iff (nums, den) are equal."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coords):
        """coords: the power-basis coordinates, int or Fraction."""
        coords = tuple(coords)
        den = lcm(1, *(c.denominator for c in coords))
        self.order = order
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @staticmethod
    def from_numerators(order, nums, den):
        """The value nums / den for integer numerators and a positive
        integer denominator, brought to lowest terms."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        out = object.__new__(CycNum)
        out.order = order
        out.nums = tuple(nums)
        out.den = den
        return out

    @property
    def coords(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @staticmethod
    def from_rational(q, order=1):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        nums = [q.numerator] + [0] * (_phi(order) - 1)
        return CycNum.from_numerators(order, nums, q.denominator)

    @staticmethod
    def zero(order=1):
        return CycNum.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return CycNum.from_rational(1, order)

    @staticmethod
    def root_of_unity(order, k=1):
        """zeta_order^k."""
        k %= order
        d = _phi(order)
        if k >= d:
            return CycNum.from_numerators(order, _high_powers(order)[k - d], 1)
        nums = [0] * d
        nums[k] = 1
        return CycNum.from_numerators(order, nums, 1)

    def embed(self, order):
        if order == self.order:
            return self
        if order % self.order != 0:
            raise OutOfRange(f"cannot embed order {self.order} into {order}")
        nums = _combine(self.nums, order, order // self.order)
        return CycNum.from_numerators(order, nums, self.den)

    @staticmethod
    def unify(a, b):
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.embed(n), b.embed(n)

    def __add__(self, other):
        other = _coerce(other, self.order)
        a, b = CycNum.unify(self, other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
        else:
            nums = [x * db + y * da for x, y in zip(a.nums, b.nums)]
            da *= db
        return CycNum.from_numerators(a.order, nums, da)

    __radd__ = __add__

    def __neg__(self):
        return CycNum.from_numerators(self.order, [-x for x in self.nums],
                                      self.den)

    def __sub__(self, other):
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other):
        return _coerce(other, self.order) - self

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = other.numerator
            return CycNum.from_numerators(self.order, [x * q for x in self.nums],
                                          self.den * other.denominator)
        a, b = CycNum.unify(self, other)
        den = a.den * b.den
        if len(a.nums) == 1:
            return CycNum.from_numerators(a.order, (a.nums[0] * b.nums[0],), den)
        return CycNum.from_numerators(a.order,
                                      _product(a.nums, b.nums, a.order), den)

    __rmul__ = __mul__

    def inverse(self):
        """1/x = prod of sigma_k(x) over k in (Z/N)^x, k != 1, divided by
        the norm N(x) = x * that product, which is rational. On the
        integer numerators a of x = a/d this is d * prod sigma_k(a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, d = self.order, self.den
        if self.is_rational():
            nums, norm = [d] + [0] * (len(self.nums) - 1), self.nums[0]
        else:
            a = CycNum.from_numerators(n, self.nums, 1)
            prod = CycNum.one(n)
            for k in range(2, n):
                if gcd(k, n) == 1:
                    prod = prod * a.galois(k)
            nums, norm = [x * d for x in prod.nums], (a * prod).nums[0]
        if norm < 0:
            nums, norm = [-x for x in nums], -norm
        return CycNum.from_numerators(n, nums, norm)

    def __truediv__(self, other):
        other = _coerce(other, self.order)
        a, b = CycNum.unify(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.order) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _repeated_squaring(self, k) if k else CycNum.one(self.order)

    def galois(self, k):
        """The image under the automorphism zeta |-> zeta^k of
        Q(zeta_order), for k prime to the order."""
        if len(self.nums) == 1:
            return self
        n = self.order
        return CycNum.from_numerators(n, _combine(self.nums, n, k), self.den)

    def conj(self):
        """Complex conjugation, zeta |-> zeta^(N-1)."""
        return self.galois(self.order - 1)

    def is_zero(self):
        return not any(self.nums)

    def is_one(self):
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise OutOfRange(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        a, b = CycNum.unify(self, other)
        return a.nums == b.nums and a.den == b.den

    def __bool__(self):
        return not self.is_zero()

    def to_str(self):
        """Canonical string, a polynomial in z with descending powers."""
        if self.is_zero():
            return "0"
        den = self.den
        parts = []
        for j in range(len(self.nums) - 1, -1, -1):
            x = self.nums[j]
            if x == 0:
                continue
            g = gcd(x, den)
            q = _rat_str(abs(x) // g, den // g)
            if j == 0:
                body = q
            else:
                mono = "z" if j == 1 else f"z^{j}"
                body = mono if q == "1" else f"{q}*{mono}"
            if not parts:
                parts.append(("-" if x < 0 else "") + body)
            else:
                parts.append(("-" if x < 0 else "+") + body)
        return "".join(parts)

    __str__ = to_str

    def __repr__(self):
        return f"CycNum({self.order}, {self.to_str()!r})"


def _rat_str(num, den):
    return str(num) if den == 1 else f"{num}/{den}"


def _coerce(x, order):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x, order)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")


_RAT_CHARS = set("0123456789/")


def parse_cyc(text, order=1):
    """Parse the canonical CycNum string form at the given order."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty cyclotomic literal")
    if s == "0":
        return CycNum.zero(order)
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
        while j < n and s[j] not in "+-":
            j += 1
        if j == i:
            raise ParseError(f"bad cyclotomic literal {text!r}")
        terms.append((sign, s[i:j]))
        i = j
    # the coefficient of z^k at position k mod order, reduced once
    coeffs = [0] * order
    for sg, term in terms:
        if "z" in term:
            if "*" in term:
                coeff_s, _, mono = term.partition("*")
                coeff = _parse_rat(coeff_s, text)
            else:
                coeff, mono = _ONE, term
            if mono == "z":
                k = 1
            elif mono.startswith("z^") and mono[2:].isdecimal():
                k = int(mono[2:])
            else:
                raise ParseError(f"bad cyclotomic literal {text!r}")
            if order <= 1:
                raise ParseError(f"power of z needs an order > 1: {text!r}")
            coeffs[k % order] += sg * coeff
        else:
            coeffs[0] += sg * _parse_rat(term, text)
    return CycNum(order, _combine(coeffs, order))


def _parse_rat(s, context):
    if not s or set(s) - _RAT_CHARS:
        raise ParseError(f"bad rational {s!r} in {context!r}")
    if "/" in s:
        nu, _, de = s.partition("/")
        if not nu.isdigit() or not de.isdigit() or int(de) == 0:
            raise ParseError(f"bad rational {s!r} in {context!r}")
        return Fraction(int(nu), int(de))
    return Fraction(int(s))
