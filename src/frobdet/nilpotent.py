"""Monoids built from a nilpotent semigroup with an identity adjoined,
and their contracted determinants, optionally twisted by a cocycle.

The contracted determinant of such a monoid vanishes unless there is a
unique element z' (apart from the zero) killed by everything, in which
case it collapses to det(A) x_{z'}^(n-1) where A records which products
land on z'.
"""

from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycNum, parse_cyc
from .errors import (CocycleDomainMismatch, CocycleInvalid, FormatError,
                     NotNilpotentAdjoined, NoUniqueAnnihilator)
from .factorization import Factorization
from .linalg import cyc_det
from .poly import Poly


@dataclass(frozen=True)
class Cocycle:
    n: int  # size of the monoid the cocycle lives on
    order: int
    values: tuple  # tuple of ((s, t), CycNum), only the entries not 1

    @cached_property
    def _value_of(self):
        return dict(self.values)

    def value(self, s, t):
        v = self._value_of.get((s, t))
        return CycNum.one(self.order) if v is None else v

    @staticmethod
    def for_monoid(M, values=None, order=1):
        """Build and validate a cocycle on M. values maps pairs (s, t) to
        CycNum | int | Fraction; omitted pairs are 1. Pairs whose product
        is the zero of M are outside the domain and must be absent."""
        if M.identity is None:
            raise CocycleDomainMismatch("cocycle normalization needs an "
                                        "identity element")
        e, z = M.identity, M.zero
        vals = {}
        for (s, t), v in (values or {}).items():
            if not (0 <= s < M.n and 0 <= t < M.n):
                raise CocycleDomainMismatch(f"pair ({s}, {t}) out of range")
            if z is not None and M.table[s][t] == z:
                raise CocycleInvalid(
                    f"pair ({M.name_of(s)}, {M.name_of(t)}) multiplies to "
                    f"the zero and is outside the cocycle domain")
            if not isinstance(v, CycNum):
                v = CycNum.from_rational(v, order)
            elif v.order != order:
                if order % v.order != 0:
                    raise CocycleDomainMismatch(
                        f"value at ({s}, {t}) lives at order {v.order}, "
                        f"which does not divide {order}")
                v = v.embed(order)
            if v.is_zero():
                raise CocycleInvalid("cocycle values must be nonzero")
            if not v.is_one():
                vals[(s, t)] = v
        c = Cocycle(M.n, order, tuple(sorted(vals.items())))
        # normalization
        for m in range(M.n):
            if not c.value(e, m).is_one() or not c.value(m, e).is_one():
                raise CocycleInvalid(
                    f"cocycle is not normalized at {M.name_of(m)}")
        # twisted associativity away from the zero
        for s in range(M.n):
            for t in range(M.n):
                st = M.table[s][t]
                for u in range(M.n):
                    if z is not None and M.table[st][u] == z:
                        continue
                    lhs = c.value(s, t) * c.value(st, u)
                    rhs = c.value(t, u) * c.value(s, M.table[t][u])
                    if lhs != rhs:
                        raise CocycleInvalid(
                            f"twisted associativity fails at "
                            f"({M.name_of(s)}, {M.name_of(t)}, {M.name_of(u)})")
        return c


def parse_cocycle(text, M):
    """Read a cocycle file: optional 'order N' first, then lines
    's t value' naming elements of M (or 1-based indices when M is
    unnamed); '#' starts a comment. Omitted pairs are 1."""
    lines = [ln.strip() for ln in text.replace("\r\n", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    order = 1
    start = 0
    if lines and lines[0].startswith("order"):
        toks = lines[0].split()
        if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
            raise FormatError(f"bad order line {lines[0]!r}")
        order = int(toks[1])
        start = 1

    index = {name: i for i, name in enumerate(M.names or ())}

    def resolve(tok):
        if tok in index:
            return index[tok]
        if M.names is None and tok.isdecimal() and 1 <= int(tok) <= M.n:
            return int(tok) - 1
        raise FormatError(f"unknown element {tok!r}")

    values = {}
    for ln in lines[start:]:
        toks = ln.split(None, 2)
        if len(toks) != 3:
            raise FormatError(f"expected 's t value', got {ln!r}")
        s, t = resolve(toks[0]), resolve(toks[1])
        if (s, t) in values:
            raise FormatError(f"duplicate pair in cocycle file: {ln!r}")
        values[(s, t)] = parse_cyc(toks[2], order)
    return Cocycle.for_monoid(M, values, order)


@dataclass(frozen=True)
class NilReport:
    is_nilpotent_adjoined: bool
    reason: str | None
    index: int | None  # least k with every k-fold product of nonunits zero
    left_annihilators: tuple
    right_annihilators: tuple
    annihilators: tuple  # two sided, excluding the zero
    unique_annihilator: int | None


def first_non_nilpotent(M, elements):
    """The first of elements whose powers s, s^2, ... never reach the zero
    of M, or None when every one of them is nilpotent."""
    t, z = M.table, M.zero
    for s in elements:
        p, steps = s, 0
        while p != z:
            p = t[p][s]
            steps += 1
            if steps > M.n:
                return s
    return None


def analyze_nilpotent(M):
    """Check the shape identity + nilpotent part, and find the elements
    that kill everything."""
    t = M.table
    if M.identity is None:
        return NilReport(False, "no identity element", None, (), (), (), None)
    if M.zero is None:
        return NilReport(False, "no zero element", None, (), (), (), None)
    e, z = M.identity, M.zero
    if M.n == 1:
        return NilReport(False, "trivial monoid has no nilpotent part",
                         None, (), (), (), None)
    rest = [s for s in range(M.n) if s != e]
    # nilpotency of every non-identity element, and no stray units
    s = first_non_nilpotent(M, rest)
    if s is not None:
        return NilReport(False, f"{M.name_of(s)} is not nilpotent",
                         None, (), (), (), None)
    # least k with all k-fold products of non-identity elements zero
    current = set(rest)
    k = 1
    while current != {z}:
        current = {t[a][b] for a in current for b in rest}
        k += 1
        if k > M.n + 1:
            return NilReport(False, "products do not reach the zero",
                             None, (), (), (), None)
    left = tuple(m for m in range(M.n)
                 if m != z and all(t[m][s] == z for s in rest))
    right = tuple(m for m in range(M.n)
                  if m != z and all(t[s][m] == z for s in rest))
    both = tuple(m for m in left if m in right)
    unique = both[0] if len(both) == 1 else None
    return NilReport(True, None, k, left, right, both, unique)


def annihilator_matrix(M, cocycle=None):
    """The matrix A over the basis M minus the zero, with A[s][t] equal to
    c(s, t) when st is the unique annihilator and 0 otherwise."""
    rep = analyze_nilpotent(M)
    if not rep.is_nilpotent_adjoined:
        raise NotNilpotentAdjoined(rep.reason)
    if rep.unique_annihilator is None:
        raise NoUniqueAnnihilator(
            f"{len(rep.annihilators)} two-sided annihilating elements")
    zp, z = rep.unique_annihilator, M.zero
    order = cocycle.order if cocycle is not None else 1
    basis = tuple(s for s in range(M.n) if s != z)
    mat = []
    for s in basis:
        row = []
        for t in basis:
            if M.table[s][t] == zp:
                row.append(cocycle.value(s, t) if cocycle is not None
                           else CycNum.one(order))
            else:
                row.append(CycNum.zero(order))
        mat.append(row)
    return mat, basis, zp


def factor_nil_adjoined(M, cocycle=None):
    """Factor the contracted (optionally twisted) determinant of a
    nilpotent-adjoined monoid: det(A) x_{z'}^(n-1), or Zero with the
    reason surfaced in the notes."""
    rep = analyze_nilpotent(M)
    if not rep.is_nilpotent_adjoined:
        raise NotNilpotentAdjoined(rep.reason)
    if cocycle is not None and cocycle.n != M.n:
        raise CocycleDomainMismatch(
            f"cocycle on {cocycle.n} elements, monoid has {M.n}")
    order = cocycle.order if cocycle is not None else 1
    if rep.unique_annihilator is None:
        return Factorization.zero(
            "nilpotent-annihilator",
            notes=(f"{len(rep.annihilators)} two-sided annihilating "
                   f"elements instead of one",),
            order=order)
    mat, _, zp = annihilator_matrix(M, cocycle)
    d = cyc_det(mat)
    if d.is_zero():
        return Factorization.zero(
            "nilpotent-annihilator",
            notes=("the annihilator matrix is singular: det A = 0",),
            order=order)
    return Factorization.of(d, [(Poly.variable(zp, order), M.n - 1)],
                            "nilpotent-annihilator")
