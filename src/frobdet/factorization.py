"""Factored forms of semigroup determinants.

A Factorization is either Zero or a constant times a product of polynomial
factors with multiplicities. Factors are kept normalized: each factor is
scaled so that the coefficient of its least-index variable (leading term in
graded lex for higher degree factors) is 1, with the scaling absorbed into
the exact constant. Nothing here is ever a bare sign guess.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .cyclotomic import CycNum
from .errors import VerificationFailed
from .linalg import det_mod
from .modular import prime_for, root_of_unity
from .poly import Poly

RANDOM_BOUND = 10 ** 6


@dataclass(frozen=True)
class Factorization:
    status: str  # "zero" | "factored"
    constant: CycNum
    factors: tuple  # of (Poly, multiplicity)
    provenance: str
    notes: tuple = ()
    verification: dict | None = None

    @staticmethod
    def zero(provenance, notes=(), order=1):
        return Factorization("zero", CycNum.zero(order), (), provenance,
                             tuple(notes))

    @staticmethod
    def of(constant, factors, provenance, notes=()):
        if isinstance(constant, (int, Fraction)):
            constant = CycNum.from_rational(constant)
        f = Factorization("factored", constant, tuple(factors), provenance,
                          tuple(notes))
        return f.normalized()

    def expand(self):
        """Multiply out to a Poly."""
        if self.status == "zero":
            return Poly.zero(self.constant.order)
        p = Poly.const(self.constant)
        for f, m in self.factors:
            p = p * f ** m
        return p

    def degree(self):
        if self.status == "zero":
            return 0
        return sum(f.total_degree() * m for f, m in self.factors)

    def normalized(self):
        """Scale each factor to make its graded-lex leading coefficient 1,
        absorb the scaling into the constant, merge repeats, sort."""
        if self.status == "zero":
            return self
        const = self.constant
        merged = {}
        keys = {}
        for f, m in self.factors:
            if m <= 0:
                raise ValueError("factor multiplicities must be positive")
            lead = f.leading()[1]
            if not lead.is_one():
                const = const * lead ** m
                f = f.scale(lead.inverse())
            k = f.to_str()
            if k in merged:
                merged[k] = (merged[k][0], merged[k][1] + m)
            else:
                merged[k] = (f, m)
                keys[k] = (f.total_degree(), k)
        order = sorted(merged, key=lambda k: keys[k])
        return replace(self, constant=const,
                       factors=tuple(merged[k] for k in order))

    def with_verification(self, v):
        return replace(self, verification=v)


def equivalent(a, b):
    """Same factored form after normalization."""
    a, b = a.normalized(), b.normalized()
    if a.status != b.status:
        return False
    if a.status == "zero":
        return True
    if a.constant != b.constant or len(a.factors) != len(b.factors):
        return False
    return all(f == g and m == k
               for (f, m), (g, k) in zip(a.factors, b.factors))


def random_points(variables, seed, rounds):
    """The points of a randomized check: `rounds` maps from the variables,
    in the order given, to integers in [-RANDOM_BOUND, RANDOM_BOUND], all
    drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(rounds):
        yield {v: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for v in variables}


class _Reduction:
    """Reduction of cyclotomic values mod a prime p = 1 (mod N) above 2^61
    chosen from the seed, with zeta_N sent to a primitive N-th root of
    unity mod p. N is the lcm of the orders of the given values and p
    divides none of their denominators, so the reduction is a ring
    homomorphism on everything built from them: values equal in Q(zeta_N)
    are equal mod p."""

    def __init__(self, values, seed):
        self.order = lcm(1, *(c.order for c in values))
        avoid = lcm(1, *(c.den for c in values))
        self.p = prime_for(self.order, seed, avoid)
        self.root = root_of_unity(self.order, self.p)

    def image(self, c):
        p, step = self.p, self.order // c.order
        total = 0
        for j, x in enumerate(c.nums):
            if x:
                total += x * pow(self.root, j * step, p)
        return total * pow(c.den, -1, p) % p

    def poly(self, f):
        """A function from an integer point to the value of f there mod p."""
        p = self.p
        terms = [(m, self.image(c)) for m, c in f.terms.items()]

        def value(point):
            total = 0
            for m, c in terms:
                for v, e in m:
                    c = c * pow(point[v], e, p) % p
                total += c
            return total % p
        return value

    def factorization(self, F):
        """A function from an integer point to the value of F there mod p:
        each factor is evaluated once and raised to its multiplicity."""
        p = self.p
        constant = self.image(F.constant)
        factors = [(self.poly(f), m) for f, m in F.factors]

        def value(point):
            v = constant
            for f, m in factors:
                v = v * pow(f(point), m, p) % p
            return v
        return value


def _values(F):
    """The constant and every coefficient of F."""
    return [F.constant] + [c for f, _ in F.factors for c in f.terms.values()]


def _randomized_record(F, other, variables, reduction, seed, rounds):
    """Compare F with `other`, a function from an integer point to a value
    mod reduction.p, at the seeded points."""
    value = reduction.factorization(F)
    for i, point in enumerate(random_points(variables, seed, rounds)):
        if value(point) != other(point):
            return {"equal": False, "mode": "randomized", "rounds": i + 1,
                    "seed": seed, "witness": point}
    return {"equal": True, "mode": "randomized", "rounds": rounds,
            "seed": seed}


def verify_factorization(reference, F, mode="exact", seed=0, rounds=5):
    """Check that F multiplies out to the reference polynomial.

    mode "exact" expands F and compares term by term; "randomized" compares
    values at the seeded integer points modulo a prime, without expanding
    (see _Reduction). In both modes a nonzero F whose degree differs from
    the reference's is rejected first, without expanding or evaluating.
    Returns the verification record (also attached downstream); raises
    nothing on mismatch, the caller inspects the 'equal' flag.
    """
    if F.status == "zero":
        if mode == "exact":
            return {"equal": reference.is_zero(), "mode": "exact",
                    "rounds": 1, "seed": seed}
        # the value is 0 whatever constant and factors a file gives it
        F = Factorization.zero(F.provenance)
    # A nonzero product has the summed degree of its factors, so a degree
    # mismatch settles the comparison without expanding or evaluating.
    nonzero = not F.constant.is_zero() and all(f for f, _ in F.factors)
    if nonzero and F.degree() != reference.total_degree():
        return {"equal": False, "mode": mode, "rounds": 0, "seed": seed}
    if mode == "exact":
        return {"equal": reference == F.expand(), "mode": "exact",
                "rounds": 0, "seed": seed}
    variables = sorted(reference.variables().union(
        *(f.variables() for f, _ in F.factors)))
    reduction = _Reduction(_values(F) + list(reference.terms.values()), seed)
    return _randomized_record(F, reduction.poly(reference), variables,
                              reduction, seed, rounds)


def lift_zero(F, z):
    """Turn a factorization of the contracted determinant into one of the
    plain determinant of a semigroup whose zero has id z: multiply by x_z
    and shift every variable by -x_z, since theta = x_z * thetac(x_s - x_z)
    holds for every semigroup with a zero. The lift is unchecked."""
    if F.status == "zero":
        return replace(F, notes=F.notes + ("plain determinant vanishes "
                                           "with the contracted one",))
    xz = Poly.variable(z, F.constant.order)
    factors = []
    for f, m in F.factors:
        sub = {v: Poly.variable(v, f.order) - Poly.variable(z, f.order)
               for v in f.variables()}
        factors.append((f.substitute(sub), m))
    factors.append((xz, 1))
    return Factorization.of(F.constant, factors, F.provenance,
                            F.notes + ("lifted from the contracted "
                                       "determinant",))


def random_table_check(S, F, mode="plain", cocycle=None, seed=0, rounds=5):
    """Compare F against the determinant of the plain, contracted or
    twisted multiplication matrix of S at the seeded integer points,
    modulo a prime (see _Reduction), without any symbolic expansion."""
    t, z = S.table, S.zero
    basis = [s for s in range(S.n) if mode == "plain" or s != z]
    twist = {(a, b): cocycle.value(a, b) for a in basis for b in basis
             if t[a][b] != z} if mode == "twisted" else {}
    reduction = _Reduction(_values(F) + list(twist.values()), seed)

    def weight(a, b):
        if (a, b) in twist:
            return reduction.image(twist[a, b])
        return 1 if mode == "plain" or t[a][b] != z else 0

    cells = [[(t[a][b], weight(a, b)) for b in basis] for a in basis]

    def det_at(point):
        return det_mod([[point[s] * w if w else 0 for s, w in row]
                        for row in cells], reduction.p)
    return _randomized_record(F, det_at, basis, reduction, seed, rounds)


def checked(reference, F, mode="exact", seed=0, rounds=5):
    """verify_factorization that raises on mismatch and attaches the record."""
    v = verify_factorization(reference, F, mode=mode, seed=seed, rounds=rounds)
    if not v["equal"]:
        raise VerificationFailed(
            f"{F.provenance} factorization disagrees with the reference "
            f"determinant ({v['mode']} check)")
    return F.with_verification(v)
