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

from .cyclotomic import CycNum
from .errors import VerificationFailed
from .linalg import cyc_det, int_det
from .poly import Poly, poly_identity_test

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

    def with_notes(self, *extra):
        return replace(self, notes=self.notes + tuple(extra))


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


def _eval_factorization(F, point):
    val = F.constant
    for f, m in F.factors:
        v = f.evaluate(point)
        if isinstance(v, Fraction):
            v = CycNum.from_rational(v)
        val = val * v ** m
    return val


def verify_factorization(reference, F, mode="exact", seed=0, rounds=5):
    """Check that F multiplies out to the reference polynomial.

    mode "exact" expands F and compares term by term; "randomized" compares
    values at integer points without expanding. In both modes a nonzero F
    whose degree differs from the reference's is rejected first, without
    expanding or evaluating. Returns the verification record (also
    attached downstream); raises nothing on mismatch, the caller inspects
    the 'equal' flag.
    """
    if F.status == "zero":
        if mode == "exact":
            return {"equal": reference.is_zero(), "mode": "exact",
                    "rounds": 1, "seed": seed}
        rng = random.Random(seed)
        for i in range(rounds):
            point = {v: rng.randint(-RANDOM_BOUND, RANDOM_BOUND)
                     for v in sorted(reference.variables())}
            rv = reference.evaluate(point)
            nz = rv != 0 if isinstance(rv, Fraction) else not rv.is_zero()
            if nz:
                return {"equal": False, "mode": "randomized", "rounds": i + 1,
                        "seed": seed, "witness": point}
        return {"equal": True, "mode": "randomized", "rounds": rounds,
                "seed": seed}
    # A nonzero product has the summed degree of its factors, so a degree
    # mismatch settles the comparison without expanding or evaluating.
    nonzero = not F.constant.is_zero() and all(f for f, _ in F.factors)
    if nonzero and F.degree() != reference.total_degree():
        return {"equal": False, "mode": mode, "rounds": 0, "seed": seed}
    if mode == "exact":
        return poly_identity_test(reference, F.expand(), mode="exact",
                                  seed=seed, rounds=rounds)
    rng = random.Random(seed)
    vs = set(reference.variables())
    for f, _ in F.factors:
        vs |= set(f.variables())
    vs = sorted(vs)
    for i in range(rounds):
        point = {v: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for v in vs}
        rv = reference.evaluate(point)
        if isinstance(rv, Fraction):
            rv = CycNum.from_rational(rv)
        fv = _eval_factorization(F, point)
        if rv != fv:
            return {"equal": False, "mode": "randomized", "rounds": i + 1,
                    "seed": seed, "witness": point}
    return {"equal": True, "mode": "randomized", "rounds": rounds,
            "seed": seed}


def lift_zero(F, z):
    """Turn a factorization of the contracted determinant into one of the
    plain determinant of a semigroup whose zero has id z: multiply by x_z
    and shift every variable by -x_z. The verification record of F is
    carried over: theta = x_z * thetac(x_s - x_z) holds for every
    semigroup with a zero, so a check of F is a check of the lift."""
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
    lifted = Factorization.of(F.constant, factors, F.provenance,
                              F.notes + ("lifted from the contracted "
                                         "determinant",))
    return lifted.with_verification(F.verification)


def _table_det_at(S, point, mode="plain", cocycle=None):
    """Exact determinant of the plain, contracted or twisted multiplication
    matrix of S with each variable x_s set to point[s]: an int, or a CycNum
    for the twisted matrix."""
    t, z = S.table, S.zero
    if mode == "plain":
        return int_det([[point[t[a][b]] for b in range(S.n)]
                        for a in range(S.n)])
    basis = [s for s in range(S.n) if s != z]
    if mode == "contracted":
        return int_det([[point[t[a][b]] if t[a][b] != z else 0
                         for b in basis] for a in basis])
    zero = CycNum.zero(cocycle.order)
    return cyc_det([[CycNum.from_rational(point[t[a][b]], cocycle.order)
                     * cocycle.value(a, b) if t[a][b] != z else zero
                     for b in basis] for a in basis])


def random_table_check(S, F, mode="plain", cocycle=None, seed=0, rounds=5):
    """Compare F against the determinant of the plain, contracted or
    twisted multiplication matrix of S at random integer points, without
    any symbolic expansion."""
    basis = [s for s in range(S.n) if mode == "plain" or s != S.zero]
    rng = random.Random(seed)
    for i in range(rounds):
        point = {s: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for s in basis}
        if _eval_factorization(F, point) != _table_det_at(S, point, mode,
                                                          cocycle):
            return {"equal": False, "mode": "randomized", "rounds": i + 1,
                    "seed": seed, "witness": point}
    return {"equal": True, "mode": "randomized", "rounds": rounds,
            "seed": seed}


def checked(reference, F, mode="exact", seed=0, rounds=5):
    """verify_factorization that raises on mismatch and attaches the record."""
    v = verify_factorization(reference, F, mode=mode, seed=seed, rounds=rounds)
    if not v["equal"]:
        raise VerificationFailed(
            f"{F.provenance} factorization disagrees with the reference "
            f"determinant ({v['mode']} check)")
    return F.with_verification(v)
