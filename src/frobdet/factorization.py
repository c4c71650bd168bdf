"""Factored forms of semigroup determinants.

A Factorization is either Zero or a constant times a product of polynomial
factors with multiplicities. Factors are kept normalized: each factor is
scaled so that the coefficient of its least-index variable (leading term in
graded lex for higher degree factors) is 1, with the scaling absorbed into
the exact constant. Nothing here is ever a bare sign guess.
"""

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

from . import poly
from .cyclotomic import CycNum, _phi, power_basis_bound
from .errors import DimensionCap, VerificationFailed
from .linalg import det_mod
from .modular import fixed_prime, prime_for, root_of_unity
from .poly import Poly, _add_product, mono_deg

RANDOM_BOUND = 10 ** 6


@dataclass(frozen=True)
class Factorization:
    status: str  # "zero" | "factored"
    constant: CycNum
    factors: tuple  # of (Poly, multiplicity)
    provenance: str
    notes: tuple = ()
    verification: dict | None = None
    # (N, columns): the characters phi_j of an algebra isomorphism
    # CS -> C^n that a linear route names, each column giving the
    # exponent of phi_j(s) = z_N^e for every element s, or None where
    # phi_j(s) = 0. Read only by the exact check, never printed.
    characters: tuple | None = field(default=None, compare=False,
                                     repr=False)

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
        """Multiply out to a Poly. The exact check does not call this
        (see _expands_to); tests use it as their reference, and it stays
        here because perfbench's tracer wraps it by name."""
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
        absorb the scaling into the constant, merge equal factors, and
        sort by degree, then canonical string, then cyclotomic order.
        Factors are equal when they print the same at one order: z stands
        for a different root at each order."""
        if self.status == "zero":
            return self
        const, factors = _monic(self.constant, self.factors)
        merged = {}
        for f, m in factors:
            text = f.to_str()
            k = (mono_deg(f.printed()[0][0]), text, f.order)
            merged[k] = (f, merged[k][1] + m if k in merged else m)
        return replace(self, constant=const,
                       factors=tuple(merged[k] for k in sorted(merged)))

    def with_verification(self, v):
        return replace(self, verification=v)


def _monic(constant, factors):
    """(constant, factors) with each factor scaled to graded-lex leading
    coefficient 1 and the scaling absorbed into the constant; the factors
    keep their order and are not merged."""
    out = []
    for f, m in factors:
        if m <= 0:
            raise ValueError("factor multiplicities must be positive")
        lead = f.leading()[1]
        if not lead.is_one():
            constant = constant * lead ** m
            f = f.scale(lead.inverse())
        out.append((f, m))
    return constant, out


def random_points(variables, seed, rounds):
    """The points of a randomized check: `rounds` maps from the variables,
    in the order given, to integers in [-RANDOM_BOUND, RANDOM_BOUND], all
    drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(rounds):
        yield {v: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for v in variables}


def _gather(indices):
    """A function from a sequence or a dict to the tuple of its entries at
    the given indices (itemgetter alone returns a bare entry for one)."""
    if len(indices) == 1:
        i, = indices
        return lambda x: (x[i],)
    return itemgetter(*indices)


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
        # order M of a value -> the images of its power basis,
        # root^(j*N/M) mod p for j < phi(M)
        self.powers = {}

    def image(self, c):
        p, powers = self.p, self.powers.get(c.order)
        if powers is None:
            step = self.order // c.order
            powers = self.powers[c.order] = [
                pow(self.root, j * step, p) for j in range(len(c.nums))]
        return sum(map(mul, c.nums, powers)) * pow(c.den, -1, p) % p

    def poly(self, f):
        """A function from an integer point to the value of f there mod p;
        a linear form is one sum over its variables."""
        p = self.p
        terms = [(m, self.image(c)) for m, c in f.terms.items()]
        if terms and all(len(m) == 1 and m[0][1] == 1 for m, _ in terms):
            coefficients = [c for _, c in terms]
            at = _gather([m[0][0] for m, _ in terms])
            return lambda point: sum(map(mul, coefficients, at(point))) % p

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


def _unit_generators(order):
    """Units mod order, each outside the subgroup that the ones before it
    generate, until they generate every unit."""
    gens, span = [], {1 % order}
    for k in range(2, order):
        if gcd(k, order) == 1 and k not in span:
            gens.append(k)
            # span * <k> as the union of the cosets span * k^i, which are
            # disjoint or equal
            coset = span
            while (coset := {x * k % order for x in coset}).isdisjoint(span):
                span = span | coset
    return gens


def _galois_closed(factors, order):
    """Whether every automorphism zeta -> zeta^k of Q(zeta_order) permutes
    the factors with their multiplicities, compared on canonical strings.
    The automorphisms of a generating set of the units suffice."""
    factors = [(f.at_order(order), m) for f, m in factors]
    counts = Counter()
    for f, m in factors:
        counts[f.to_str()] += m
    for k in _unit_generators(order):
        image = Counter()
        for f, m in factors:
            image[Poly(order, {x: c.galois(k) for x, c in f.terms.items()})
                  .to_str()] += m
        if image != counts:
            return False
    return True


def _expands_to(reference, F, degree):
    """Whether the nonzero F multiplies out to reference, both of the
    given degree, decided exactly modulo fixed primes without Poly or
    CycNum arithmetic.

    Let N be the lcm of the cyclotomic orders of F and reference. The
    constant and each factor are scaled to integer power-basis coordinates
    at N; T is the product of the scales, each factor's to its
    multiplicity. Modulo each fixed prime p = 1 (mod N) (see
    modular.fixed_prime), with zeta_N sent to a primitive N-th root of
    unity r mod p, T*F is multiplied out on packed integer keys (each
    variable's exponent in a digit of its own, no zeta digit), reduced
    mod p after each factor, and compared with T*reference. A reference that
    T does not scale into Z[zeta_N] differs from F. Agreement at every r
    makes each power-basis coordinate of the difference divisible by p,
    so primes are added until their product exceeds 2B, where B bounds
    those coordinates: R_N times the product of the coordinate 1-norms of
    the constant and of each factor to its multiplicity (see
    cyclotomic.power_basis_bound), plus the largest coordinate of
    T*reference. One root suffices when N <= 2, and when reference and
    the constant are rational and the factors are Galois-closed: then F
    multiplies out to a rational polynomial, and B drops the factor R_N,
    since |zeta^j| = 1. Holding more than poly.TERM_BUDGET terms raises
    DimensionCap."""
    order = lcm(F.constant.order, reference.order,
                *(f.order for f, _ in F.factors))
    width = max(degree, 1).bit_length()
    shift = {}  # variable -> its digit's offset, in order of appearance

    def key(x):
        k = 0
        for v, e in x:
            if v not in shift:
                shift[v] = width * len(shift)
            k += e << shift[v]
        return k

    def scaled(terms):
        """(scale, [(key, the nonzero integer coordinates (t, a) of
        scale * c)])."""
        terms = [(x, c.embed(order)) for x, c in terms]
        s = lcm(*(c.den for _, c in terms))
        return s, [(key(x), [(t, a * (s // c.den))
                             for t, a in enumerate(c.nums) if a])
                   for x, c in terms]

    total, [(_, constant)] = scaled([((), F.constant)])
    product = sum(abs(a) for _, a in constant)
    factors = []
    for f, m in F.factors:
        s, terms = scaled(f.terms.items())
        total *= s ** m
        product *= sum([abs(a) for _, c in terms for _, a in c]) ** m
        factors.append((terms, m))
    target = []
    for x, c in reference.terms.items():
        c = c.embed(order)
        nums = [(t, a * total) for t, a in enumerate(c.nums) if a]
        if c.den != 1:
            if any(a % c.den for _, a in nums):
                return False
            nums = [(t, a // c.den) for t, a in nums]
        target.append((key(x), nums))
    phi = _phi(order)
    one_root = phi == 1 or (
        F.constant.is_rational()
        and all(c.is_rational() for c in reference.terms.values())
        and _galois_closed(F.factors, order))
    bound = product * (1 if one_root else power_basis_bound(order)) + max(
        [abs(a) for _, c in target for _, a in c], default=0)
    # the powers of zeta that some coordinate uses, in increasing order
    exponents = sorted({t for t, _ in constant}
                       | {t for _, c in target for t, _ in c}
                       | {t for terms, _ in factors
                          for _, c in terms for t, _ in c})
    modulus, i = 1, 0
    while modulus <= 2 * bound:
        p, w = fixed_prime(order, i)
        roots = [w] if one_root else [pow(w, k, p) for k in range(order)
                                      if gcd(k, order) == 1]
        for r in roots:
            pw, x, prev = {}, 1, 0
            for t in exponents:
                x = x * pow(r, t - prev, p) % p
                pw[t], prev = x, t

            def image(c):
                return sum([a * pw[t] for t, a in c]) % p

            v = image(constant)
            acc = {0: v} if v else {}
            for terms, m in factors:
                f = {}
                for k, c in terms:
                    if v := image(c):
                        f[k] = v
                for _ in range(m):
                    out = {}
                    _add_product(out, acc, f)
                    acc = {k: v for k, c in out.items() if (v := c % p)}
                    if len(acc) > poly.TERM_BUDGET:
                        raise DimensionCap(
                            f"expansion of a factorization exceeds the "
                            f"budget of {poly.TERM_BUDGET} terms")
            if acc != {k: v for k, c in target if (v := image(c))}:
                return False
        modulus *= p
        i += 1
    return True


def verify_factorization(reference, F, mode="exact", seed=0, rounds=5):
    """Check that F multiplies out to the reference polynomial.

    mode "exact" decides the identity modulo fixed primes (see
    _expands_to); "randomized" compares values at the seeded integer
    points modulo a prime, without expanding (see _Reduction). In both
    modes a nonzero F whose degree differs from the reference's is
    rejected first, without expanding or evaluating. Returns the
    verification record (also attached downstream); raises nothing on
    mismatch, the caller inspects the 'equal' flag.
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
    degree = F.degree()
    if nonzero and degree != reference.total_degree():
        return {"equal": False, "mode": mode, "rounds": 0, "seed": seed}
    if mode == "exact":
        equal = (_expands_to(reference, F, degree) if nonzero
                 else reference.is_zero())
        return {"equal": equal, "mode": "exact", "rounds": 0, "seed": seed}
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
    rows = [_gather([t[a][b] for b in basis]) for a in basis]
    weights = [[reduction.image(twist[a, b]) if (a, b) in twist else 0
                for b in basis] for a in basis] if twist else None

    def det_at(point):
        # x_z is 0 in the contracted and twisted matrices
        x = [point.get(s, 0) for s in range(S.n)]
        m = [row(x) for row in rows]
        if weights:
            m = [list(map(mul, r, w)) for r, w in zip(m, weights)]
        return det_mod(m, reduction.p)
    return _randomized_record(F, det_at, basis, reduction, seed, rounds)


def checked(reference, F, mode="exact", seed=0, rounds=5):
    """verify_factorization that raises on mismatch and attaches the record."""
    v = verify_factorization(reference, F, mode=mode, seed=seed, rounds=rounds)
    if not v["equal"]:
        raise VerificationFailed(
            f"{F.provenance} factorization disagrees with the reference "
            f"determinant ({v['mode']} check)")
    return F.with_verification(v)
