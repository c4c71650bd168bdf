"""Semigroup determinants: the matrix [x_{st}], its contracted and twisted
variants, their check against an answer, vanishing tests, and group
determinants.

Variables are indexed by element id: entry (s, t) of the plain matrix is
the variable x_{st}. Contracted matrices keep the ambient ids and drop the
zero row and column, writing 0 where a product hits the zero.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .characters import character_group
from .cyclotomic import CycNum, _combine, _phi, _product
from .errors import (CocycleDomainMismatch, NoZero, NotAbelianWithoutReps,
                     NotAGroup, NotMultiplicative, RepDimensionMismatch,
                     VerificationFailed)
from .factorization import (Factorization, _monic, checked,
                            random_points, random_table_check)
from .linalg import int_det
from .poly import DEFAULT_CAP, Poly, det_poly_matrix
from .semigroups import analyze


@dataclass(frozen=True)
class ParatrophicMatrix:
    mode: str  # "plain" | "contracted" | "twisted" | "groupoid"
    basis: tuple  # element ids labelling rows and columns
    entries: tuple  # tuple of row tuples of Poly


def cayley_matrix(S, mode="plain", cocycle=None):
    """The multiplication matrix of S in one of the table presentations.
    A contracted matrix is the twisted one with every cocycle value 1."""
    if mode not in ("plain", "contracted", "twisted"):
        raise ValueError(f"unknown matrix mode {mode!r}")
    n, t = S.n, S.table
    z, order, weight = None, 1, None
    if mode != "plain":
        if S.zero is None:
            raise NoZero("contracted matrix needs a zero element")
        z = S.zero
    if mode == "twisted":
        if cocycle is None:
            raise CocycleDomainMismatch("twisted matrix needs a cocycle")
        if cocycle.n != n:
            raise CocycleDomainMismatch(
                f"cocycle on {cocycle.n} elements, semigroup has {n}")
        order, weight = cocycle.order, cocycle.value
    basis = tuple(s for s in range(n) if s != z)
    rows = []
    for a in basis:
        row = []
        for b in basis:
            p = t[a][b]
            if p == z:
                row.append(Poly.zero(order))
            elif weight is None:
                row.append(Poly.variable(p))
            else:
                row.append(Poly.variable(p, order).scale(weight(a, b)))
        rows.append(tuple(row))
    return ParatrophicMatrix(mode, basis, tuple(rows))


def paratrophic_determinant(S, mode="plain", cocycle=None, cap=DEFAULT_CAP):
    """Symbolic determinant of the chosen multiplication matrix.

    Nonzero results are homogeneous of degree equal to the matrix size,
    which is asserted.
    """
    pm = cayley_matrix(S, mode=mode, cocycle=cocycle)
    det = det_poly_matrix([list(r) for r in pm.entries], cap=cap)
    if not det.is_zero():
        assert det.is_homogeneous() and det.total_degree() == len(pm.basis)
    return det


def verify_against(S, F, mode="plain", cocycle=None, cap=DEFAULT_CAP,
                   seed=0):
    """Check F against the plain, contracted or twisted determinant of S
    and attach the record. The check is exact when the matrix dimension is
    within cap and randomized otherwise; a mismatch raises
    VerificationFailed. An exact check first tries the characters F
    carries (see _character_check) and expands the determinant only when
    that check does not pass.

    A plain F for S with a zero z is checked on the contracted determinant
    instead, when that check is exact and F = x_z * G(x_s - x_z) for some
    G free of x_z: theta = x_z * thetac(x_s - x_z) holds for every
    semigroup with a zero, so F = theta exactly when G = thetac, and F
    gets the record of that check."""
    if mode == "plain" and S.zero is not None and 1 <= S.n - 1 <= cap:
        G = _unlift_zero(F, S.zero)
        if G is not None:
            G = _exact_check(S, G, "contracted", None, cap, seed)
            return F.with_verification(G.verification)
    dim = S.n if mode == "plain" else S.n - 1
    if dim <= cap:
        return _exact_check(S, F, mode, cocycle, cap, seed)
    v = random_table_check(S, F, mode, cocycle, seed=seed)
    if not v["equal"]:
        raise VerificationFailed(f"{F.provenance} factorization failed a "
                                 "randomized determinant check")
    return F.with_verification(v)


def _exact_check(S, F, mode, cocycle, cap, seed):
    """F with the record of its exact check: by its characters when that
    check passes, and otherwise by expanding the determinant."""
    if _character_check(S, F, mode, seed):
        return F.with_verification({"equal": True, "mode": "exact",
                                    "rounds": 0, "seed": seed})
    return checked(paratrophic_determinant(S, mode, cocycle, cap), F,
                   mode="exact", seed=seed)


def _character_check(S, F, mode, seed, rounds=5):
    """Whether F is the plain or contracted determinant of S by the
    characters F carries, decided on integers without Poly or CycNum
    arithmetic. False when any step fails: the caller then expands.

    theta is the Gram determinant of (a, b) -> x(ab) on the algebra CS,
    or on C0S = CS/Cz when contracted. Let Phi[s][j] = phi_j(s) for n
    columns multiplicative on the basis. If F has n linear factors
    L_i = sum_s c_is x_s of multiplicity 1 and C Phi is monomial, then
    Phi is invertible, so phi is an algebra isomorphism onto C^n and
    theta = det(Phi)^2 prod Y_j with x = Phi Y, and each L_i is a nonzero
    multiple of its own Y_j: theta = k prod L_i for one constant k. The
    first seeded point where prod L_i is nonzero pins k against one
    integer determinant. A contracted check reads the columns that vanish
    at the zero."""
    if F.status != "factored" or F.characters is None or mode == "twisted":
        return False
    t, z = S.table, S.zero
    basis = [s for s in range(S.n) if mode == "plain" or s != z]
    order, columns = F.characters
    if mode == "contracted":
        columns = [c for c in columns if c[z] is None]
    n = len(basis)
    if len(columns) != n or len(F.factors) != n:
        return False
    for c in columns:
        for a in basis:
            for b in basis:
                ab = (None if c[a] is None or c[b] is None
                      else (c[a] + c[b]) % order)
                if c[t[a][b]] != ab:
                    return False
    # each L_i scaled by d_i to the integer coordinates at N of its c_is
    N = lcm(order, F.constant.order, *(f.order for f, _ in F.factors))
    phi, step, elements = _phi(N), N // order, set(basis)
    forms = []
    for f, m in F.factors:
        if m != 1 or any(len(x) != 1 or x[0][1] != 1
                         or x[0][0] not in elements for x in f.terms):
            return False
        terms = [(x[0][0], c.embed(N)) for x, c in f.terms.items()]
        d = lcm(*(c.den for _, c in terms))
        forms.append((d, [(s, [a * (d // c.den) for a in c.nums])
                          for s, c in terms]))
    used = set()
    for _, terms in forms:
        hits = []
        for j, c in enumerate(columns):
            acc = [0] * (phi + N)
            for s, nums in terms:
                if c[s] is not None:
                    k = c[s] * step
                    for i, a in enumerate(nums):
                        acc[k + i] += a
            if any(_combine(acc, N)):
                hits.append(j)
        if len(hits) != 1 or hits[0] in used:
            return False
        used.add(hits[0])
    constant = F.constant.embed(N)
    for point in random_points(basis, seed, rounds):
        values = [[sum(point[s] * nums[i] for s, nums in terms)
                   for i in range(phi)] for _, terms in forms]
        if all(any(v) for v in values):
            break
    else:
        return False
    value, scale = list(constant.nums), constant.den
    for (d, _), v in zip(forms, values):
        value, scale = _product(value, v, N), scale * d
    theta = int_det([[0 if t[a][b] == z and mode == "contracted"
                      else point[t[a][b]] for b in basis] for a in basis])
    return value == [theta * scale] + [0] * (phi - 1)


def _unlift_zero(F, z):
    """G with F = x_z * G(x_s - x_z), G free of x_z, or None when F has no
    such shape. A zero F is its own G. G is only checked, never printed,
    so it is left unnormalized."""
    if F.status == "zero":
        return F
    xz = Poly.variable(z)
    if sum(m for f, m in F.factors if f == xz) != 1:
        return None
    factors = []
    for f, m in F.factors:
        if f == xz:
            continue
        g = f.substitute({v: Poly.variable(v) + xz
                          for v in f.variables() if v != z})
        if z in g.variables():
            return None
        factors.append((g, m))
    return replace(F, factors=tuple(factors))


@dataclass(frozen=True)
class FrobeniusResult:
    status: str  # "frobenius" | "not_frobenius" | "inconclusive"
    reason: str | None = None
    witness: dict | None = None
    verification: dict | None = None


def frobenius_test(S, seed=0, rounds=5, cap=DEFAULT_CAP):
    """Decide whether the semigroup determinant of S is nonzero.

    Cheap necessary conditions first (surjectivity of multiplication and
    the balanced fixed-point profile), then random integer evaluations of
    the determinant, then the symbolic determinant when the size is within
    cap. Only sizes above cap with all-zero samples come back inconclusive.
    """
    rep = analyze(S)
    if not rep.is_surjective_square:
        missing = [s for s in range(S.n) if s not in rep.square]
        return FrobeniusResult(
            "not_frobenius",
            reason="products miss " + ", ".join(S.name_of(m) for m in missing))
    for s, (l, r) in enumerate(rep.fixed_points):
        if l != r:
            return FrobeniusResult(
                "not_frobenius",
                reason=f"{S.name_of(s)} fixes {l} elements on the left "
                       f"and {r} on the right")
    t = S.table
    for i, point in enumerate(random_points(range(S.n), seed, rounds)):
        d = int_det([[point[t[a][b]] for b in range(S.n)]
                     for a in range(S.n)])
        if d != 0:
            return FrobeniusResult(
                "frobenius",
                witness={"point": point, "determinant": d},
                verification={"mode": "randomized", "rounds": i + 1,
                              "seed": seed})
    if S.n <= cap:
        theta = paratrophic_determinant(S, cap=cap)
        if theta.is_zero():
            return FrobeniusResult(
                "not_frobenius", reason="the determinant is identically zero",
                verification={"mode": "exact", "rounds": 1, "seed": seed})
        return FrobeniusResult(
            "frobenius",
            verification={"mode": "exact", "rounds": 1, "seed": seed})
    return FrobeniusResult(
        "inconclusive",
        reason=f"{rounds} random evaluations vanished and size {S.n} "
               f"is above the symbolic cap {cap}",
        verification={"mode": "randomized", "rounds": rounds, "seed": seed})


def _as_cyc(x, order=1):
    if isinstance(x, CycNum):
        return x
    return CycNum.from_rational(Fraction(x), order)


@dataclass(frozen=True)
class RepMatrix:
    """A matrix representation of a group: mats[g] is a dim x dim matrix."""
    dim: int
    mats: tuple  # per element, tuple of row tuples of CycNum

    @staticmethod
    def make(G, mats, order=1):
        if len(mats) != G.n:
            raise RepDimensionMismatch(
                f"{len(mats)} matrices for a group of size {G.n}")
        dim = len(mats[0])
        conv = []
        for g, m in enumerate(mats):
            if len(m) != dim or any(len(r) != dim for r in m):
                raise RepDimensionMismatch(
                    f"matrix for {G.name_of(g)} is not {dim} x {dim}")
            conv.append(tuple(tuple(_as_cyc(v, order) for v in r) for r in m))
        conv = tuple(conv)
        e = G.identity
        if e is None:
            raise NotAGroup("representation needs a group")
        for i in range(dim):
            for j in range(dim):
                want = CycNum.one(order) if i == j else CycNum.zero(order)
                if conv[e][i][j] != want:
                    raise NotMultiplicative("identity is not sent to the "
                                            "identity matrix")
        for a in range(G.n):
            for b in range(G.n):
                p = G.table[a][b]
                for i in range(dim):
                    for j in range(dim):
                        s = CycNum.zero(order)
                        for k in range(dim):
                            s = s + conv[a][i][k] * conv[b][k][j]
                        if s != conv[p][i][j]:
                            raise NotMultiplicative(
                                f"rho({G.name_of(a)}) rho({G.name_of(b)}) "
                                f"!= rho({G.name_of(p)})")
        return RepMatrix(dim, conv)

    def trace(self, g):
        t = CycNum.zero(1)
        for i in range(self.dim):
            t = t + self.mats[g][i][i]
        return t


def _rep_factor(G, rep):
    """det(sum_g rho(g) x_g) as a polynomial."""
    d = rep.dim
    mat = []
    for i in range(d):
        row = []
        for j in range(d):
            try:
                row.append(Poly.linear({g: rep.mats[g][i][j]
                                        for g in range(G.n)}))
            except ValueError:
                row.append(Poly.zero())
        mat.append(row)
    return det_poly_matrix(mat)


def factor_group_determinant(G, reps=None):
    """Factor the group determinant det [x_{gh}].

    Abelian groups factor into the character forms sum_g chi(g) x_g. For
    other groups a complete list of irreducible representations must be
    supplied; each contributes det(sum_g rho(g) x_g) with multiplicity its
    dimension. The constant is theta's leading coefficient, read off a
    permutation sign. An abelian answer carries its characters. The
    answer is not checked here; verify_against checks it.
    """
    return _group_factorization(G, reps).normalized()


def _group_factorization(G, reps):
    """factor_group_determinant's answer before its factors are merged
    and sorted: each factor is scaled to leading coefficient 1 already,
    which the constant needs."""
    rep = analyze(G)
    if not rep.is_group:
        raise NotAGroup("group determinant needs a group")
    if reps is None:
        if not rep.is_commutative:
            raise NotAbelianWithoutReps(
                "nonabelian groups need supplied representations")
        chars = character_group(G)
        characters = (chars[0].order, tuple(chi.exps for chi in chars))
        factors = [(Poly.linear({g: chi.value(g) for g in range(G.n)}), 1)
                   for chi in chars]
        provenance = "dedekind"
    else:
        total = sum(r.dim * r.dim for r in reps)
        if total != G.n:
            raise RepDimensionMismatch(
                f"squared dimensions sum to {total}, group has order {G.n}")
        traces = [tuple(r.trace(g).to_str() for g in range(G.n)) for r in reps]
        if len(set(traces)) != len(reps):
            raise RepDimensionMismatch(
                "two supplied representations have identical traces")
        factors = [(_rep_factor(G, r), r.dim) for r in reps]
        provenance, characters = "frobenius", None
    _, factors = _monic(CycNum.one(), factors)
    # Graded lex is a monomial order and every factor has leading
    # coefficient 1, so the constant is the coefficient of x_0^n in theta:
    # the sign of the permutation matrix [g h == 0], row g having its one
    # in the column of the h with g h = 0.
    column = [G.table[g].index(0) for g in range(G.n)]
    return Factorization("factored",
                         CycNum.from_rational(_permutation_sign(column)),
                         tuple(factors), provenance, characters=characters)


def _permutation_sign(perm):
    """The sign of the permutation i -> perm[i] of 0..n-1: -1 to the power
    n minus the number of its cycles."""
    seen = [False] * len(perm)
    parity = len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            parity -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if parity & 1 else 1
