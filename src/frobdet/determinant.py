"""Semigroup determinants: the matrix [x_{st}], its contracted and twisted
variants, vanishing tests, change of basis, and group determinants.

Variables are indexed by element id: entry (s, t) of the plain matrix is
the variable x_{st}. Contracted matrices keep the ambient ids and drop the
zero row and column, writing 0 where a product hits the zero.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .characters import character_group
from .cyclotomic import CycNum
from .errors import (CocycleDomainMismatch, NoZero, NotAbelianWithoutReps,
                     NotAGroup, NotMultiplicative, RepDimensionMismatch,
                     SingularP, VerificationFailed)
from .factorization import (Factorization, checked, random_points,
                            random_table_check)
from .linalg import cyc_det, cyc_matrix_inverse, int_det
from .poly import DEFAULT_CAP, LinForm, Poly, det_poly_matrix
from .semigroups import analyze


@dataclass(frozen=True)
class ParatrophicMatrix:
    mode: str  # "plain" | "contracted" | "twisted" | "groupoid"
    basis: tuple  # element ids labelling rows and columns
    entries: tuple  # tuple of row tuples of Poly


def cayley_matrix(S, mode="plain", cocycle=None):
    """The multiplication matrix of S in one of the table presentations."""
    n, t = S.n, S.table
    if mode == "plain":
        rows = tuple(tuple(Poly.variable(t[a][b]) for b in range(n))
                     for a in range(n))
        return ParatrophicMatrix("plain", tuple(range(n)), rows)
    if mode in ("contracted", "twisted"):
        if S.zero is None:
            raise NoZero("contracted matrix needs a zero element")
        z = S.zero
        basis = tuple(s for s in range(n) if s != z)
        if mode == "contracted":
            rows = tuple(
                tuple(Poly.variable(t[a][b]) if t[a][b] != z else Poly.zero()
                      for b in basis)
                for a in basis)
            return ParatrophicMatrix("contracted", basis, rows)
        if cocycle is None:
            raise CocycleDomainMismatch("twisted matrix needs a cocycle")
        if cocycle.n != n:
            raise CocycleDomainMismatch(
                f"cocycle on {cocycle.n} elements, semigroup has {n}")
        rows = []
        for a in basis:
            row = []
            for b in basis:
                p = t[a][b]
                if p == z:
                    row.append(Poly.zero(cocycle.order))
                else:
                    row.append(Poly.variable(p, cocycle.order)
                               .scale(cocycle.value(a, b)))
            rows.append(tuple(row))
        return ParatrophicMatrix("twisted", basis, tuple(rows))
    raise ValueError(f"unknown matrix mode {mode!r}")


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
    VerificationFailed.

    A plain F for S with a zero z is checked on the contracted determinant
    instead, when that check is exact and F = x_z * G(x_s - x_z) for some
    G free of x_z: theta = x_z * thetac(x_s - x_z) holds for every
    semigroup with a zero, so F = theta exactly when G = thetac, and F
    gets the record of that check."""
    if mode == "plain" and S.zero is not None and 1 <= S.n - 1 <= cap:
        G = _unlift_zero(F, S.zero)
        if G is not None:
            thetac = paratrophic_determinant(S, "contracted", cap=cap)
            G = checked(thetac, G, mode="exact", seed=seed)
            return F.with_verification(G.verification)
    dim = S.n if mode == "plain" else S.n - 1
    if dim <= cap:
        return checked(paratrophic_determinant(S, mode, cocycle, cap), F,
                       mode="exact", seed=seed)
    v = random_table_check(S, F, mode, cocycle, seed=seed)
    if not v["equal"]:
        raise VerificationFailed(f"{F.provenance} factorization failed a "
                                 "randomized determinant check")
    return F.with_verification(v)


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


def backnforth_check(S, cap=DEFAULT_CAP):
    """For S with a zero, check the two determinant translations.

    Forward: theta(X) = x_z * thetac(Y) with y_s = x_s - x_z, where thetac
    is the contracted determinant. Backward: thetac is theta / x_z with
    x_z set to 0 afterwards. Returns the check record."""
    if S.zero is None:
        raise NoZero("translation needs a zero element")
    z = S.zero
    theta = paratrophic_determinant(S, cap=cap)
    thetac = paratrophic_determinant(S, mode="contracted", cap=cap)
    xz = Poly.variable(z)
    sub = {s: Poly.variable(s) - xz for s in range(S.n) if s != z}
    forward = xz * thetac.substitute(sub)
    ok_forward = forward == theta
    # theta / x_z at x_z = 0: the terms where x_z has exponent 1, with x_z
    # struck out. The zero row of the matrix puts x_z in every term.
    quot = Poly(theta.order, {tuple(p for p in m if p[0] != z): c
                              for m, c in theta.terms.items()
                              if dict(m).get(z) == 1})
    ok_backward = quot == thetac
    return {"forward": ok_forward, "backward": ok_backward,
            "equal": ok_forward and ok_backward}


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


def transport_basis(theta_prime, P, row_vars=None, col_vars=None):
    """Rewrite a determinant after a change of basis.

    If theta_prime is the determinant for a basis B' and P is the matrix
    of the new basis B in terms of B' (columns indexed by B), the original
    determinant is det(P)^2 times theta_prime with each variable x_{b'}
    replaced by sum_b Pinv[b][b'] x_b.
    """
    n = len(P)
    mat = [[_as_cyc(v) for v in row] for row in P]
    for row in mat:
        if len(row) != n:
            raise SingularP("change of basis matrix is not square")
    detP = cyc_det(mat)
    if detP.is_zero():
        raise SingularP("change of basis matrix is singular")
    inv = cyc_matrix_inverse(mat)
    if row_vars is None:
        row_vars = tuple(range(n))
    if col_vars is None:
        col_vars = tuple(row_vars)
    sub = {}
    for j in range(n):
        coeffs = {col_vars[i]: inv[i][j] for i in range(n)
                  if not inv[i][j].is_zero()}
        sub[row_vars[j]] = LinForm.make(coeffs).to_poly()
    out = theta_prime.substitute(sub)
    scale = detP * detP
    return out.scale(scale)


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
            coeffs = {}
            for g in range(G.n):
                v = rep.mats[g][i][j]
                if not v.is_zero():
                    coeffs[g] = coeffs.get(g, CycNum.zero(v.order)) + v
            coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
            if coeffs:
                row.append(LinForm.make(coeffs).to_poly())
            else:
                row.append(Poly.zero())
        mat.append(row)
    return det_poly_matrix(mat)


def factor_group_determinant(G, reps=None):
    """Factor the group determinant det [x_{gh}].

    Abelian groups factor into the character forms sum_g chi(g) x_g. For
    other groups a complete list of irreducible representations must be
    supplied; each contributes det(sum_g rho(g) x_g) with multiplicity its
    dimension. The constant is theta's leading coefficient, read off a
    permutation sign. The answer is not checked here; verify_against
    checks it.
    """
    rep = analyze(G)
    if not rep.is_group:
        raise NotAGroup("group determinant needs a group")
    if reps is None:
        if not rep.is_commutative:
            raise NotAbelianWithoutReps(
                "nonabelian groups need supplied representations")
        chars = character_group(G)
        factors = []
        for chi in chars:
            coeffs = {g: chi.value(g) for g in range(G.n)}
            coeffs = {g: v for g, v in coeffs.items() if not v.is_zero()}
            factors.append((LinForm.make(coeffs).to_poly(), 1))
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
        provenance = "frobenius"
    F = Factorization.of(CycNum.one(), factors, provenance)
    # Graded lex is a monomial order and every factor has leading
    # coefficient 1, so the constant is the coefficient of x_0^n in theta:
    # the sign of the permutation matrix [g h == 0].
    sign = int_det([[int(G.table[g][h] == 0) for h in range(G.n)]
                    for g in range(G.n)])
    return replace(F, constant=CycNum.from_rational(sign))
