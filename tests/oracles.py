"""Reference computations the tests compare the program against.

They compute the paper's structural identities directly: the zero
translation theta = x_z * thetac(x_s - x_z), the change of basis
theta = det(P)^2 * theta', Mobius inversion as the inverse of zeta,
character orthogonality and the split of a commutative theta into local
pieces. They also build the examples: direct products, every
commutative table of order at most 4 and the maximal subgroup at an
idempotent. Nothing in frobdet calls them.
"""

from itertools import product as iproduct

from frobdet.commutative import splus_decompose
from frobdet.cyclotomic import CycNum
from frobdet.determinant import _as_cyc, paratrophic_determinant
from frobdet.errors import (FrobdetError, NoZero, NotAGroup, NotInverse,
                            ParamOutOfRange, SizeOverflow, SizeTooLarge)
from frobdet.linalg import _common_order, cyc_det
from frobdet.poly import DEFAULT_CAP, Poly
from frobdet.posets import forms_of
from frobdet.semigroups import (SIZE_CAP, _derived, group_of_units, star_map,
                                subsemigroup, validate_table)


# errors only these functions raise

class SingularP(FrobdetError):
    pass


class NotUnitriangular(FrobdetError):
    pass


# semigroups

def direct_product(A, B, size_cap=SIZE_CAP):
    """Componentwise product on pairs, ordered (a, b) -> a * |B| + b."""
    if A.n * B.n > size_cap:
        raise SizeOverflow(f"product size {A.n * B.n} exceeds cap {size_cap}")
    rows = [[A.table[a][c] * B.n + B.table[b][d]
             for c in range(A.n) for d in range(B.n)]
            for a in range(A.n) for b in range(B.n)]
    names = None
    if A.names or B.names:
        names = tuple(f"{A.name_of(a)}.{B.name_of(b)}"
                      for a in range(A.n) for b in range(B.n))
    return _derived(rows, names)


def enumerate_commutative(n):
    """All commutative semigroup tables on 0..n-1, raw (no isomorphism
    collapsing), by filtering symmetric tables for associativity."""
    if n > 4:
        raise SizeTooLarge("exhaustive commutative enumeration supports n <= 4")
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    out = []
    for assign in iproduct(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, assign):
            t[i][j] = v
            t[j][i] = v
        ok = True
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                ok = False
                break
        if ok:
            out.append(validate_table(t))
    return out


def is_inverse(S):
    try:
        star_map(S)
        return True
    except NotInverse:
        return False


def maximal_subgroup(S, e):
    """Maximal subgroup at an idempotent e: the unit group of eSe, as
    (group Semigroup, ambient ids)."""
    if S.table[e][e] != e:
        raise ParamOutOfRange(f"element {e} is not idempotent")
    corner = sorted({S.table[e][S.table[s][e]] for s in range(S.n)})
    sub, ids = subsemigroup(S, corner)
    if sub.identity is None:
        raise NotAGroup("corner monoid lost its identity")
    units, unit_ids = group_of_units(sub)
    return units, [ids[i] for i in unit_ids]


# linear algebra and characters

def cyc_matrix_inverse(matrix):
    """Inverse of a CycNum matrix by Gauss-Jordan; raises SingularP. Does
    not modify its argument."""
    n = len(matrix)
    order = _common_order(matrix)
    m = [[v.embed(order) for v in row] for row in matrix]
    inv = [[CycNum.one(order) if i == j else CycNum.zero(order)
            for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if not m[r][k].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularP("matrix is singular")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            inv[k], inv[pivot_row] = inv[pivot_row], inv[k]
        pi = m[k][k].inverse()
        m[k] = [v * pi for v in m[k]]
        inv[k] = [v * pi for v in inv[k]]
        for r in range(n):
            if r != k and not m[r][k].is_zero():
                f = m[r][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[k])]
    return inv


def unitriangular_inverse(matrix, extension):
    """Invert an integer matrix that is unitriangular when rows and columns
    are listed in the given linear extension. Returns an integer matrix in
    the original indexing."""
    n = len(matrix)
    pos = {v: i for i, v in enumerate(extension)}
    if len(pos) != n or set(pos) != set(range(n)):
        raise NotUnitriangular("extension is not a permutation of indices")
    for a in range(n):
        if matrix[a][a] != 1:
            raise NotUnitriangular(f"diagonal entry at {a} is {matrix[a][a]}, not 1")
        for b in range(n):
            if matrix[a][b] != 0 and pos[a] > pos[b]:
                raise NotUnitriangular(
                    f"nonzero entry at ({a}, {b}) below the diagonal")
    perm = [[matrix[extension[i]][extension[j]] for j in range(n)] for i in range(n)]
    # back substitution column by column; the inverse is again unitriangular
    q = [[0] * n for _ in range(n)]
    for j in range(n):
        q[j][j] = 1
        for i in range(j - 1, -1, -1):
            s = 0
            for k in range(i + 1, j + 1):
                s -= perm[i][k] * q[k][j]
            q[i][j] = s
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[extension[i]][extension[j]] = q[i][j]
    return out


def character_pairing(G, chi, psi):
    """sum_g chi(g) * conj(psi(g)), which is |G| when equal else 0."""
    total = CycNum.zero(chi.order)
    for g in range(G.n):
        total = total + chi.value(g) * psi.value(g).conj()
    return total


# determinant identities

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
        sub[row_vars[j]] = Poly.linear({col_vars[i]: inv[i][j]
                                        for i in range(n)})
    out = theta_prime.substitute(sub)
    scale = detP * detP
    return out.scale(scale)


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


def global_decomposition_check(S, cap=DEFAULT_CAP):
    """Verify symbolically that the determinant of S is the product of the
    local contracted determinants at the Mobius forms."""
    dec = splus_decompose(S)
    sub = forms_of(dec.order)
    theta = paratrophic_determinant(S, mode="plain", cap=cap)
    prod = Poly.const(1)
    components = []
    for e in sorted(dec.local_monoids):
        local, ambient = dec.local_monoids[e]
        th = paratrophic_determinant(local, mode="contracted", cap=cap)
        mapped = th.substitute({v: sub[ambient[v]] for v in th.variables()})
        prod = prod * mapped
        components.append({"idempotent": e, "class_size": local.n - 1,
                           "vanishes": th.is_zero()})
    return {"equal": theta == prod, "components": components}
