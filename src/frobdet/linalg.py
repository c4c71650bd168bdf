"""Exact linear algebra over the integers, over cyclotomic fields and
modulo a prime."""

from functools import lru_cache
from math import gcd, isqrt, lcm

from .cyclotomic import CycNum, cyclotomic_polynomial, power_basis_bound
from .errors import NotUnitriangular, SingularP
from .modular import fixed_prime


def int_det(matrix):
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_mod(matrix, p):
    """Determinant mod a prime p of a matrix of integers, by Gaussian
    elimination.

    Entries are reduced mod p only where they are read: in the pivot
    column and, once per step and only when some row needs it, in the
    pivot row. A row update subtracts f*b, with f, b < p, at the columns
    right of the pivot where the reduced pivot row b is nonzero, so after
    at most n updates an entry is still within n*p^2 of its start."""
    m = [list(row) for row in matrix]
    n, det = len(m), 1
    for k in range(n):
        for r in range(k, n):
            if v := m[r][k] % p:
                break
        else:
            return 0
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det = det * v % p
        inv = pow(v, -1, p)
        pivot = None  # (column, reduced entry) where nonzero
        for i in range(k + 1, n):
            row = m[i]
            if f := row[k] * inv % p:
                if pivot is None:
                    pivot = [(j, b) for j in range(k + 1, n)
                             if (b := m[k][j] % p)]
                for j, b in pivot:
                    row[j] -= f * b
    return det % p


def _common_order(matrix):
    order = 1
    for row in matrix:
        for v in row:
            order = lcm(order, v.order)
    return order


@lru_cache(maxsize=None)
def _split_roots(order, i):
    """For the i-th fixed prime p = 1 (mod order): p, the powers
    r^0, ..., r^(d-1) mod p of each of the d roots r of Phi_order mod p
    (the primitive order-th roots of unity), and the rows of the inverse
    of that evaluation matrix, which take the values at the roots back to
    power-basis coordinates mod p (Lagrange interpolation)."""
    p, w = fixed_prime(order, i)
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    roots = [pow(w, k, p) for k in range(order) if gcd(k, order) == 1]
    powers, weights = [], []
    for r in roots:
        powers.append(tuple(pow(r, t, p) for t in range(d)))
        # Phi / (x - r) by synthetic division; its value at r is Phi'(r)
        q = [1] * d
        for j in range(d - 1, 0, -1):
            q[j - 1] = (phi[j] + r * q[j]) % p
        inv = pow(sum(c * x for c, x in zip(q, powers[-1])), -1, p)
        weights.append([c * inv % p for c in q])
    return p, tuple(powers), tuple(zip(*weights))


def cyc_det(matrix):
    """Exact determinant of a square CycNum matrix, in Q(zeta_N) for the
    lcm N of the entries' orders; does not modify its argument.

    Each row is scaled by the lcm of its entries' denominators to integer
    power-basis coordinates. The scaled determinant is taken modulo fixed
    primes p = 1 (mod N) at every primitive N-th root of unity mod p and
    interpolated to its coordinates mod p, and CRT combines the images
    until their product exceeds twice a bound on those coordinates: for
    N <= 2 the entries are integers and Hadamard's bound, the product of
    the rows' 2-norms, applies; otherwise R_N * (product of the rows'
    coordinate 1-norms) (see cyclotomic.power_basis_bound)."""
    n = len(matrix)
    if n == 0:
        return CycNum.one()
    if n == 1:
        return matrix[0][0]
    order = _common_order(matrix)
    rows, scale, bound = [], 1, power_basis_bound(order)
    for row in matrix:
        values = [v.embed(order) for v in row]
        s = lcm(*(v.den for v in values))
        rows.append([[x * (s // v.den) for x in v.nums] for v in values])
        scale *= s
        if order <= 2:
            bound *= isqrt(sum(c[0] * c[0] for c in rows[-1])) + 1
        else:
            bound *= sum(abs(a) for c in rows[-1] for a in c)
    coords, modulus, i = [0] * len(rows[0][0]), 1, 0
    while modulus <= 2 * bound:
        p, powers, inverse = _split_roots(order, i)
        values = [det_mod([[sum(a * x for a, x in zip(c, pw)) for c in row]
                           for row in rows], p) for pw in powers]
        step = pow(modulus, -1, p)
        for t, col in enumerate(inverse):
            v = sum(x * y for x, y in zip(col, values))
            coords[t] += modulus * ((v - coords[t]) * step % p)
        modulus *= p
        i += 1
    return CycNum.from_numerators(
        order, [c - modulus if 2 * c > modulus else c for c in coords], scale)


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
