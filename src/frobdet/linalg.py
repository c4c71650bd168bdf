"""Exact linear algebra over the integers, over cyclotomic fields and
modulo a prime."""

from math import lcm

from .cyclotomic import CycNum
from .errors import NotUnitriangular, SingularP


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
    elimination."""
    m = [[v % p for v in row] for row in matrix]
    n, det = len(m), 1
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return 0
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        pivot = m[k]
        det = det * pivot[k] % p
        inv = pow(pivot[k], -1, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], pivot)]
    return det % p


def _common_order(matrix):
    order = 1
    for row in matrix:
        for v in row:
            order = lcm(order, v.order)
    return order


def cyc_det(matrix):
    """Fraction-free Bareiss determinant of a CycNum matrix."""
    n = len(matrix)
    if n == 0:
        return CycNum.one()
    order = _common_order(matrix)
    m = [[v.embed(order) for v in row] for row in matrix]
    sign = 1
    prev = CycNum.one(order)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return CycNum.zero(order)
        pivot = m[k][k]
        inv_prev = prev.inverse()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) * inv_prev
            m[i][k] = CycNum.zero(order)
        prev = pivot
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def cyc_matrix_inverse(matrix):
    """Inverse of a CycNum matrix by Gauss-Jordan; raises SingularP."""
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
