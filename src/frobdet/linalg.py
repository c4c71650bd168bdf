"""Exact determinants over the integers, over cyclotomic fields and modulo
a prime."""

from functools import lru_cache
from math import gcd, isqrt, lcm

from .cyclotomic import CycNum, cyclotomic_polynomial, power_basis_bound
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
    elimination; does not modify its argument.

    A matrix equal to its transpose is first eliminated on its upper
    triangle alone (see _symmetric_steps); when no remaining diagonal
    entry is nonzero mod p, the remaining block is mirrored and the
    general elimination below finishes it.

    Entries are reduced mod p only where they are read: in the pivot
    column and, once per step and only when some row needs it, in the
    pivot row. A row update subtracts f*b, with f, b < p, at the columns
    right of the pivot where the reduced pivot row b is nonzero, so after
    at most n updates an entry is still within n*p^2 of its start, on
    either path."""
    m = [list(row) for row in matrix]
    n, k, det = len(m), 0, 1
    if m == list(map(list, zip(*m))):
        k, det = _symmetric_steps(m, p)
        for i in range(k + 1, n):
            m[i][k:i] = [m[j][i] for j in range(k, i)]
    for k in range(k, n):
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


def _symmetric_steps(m, p):
    """Eliminate the symmetric matrix m in place, reading and writing only
    its upper triangle: the Schur complement of a symmetric matrix is
    symmetric, so row i of the remaining block needs its columns j >= i
    alone. Each step takes its pivot from a diagonal entry of the
    remaining block that is nonzero mod p, moved to the front by swapping
    its row and its column with the first remaining ones; a symmetric
    permutation leaves the determinant unchanged. Returns (k, the product
    of the pivots mod p), where k is n when every step found a pivot, and
    otherwise the first step that found none; the upper triangle of rows
    and columns k and on is then that of the remaining block."""
    n, det = len(m), 1
    for k in range(n):
        for r in range(k, n):
            if m[r][r] % p:
                break
        else:
            return k, det
        a = m[k]
        if r != k:
            b = m[r]
            a[k], b[r] = b[r], a[k]
            for j in range(k + 1, r):
                a[j], m[j][r] = m[j][r], a[j]
            a[r + 1:], b[r + 1:] = b[r + 1:], a[r + 1:]
        v = a[k] % p
        det = det * v % p
        inv = pow(v, -1, p)
        pivot = [(j, b) for j in range(k + 1, n) if (b := a[j] % p)]
        for t, (i, c) in enumerate(pivot):
            f, row = c * inv % p, m[i]
            for j, b in pivot[t:]:
                row[j] -= f * b
    return n, det


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
