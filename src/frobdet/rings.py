"""Multiplicative monoids of finite rings and their generating characters.

A finite ring whose additive character module is generated by a single
character lambda has a Frobenius algebra, and the determinant of its
multiplicative monoid is nonzero; evaluating the multiplication matrix at
x_s = lambda(s) gives an exact cyclotomic determinant whose nonvanishing
certifies this without any symbolic expansion. Z/n and matrix rings over
finite fields both carry explicit generating characters. The Kovacs
identity q^(n^2) = sum binom(n,r)_q^2 |GL_r(F_q)| pins down the matrix
monoid algebra decomposition dimensions.
"""

from dataclasses import dataclass

from .characters import Character
from .errors import OutOfRange, SizeOverflow
from .linalg import cyc_det
from .modular import is_prime
from .semigroups import validate_table


@dataclass(frozen=True)
class FiniteFieldSpec:
    """F_q as F_p[x] modulo the least monic irreducible of degree m.

    Elements are 0..q-1, read as coefficient vectors little-endian base p;
    the modulus tuple holds the non-leading coefficients c_0..c_{m-1} of
    x^m + sum c_i x^i."""
    p: int
    m: int
    q: int
    modulus: tuple

    @staticmethod
    def make(p, m):
        if not is_prime(p):
            raise OutOfRange(f"{p} is not prime")
        if m < 1:
            raise OutOfRange("extension degree must be at least 1")
        q = p ** m
        if q > 256:
            raise OutOfRange(f"field size {q} exceeds 256")
        modulus = _least_irreducible(p, m)
        field = FiniteFieldSpec(p, m, q, modulus)
        if q <= 16:
            _spot_check_axioms(field)
        return field

    def coeffs(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.m)]

    def encode(self, v):
        return sum(c % self.p * self.p ** i for i, c in enumerate(v))

    def add(self, a, b):
        p = self.p
        return self.encode([x + y for x, y in
                            zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a):
        return self.encode([-c for c in self.coeffs(a)])

    def mul(self, a, b):
        p, m = self.p, self.m
        va, vb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # x^m = -modulus below the leading term
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, mj in enumerate(self.modulus):
                    prod[i - m + j] = (prod[i - m + j] - c * mj) % p
        return self.encode(prod[:m])

    def power(self, a, k):
        r = 1
        for _ in range(k):
            r = self.mul(r, a)
        return r

    def absolute_trace(self, a):
        """Tr(a) = a + a^p + ... + a^(p^(m-1)), landing in the prime field."""
        t = 0
        x = a
        for _ in range(self.m):
            t = self.add(t, x)
            x = self.power(x, self.p)
        v = self.coeffs(t)
        assert all(c == 0 for c in v[1:]), "trace left the prime field"
        return v[0]


def _least_irreducible(p, m):
    """Non-leading coefficients of the least monic irreducible of degree m,
    ordering candidates by their base-p integer encoding. Irreducibility by
    trial division against every lower-degree monic."""
    if m == 1:
        return (0,)
    monics = {1: [[c, 1] for c in range(p)]}
    for d in range(2, m // 2 + 1):
        monics[d] = []
        for code in range(p ** d):
            lower = [(code // p ** i) % p for i in range(d)]
            monics[d].append(lower + [1])
    for code in range(p ** m):
        cand = [(code // p ** i) % p for i in range(m)] + [1]
        if _irreducible(cand, monics, p):
            return tuple(cand[:m])
    raise AssertionError("no irreducible polynomial found")


def _irreducible(cand, monics, p):
    for d in sorted(monics):
        for div in monics[d]:
            if _poly_rem(cand, div, p) == []:
                return False
    return True


def _poly_rem(u, v, p):
    """Remainder of u by monic v over F_p, as a trimmed list."""
    r = list(u)
    dv = len(v) - 1
    while len(r) - 1 >= dv:
        c = r[-1]
        if c:
            for j in range(dv + 1):
                r[len(r) - 1 - dv + j] = (r[len(r) - 1 - dv + j] - c * v[j]) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _spot_check_axioms(field):
    q = field.q
    for a in range(q):
        assert field.add(a, 0) == a and field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert any(field.mul(a, b) == 1 for b in range(q)), \
                "a nonzero element has no inverse"
        for b in range(q):
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in range(q):
                assert field.mul(field.mul(a, b), c) \
                    == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) \
                    == field.add(field.mul(a, b), field.mul(a, c))


def _check_additive(lam, add, n):
    for a in range(n):
        for b in range(n):
            assert lam.exps[add(a, b)] \
                == (lam.exps[a] + lam.exps[b]) % lam.order, \
                "character is not additive"


def zmod_monoid(n):
    """Multiplicative monoid of Z/nZ with the character k -> zeta_n^k."""
    if not (2 <= n <= 512):
        raise OutOfRange(f"modulus {n} outside 2..512")
    S = validate_table([[(i * j) % n for j in range(n)] for i in range(n)],
                       tuple(str(i) for i in range(n)))
    lam = Character(n, tuple(range(n)))
    _check_additive(lam, lambda a, b: (a + b) % n, n)
    return S, lam


def matrix_monoid(n, field):
    """Multiplicative monoid of n x n matrices over the field, with the
    character A -> zeta_p^Tr(tr A). Elements are encoded little-endian
    base q over the row-major entries."""
    q = field.q
    size = q ** (n * n)
    if size > 4096:
        raise SizeOverflow(f"{size} matrices exceed the 4096 cap")

    def entries(a):
        return [(a // q ** k) % q for k in range(n * n)]

    def encode(mat):
        return sum(mat[k] * q ** k for k in range(n * n))

    def mat_mul(a, b):
        ea, eb = entries(a), entries(b)
        out = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = field.add(acc,
                                    field.mul(ea[i * n + k], eb[k * n + j]))
                out[i * n + j] = acc
        return encode(out)

    table = [[mat_mul(a, b) for b in range(size)] for a in range(size)]
    names = tuple("".join(str(d) for d in entries(a)) for a in range(size))
    S = validate_table(table, names)
    exps = []
    for a in range(size):
        ea = entries(a)
        tr = 0
        for i in range(n):
            tr = field.add(tr, ea[i * n + i])
        exps.append(field.absolute_trace(tr))
    lam = Character(field.p, tuple(exps))

    def mat_add(a, b):
        ea, eb = entries(a), entries(b)
        return encode([field.add(x, y) for x, y in zip(ea, eb)])

    _check_additive(lam, mat_add, size)
    return S, lam


def frobenius_form_check(S, lam):
    """Exact cyclotomic determinant of the multiplication table evaluated
    at x_s = lam(s). Nonzero certifies that the semigroup determinant of S
    is nonzero and the monoid algebra is Frobenius; zero decides nothing."""
    if S.n > 4096:
        raise SizeOverflow(f"{S.n} elements exceed the 4096 cap")
    mat = [[lam.value(S.table[a][b]) for b in range(S.n)] for a in range(S.n)]
    return cyc_det(mat)


def _q_binomial(n, r, q):
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _gl_order(r, q):
    out = 1
    for i in range(r):
        out *= q ** r - q ** i
    return out


def _prime_power(q):
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = 0
    t = q
    while t % p == 0 and t > 1:
        t //= p
        m += 1
    if t != 1 or not is_prime(p):
        raise OutOfRange(f"{q} is not a prime power")
    return p, m


def _brute_subspace_counts(n, field):
    """Count subspaces of F_q^n of each dimension by closing spans."""
    q = field.q
    vectors = []

    def grow(prefix):
        if len(prefix) == n:
            vectors.append(tuple(prefix))
            return
        for c in range(q):
            grow(prefix + [c])

    grow([])
    zero = tuple([0] * n)

    def extend(space, v):
        out = set()
        for w in space:
            for c in range(q):
                cv = tuple(field.mul(c, x) for x in v)
                out.add(tuple(field.add(a, b) for a, b in zip(w, cv)))
        return frozenset(out)

    seen = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        nxt = []
        for space in frontier:
            for v in vectors:
                if v in space:
                    continue
                bigger = extend(space, v)
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    counts = [0] * (n + 1)
    for space in seen:
        size = len(space)
        r = 0
        while q ** r < size:
            r += 1
        assert q ** r == size, "a closed span is not a subspace"
        counts[r] += 1
    return counts


def kovacs_check(n, q):
    """The dimension identity q^(n^2) = sum binom(n,r)_q^2 |GL_r(F_q)|,
    with the q-binomials cross-checked by brute subspace counting when
    q^n is at most 256."""
    if not (1 <= n <= 4):
        raise OutOfRange(f"matrix size {n} outside 1..4")
    if not (2 <= q <= 16):
        raise OutOfRange(f"field size {q} outside 2..16")
    p, m = _prime_power(q)
    gauss = [_q_binomial(n, r, q) for r in range(n + 1)]
    gl = [_gl_order(r, q) for r in range(n + 1)]
    terms = [gauss[r] * gauss[r] * gl[r] for r in range(n + 1)]
    total = sum(terms)
    report = {
        "n": n, "q": q,
        "q_binomials": gauss,
        "gl_orders": gl,
        "terms": terms,
        "sum": total,
        "power": q ** (n * n),
        "equal": total == q ** (n * n),
    }
    if q ** n <= 256:
        field = FiniteFieldSpec.make(p, m)
        counts = _brute_subspace_counts(n, field)
        report["subspace_counts"] = counts
        report["subspaces_agree"] = counts == gauss
    assert report["equal"], "dimension identity failed"
    return report
