"""Finite posets, Mobius functions, and semilattice determinants.

The semilattice determinant splits into linear factors indexed by the
elements: for a meet semilattice L the determinant of [x_{ab}] equals
prod_a sum_{b <= a} mu(b, a) x_b, after Wilf and Lindstrom. The same
Mobius change of variables, in the natural order of an inverse or a
commutative semigroup, serves the groupoid and commutative routes.
"""

from dataclasses import dataclass, replace
from math import gcd

from .cyclotomic import CycNum
from .errors import (ModeHypothesisFailed, NotAPartialOrder, NotInverse,
                     NotSemilattice, VerificationFailed)
from .factorization import Factorization
from .linalg import int_det
from .poly import Poly
from .semigroups import analyze, star_map


@dataclass(frozen=True)
class FinitePoset:
    n: int
    leq: tuple  # tuple of row tuples of bool, leq[a][b] means a <= b
    extension: tuple  # linear extension, minimal elements first

    @staticmethod
    def from_leq(leq):
        n = len(leq)
        rows = tuple(tuple(map(bool, row)) for row in leq)
        for a in range(n):
            if len(rows[a]) != n:
                raise NotAPartialOrder("ragged relation matrix")
            if not rows[a][a]:
                raise NotAPartialOrder(f"relation not reflexive at {a}")
        # bit b of up[a] says a <= b, bit a of below[b] says a < b; for
        # a <= b transitivity says up[b] lies inside up[a]. The pairs are
        # visited in the order of the (a, b) loop, related pairs only.
        up = [sum(1 << b for b, x in enumerate(row) if x) for row in rows]
        below = [0] * n
        for a in range(n):
            above = up[a] & ~(1 << a)
            while above:
                b = (above & -above).bit_length() - 1
                above ^= 1 << b
                if rows[b][a]:
                    raise NotAPartialOrder(f"antisymmetry fails at ({a}, {b})")
                if miss := up[b] & ~up[a]:
                    c = (miss & -miss).bit_length() - 1
                    raise NotAPartialOrder(
                        f"transitivity fails at ({a}, {b}, {c})")
                below[b] |= 1 << a
        # pull out the least-index minimal element repeatedly
        remaining = list(range(n))
        rest = (1 << n) - 1
        ext = []
        while remaining:
            a = next(a for a in remaining if not below[a] & rest)
            ext.append(a)
            remaining.remove(a)
            rest ^= 1 << a
        return FinitePoset(n, rows, tuple(ext))

    def zeta(self):
        """zeta[a][b] = 1 if a <= b else 0."""
        return [[1 if v else 0 for v in row] for row in self.leq]

    def down_set(self, a):
        return [b for b in range(self.n) if self.leq[b][a]]


def mobius(poset):
    """Mobius matrix: mu[a][b] with sum_{a<=c<=b} mu(a, c) = [a == b].

    mu inverts zeta on both sides, so it also satisfies the recursion
    mu(b, b) = 1, mu(a, b) = -sum_{a<c<=b} mu(c, b), run here over the
    down-set of b in reverse linear-extension order: the cost is the sum
    of |down-set|^2 over the elements."""
    n, leq = poset.n, poset.leq
    mu = [[0] * n for _ in range(n)]
    top_first = poset.extension[::-1]
    for b in range(n):
        down = [a for a in top_first if leq[a][b]]  # b first
        col = [1]
        for i in range(1, len(down)):
            above = leq[down[i]]
            col.append(-sum([m for c, m in zip(down, col) if above[c]]))
        for a, m in zip(down, col):
            mu[a][b] = m
    return mu


def natural_order(S, mode):
    """Natural partial order on S under one of three hypotheses.

    semilattice: s <= t iff st = s, for commutative idempotent S.
    inverse: s <= t iff s = te for an idempotent e, for inverse S.
    central_idempotent: s <= t iff s = t s+, where s+ is the least
    idempotent identity on s; needs central idempotents and S.S = S.
    """
    n, t = S.n, S.table
    rep = analyze(S)
    if mode == "semilattice":
        if not rep.is_semilattice:
            # the first element that is not idempotent or fails to commute
            a = next(a for a in range(n)
                     if t[a][a] != a or not _central(t, a))
            raise ModeHypothesisFailed(
                f"{S.name_of(a)} is not idempotent" if t[a][a] != a
                else "multiplication not commutative")
        leq = [[t[a][b] == a for b in range(n)] for a in range(n)]
        return FinitePoset.from_leq(leq)
    if mode == "inverse":
        try:
            star_map(S)
        except NotInverse as e:
            raise ModeHypothesisFailed(str(e)) from None
        leq = [[any(t[b][e] == a for e in rep.idempotents) for b in range(n)]
               for a in range(n)]
        return FinitePoset.from_leq(leq)
    if mode == "central_idempotent":
        splus = splus_map(S)
        leq = [[t[b][splus[a]] == a for b in range(n)] for a in range(n)]
        return FinitePoset.from_leq(leq)
    raise ModeHypothesisFailed(f"unknown order mode {mode!r}")


def _central(t, a):
    """Whether a commutes with every element: its row is its column."""
    return all(ab == row[a] for ab, row in zip(t[a], t))


def splus_map(S):
    """For each s the least idempotent e with se = s, as a tuple.

    Exists whenever idempotents are central and every element has some
    idempotent identity; the least one is the product of them all.
    """
    n, t = S.n, S.table
    rep = analyze(S)
    idem = rep.idempotents
    if not rep.central_idempotents:
        e = next(e for e in idem if not _central(t, e))
        raise ModeHypothesisFailed(f"idempotent {S.name_of(e)} is not central")
    splus = []
    for s in range(n):
        above = [e for e in idem if t[s][e] == s]
        if not above:
            raise ModeHypothesisFailed(
                f"no idempotent acts as identity on {S.name_of(s)}")
        p = above[0]
        for e in above[1:]:
            p = t[p][e]
        if t[p][p] != p or t[s][p] != s:
            raise ModeHypothesisFailed(
                f"idempotent identities on {S.name_of(s)} have no least one")
        splus.append(p)
    return tuple(splus)


def mobius_forms(S, mode):
    """The Mobius change of variables y_s = sum_{t <= s} mu(t, s) x_t in
    the natural order of the given mode, as a map element -> Poly.

    For a semilattice the forms are the Wilf-Lindstrom factors, whose
    product is the determinant; for an inverse semigroup they carry the
    groupoid determinant to the semigroup one; for a commutative semigroup
    they pull the local contracted determinants back to S.
    """
    return forms_of(natural_order(S, mode))


def forms_of(poset):
    """The Mobius forms y_s = sum_{t <= s} mu(t, s) x_t of a poset."""
    mu = mobius(poset)
    # skipping mu == 0 here, before Poly.linear coerces each value, saves
    # a third of the time on a chain, where most of a down-set has mu = 0
    return {s: Poly.linear({t: mu[t][s] for t in poset.down_set(s)
                            if mu[t][s] != 0})
            for s in range(poset.n)}


def factor_semilattice(S):
    """Factor the determinant of a finite semilattice.

    Raises NotSemilattice unless S is commutative and idempotent. The
    answer carries the characters phi_e(s) = [se = e]. It is not checked
    here; verify_against checks it.
    """
    if not analyze(S).is_semilattice:
        raise NotSemilattice("semigroup is not a commutative band")
    forms = mobius_forms(S, "semilattice")
    F = Factorization.of(CycNum.one(), [(f, 1) for f in forms.values()],
                         "wilf-lindstrom")
    t = S.table
    return replace(F, characters=(1, tuple(
        tuple(0 if t[s][e] == e else None for s in range(S.n))
        for e in range(S.n))))


def smith_matrix(n):
    """The n by n matrix [gcd(i, j)] for 1 <= i, j <= n."""
    return [[gcd(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def smith_determinant(n):
    """det [gcd(i, j)] = prod_k phi(k), computed by integer elimination and
    cross-checked against the totient product."""
    det = int_det(smith_matrix(n))
    prod = 1
    for k in range(1, n + 1):
        prod *= sum(1 for a in range(1, k + 1) if gcd(a, k) == 1)
    if det != prod:
        raise VerificationFailed(
            f"gcd matrix determinant {det} disagrees with totient product {prod}")
    return det
