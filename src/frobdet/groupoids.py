"""Inverse semigroups through their associated groupoids.

An inverse semigroup acts like a groupoid once the natural partial order
is peeled off: objects are the idempotents, an element s is an arrow from
s*s to ss*, and composition is the semigroup product exactly when domains
match. The determinant of S turns into the groupoid determinant after the
Mobius change of variables y_s = sum_{t <= s} mu(t, s) x_t.
"""

from dataclasses import dataclass, replace
from math import lcm

from . import poly
from .cyclotomic import CycNum
from .determinant import _group_factorization
from .errors import (DimensionCap, NonabelianWithoutReps, NotApplicable,
                     NotClifford, VerificationFailed)
from .factorization import Factorization
from .poly import DEFAULT_CAP, Poly, det_poly_matrix
from .posets import forms_of, mobius_forms, natural_order
from .semigroups import analyze, maximal_subgroup, star_map


@dataclass(frozen=True)
class Groupoid:
    objects: tuple  # idempotent ids
    arrows: tuple  # all element ids
    dom: tuple  # per element, s* s
    ran: tuple  # per element, s s*
    inv: tuple  # the star map
    S: object  # the underlying semigroup

    def composable(self, a, b):
        return self.dom[a] == self.ran[b]

    def compose(self, a, b):
        assert self.composable(a, b)
        return self.S.table[a][b]


def groupoid_of(S):
    star = star_map(S)
    t = S.table
    objects = tuple(e for e in range(S.n) if t[e][e] == e)
    dom = tuple(t[star[s]][s] for s in range(S.n))
    ran = tuple(t[s][star[s]] for s in range(S.n))
    g = Groupoid(objects, tuple(range(S.n)), dom, ran, star, S)
    for a in range(S.n):
        for b in range(S.n):
            if g.composable(a, b):
                p = t[a][b]
                assert g.dom[p] == g.dom[b] and g.ran[p] == g.ran[a]
    return g


def connected_components(g):
    """Partition of the objects by arrow reachability, least object first
    inside each part, parts ordered by their least object."""
    parent = {e: e for e in g.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in g.arrows:
        a, b = find(g.dom[s]), find(g.ran[s])
        if a != b:
            parent[max(a, b)] = min(a, b)
    parts = {}
    for e in g.objects:
        parts.setdefault(find(e), []).append(e)
    return [tuple(sorted(v)) for k, v in sorted(parts.items())]


@dataclass(frozen=True)
class GroupoidStructure:
    components: tuple  # per component: (objects, base, n_objects, group_order)
    total_arrows: int


def groupoid_structure(S, g=None):
    """Connected components with their isotropy groups; the arrow count
    identity sum n_i^2 |G_i| = |S| is asserted. g is the groupoid of S,
    built here when not given."""
    g = groupoid_of(S) if g is None else g
    comps = connected_components(g)
    infos = []
    total = 0
    for objs in comps:
        base = objs[0]
        G, ids = maximal_subgroup(S, base)
        loop = [s for s in g.arrows if g.dom[s] == base and g.ran[s] == base]
        assert sorted(ids) == sorted(loop)
        infos.append((objs, base, len(objs), G.n))
        total += len(objs) ** 2 * G.n
    assert total == S.n, "arrow count does not match sum n_i^2 |G_i|"
    return GroupoidStructure(tuple(infos), S.n)


def _component_blocks(g):
    comps = connected_components(g)
    where = {}
    for k, objs in enumerate(comps):
        for e in objs:
            where[e] = k
    blocks = [[] for _ in comps]
    for s in g.arrows:
        blocks[where[g.dom[s]]].append(s)
    return blocks


def groupoid_determinant(S, cap=DEFAULT_CAP, g=None):
    """Determinant of the groupoid matrix: entry (a, b) is x_{ab} when
    dom(a) = ran(b) and 0 otherwise. Block diagonal over the connected
    components, so the determinant is a product over components. The
    blocks have disjoint variables, so a product of blocks with a and b
    terms has a*b terms; past poly.TERM_BUDGET it raises DimensionCap
    before multiplying. g is the groupoid of S, built here when not
    given."""
    g = groupoid_of(S) if g is None else g
    det = Poly.const(CycNum.one())
    for arrows in _component_blocks(g):
        mat = [[Poly.variable(g.compose(a, b)) if g.composable(a, b)
                else Poly.zero()
                for b in arrows] for a in arrows]
        block = det_poly_matrix(mat, cap=cap)
        if len(det.terms) * len(block.terms) > poly.TERM_BUDGET:
            raise DimensionCap(
                f"product of groupoid blocks of {len(det.terms)} and "
                f"{len(block.terms)} terms exceeds the budget of "
                f"{poly.TERM_BUDGET} terms")
        det = det * block
        if det.is_zero():
            return det
    return det


def inverse_determinant(S, cap=DEFAULT_CAP):
    """The semigroup determinant of an inverse semigroup, computed through
    the groupoid and the Mobius substitution, and checked exactly by the
    groupoid isomorphism (see _check_groupoid_order) at every size. An
    expansion past the cap or the term budget raises NotApplicable.

    Returns (theta, components), the components of groupoid_structure."""
    g = groupoid_of(S)  # raises NotInverse when S is not inverse
    try:
        gd = groupoid_determinant(S, cap=cap, g=g)
    except DimensionCap as e:
        raise NotApplicable(str(e)) from e
    poset = natural_order(S, "inverse")
    _check_groupoid_order(g, poset.leq)
    theta = gd.substitute(forms_of(poset))
    return theta, groupoid_structure(S, g).components


def _check_groupoid_order(groupoid, leq):
    """Raise VerificationFailed unless, for all s and t, (g, h) -> gh maps
    {(g, h) : g <= s, h <= t, dom g = ran h} one to one onto {u <= st},
    with dom and ran read from the groupoid of S and leq[a][b] meaning
    a <= b. Then the groupoid matrix X_G(y) and the semigroup matrix
    satisfy X_S = Z X_G(y) Z^T, with Z[s][g] = [g <= s] unitriangular and
    x_s = sum_{u <= s} y_u, so theta_S(x) = theta_G(y) exactly (Steinberg,
    "Mobius functions and semigroup representation theory", JCTA 2006)."""
    S, dom, ran = groupoid.S, groupoid.dom, groupoid.ran
    n, t = S.n, S.table
    below = [[u for u in range(n) if leq[u][s]] for s in range(n)]
    for s in range(n):
        for r in range(n):
            images = sorted(t[g][h] for g in below[s] for h in below[r]
                            if dom[g] == ran[h])
            if images != below[t[s][r]]:
                raise VerificationFailed(
                    "groupoid route: the products below "
                    f"{S.name_of(s)} and {S.name_of(r)} are not the "
                    f"elements below {S.name_of(t[s][r])}")


def factor_clifford(S, reps_by_idempotent=None):
    """Factor the determinant of a Clifford semigroup (inverse with
    central idempotents): one group determinant per idempotent, in the
    Mobius variables. Over abelian groups the answer carries the
    characters phi_{e, chi}."""
    g = groupoid_of(S)  # raises NotInverse when S is not inverse
    if not analyze(S).central_idempotents:
        raise NotClifford("idempotents are not central")
    for s in range(S.n):
        assert g.dom[s] == g.ran[s]  # forced by centrality
    sub = mobius_forms(S, "inverse")
    t = S.table
    constant = CycNum.one()
    factors, notes, columns = [], [], []
    for e in g.objects:
        G, ids = maximal_subgroup(S, e)
        grep = analyze(G)
        if grep.is_commutative:
            FG = _group_factorization(G, None)
        else:
            if not reps_by_idempotent or e not in reps_by_idempotent:
                raise NonabelianWithoutReps(
                    f"group at {S.name_of(e)} is nonabelian and no "
                    f"representations were supplied")
            FG = _group_factorization(G, reps_by_idempotent[e])
        constant = constant * FG.constant
        remap = {j: sub[ids[j]] for j in range(G.n)}
        for f, m in FG.factors:
            factors.append((f.substitute(remap), m))
        notes.append(f"group of order {G.n} at {S.name_of(e)}")
        if FG.characters is None or columns is None:
            columns = None
            continue
        # phi_{e, chi}(s) = chi(se) when e <= s*s, and 0 otherwise
        k, chars = FG.characters
        where = {u: j for j, u in enumerate(ids)}
        columns += [(k, tuple(chi[where[t[s][e]]] if t[e][g.dom[s]] == e
                              else None for s in range(S.n)))
                    for chi in chars]
    F = Factorization.of(constant, factors, "clifford-mobius", notes)
    if columns is None:
        return F
    N = lcm(1, *(k for k, _ in columns))
    return replace(F, characters=(N, tuple(
        tuple(None if x is None else x * (N // k) for x in chi)
        for k, chi in columns)))
