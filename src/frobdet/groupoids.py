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
from .semigroups import analyze, star_map, subsemigroup


@dataclass(frozen=True)
class Groupoid:
    S: object  # the underlying semigroup
    dom: tuple  # per element, s* s
    ran: tuple  # per element, s s*
    # per connected component, ordered by least object: (objects, arrows),
    # the objects (idempotent ids) and the arrows from them, both ascending
    components: tuple


def groupoid_of(S):
    """The groupoid of an inverse semigroup S; raises NotInverse when S is
    not inverse. Two objects are connected when an arrow joins them, and
    the arrows from an object reach its whole component."""
    star = star_map(S)
    t = S.table
    dom = tuple(t[star[s]][s] for s in range(S.n))
    ran = tuple(t[s][star[s]] for s in range(S.n))
    for a in range(S.n):
        for b in range(S.n):
            if dom[a] == ran[b]:
                p = t[a][b]
                assert dom[p] == dom[b] and ran[p] == ran[a]
    reach = {}
    for s in range(S.n):
        reach.setdefault(dom[s], set()).add(ran[s])
    arrows = {}
    for s in range(S.n):
        arrows.setdefault(min(reach[dom[s]]), []).append(s)
    return Groupoid(S, dom, ran, tuple(
        (tuple(sorted(reach[base])), tuple(arrows[base]))
        for base in sorted(arrows)))


def groupoid_structure(g):
    """Per connected component (objects, base, n_objects, group_order),
    the base its least object and the group order its number of loops at
    the base; the arrow count identity sum n_i^2 |G_i| = |S| is
    asserted."""
    infos = []
    for objs, arrows in g.components:
        base = objs[0]
        order = sum(1 for s in arrows if g.dom[s] == base == g.ran[s])
        infos.append((objs, base, len(objs), order))
    assert sum(k * k * order for _, _, k, order in infos) == g.S.n, \
        "arrow count does not match sum n_i^2 |G_i|"
    return tuple(infos)


def groupoid_determinant(g, cap=DEFAULT_CAP):
    """Determinant of the groupoid matrix: entry (a, b) is x_{ab} when
    dom(a) = ran(b) and 0 otherwise. Block diagonal over the connected
    components, so the determinant is a product over components. The
    blocks have disjoint variables, so a product of blocks with a and b
    terms has a*b terms; past poly.TERM_BUDGET it raises DimensionCap
    before multiplying."""
    t, dom, ran = g.S.table, g.dom, g.ran
    det = Poly.const(CycNum.one())
    for _, arrows in g.components:
        mat = [[Poly.variable(t[a][b]) if dom[a] == ran[b] else Poly.zero()
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

    Returns (theta, groupoid_structure of the groupoid of S)."""
    g = groupoid_of(S)  # raises NotInverse when S is not inverse
    try:
        gd = groupoid_determinant(g, cap=cap)
    except DimensionCap as e:
        raise NotApplicable(str(e)) from e
    poset = natural_order(S, "inverse")
    _check_groupoid_order(g, poset.leq)
    theta = gd.substitute(forms_of(poset))
    return theta, groupoid_structure(g)


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
    # idempotents are central exactly when no arrow joins two objects
    if any(len(objects) > 1 for objects, _ in g.components):
        raise NotClifford("idempotents are not central")
    sub = mobius_forms(S, "inverse")
    t = S.table
    constant = CycNum.one()
    factors, notes, columns = [], [], []
    for (e,), arrows in g.components:
        G, ids = subsemigroup(S, arrows)  # the maximal subgroup at e
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
