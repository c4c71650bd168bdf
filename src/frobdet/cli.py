"""Command line front end.

Reads multiplication tables in the .sgp format (or builds them from the
named families), dispatches to whichever factorization theorem applies,
and prints either readable text or a JSON object with a fixed key order.
A lone '-' reads from stdin. Exit codes: 0 success, 1 domain error,
2 usage error. Identical argv and seed give byte-identical output.
"""

import argparse
import json
import sys
from math import gcd, lcm

from .commutative import factor_commutative, factor_local
from .cyclotomic import parse_cyc
from .determinant import factor_group_determinant, frobenius_test, \
    paratrophic_determinant, verify_against
from .errors import DimensionCap, FrobdetError, FormatError, NotApplicable
from .factorization import verify_factorization, Factorization, lift_zero
from .groupoids import factor_clifford, groupoid_of, groupoid_structure, \
    inverse_determinant
from .nilpotent import factor_nil_adjoined, parse_cocycle
from .poly import DEFAULT_CAP, Poly, parse_poly, mono_str
from .posets import factor_semilattice, mobius, natural_order, smith_determinant
from .rings import FiniteFieldSpec, frobenius_form_check, kovacs_check, \
    matrix_monoid, zmod_monoid, _prime_power
from .semigroups import FAMILIES, analyze, build_family, emit_sgp, parse_sgp


def read_input(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}")


def load_semigroup(path):
    return parse_sgp(read_input(path))


def variables_map(S):
    return {f"x{i}": S.name_of(i) for i in range(S.n)}


def poly_form(p):
    """A factor as {monomial token: coefficient string}, in the order of
    its canonical print."""
    return {mono_str(m) if m else "1": c for m, c in p.printed()}


def form_poly(form, order):
    return Poly.from_terms(order, (
        item for k, v in form.items()
        for item in parse_poly(k, order).scale(parse_cyc(v, order))
        .terms.items()))


def _rational(p):
    return all(c.is_rational() for c in p.terms.values())


def _at_common_order(F):
    """(N, constant, factors) of F with its constant and every factor at
    N, the lcm of their cyclotomic orders, so that z means zeta_N
    throughout. A factor with rational coefficients prints the same at
    every order, so it keeps its own order and its print."""
    order = lcm(F.constant.order, *(f.order for f, _ in F.factors))
    return (order, F.constant.embed(order),
            [(f if f.order == order or _rational(f) else f.at_order(order), m)
             for f, m in F.factors])


def factorization_data(F, S):
    order, constant, factors = _at_common_order(F)
    data = {
        "status": F.status,
        "constant": constant.to_str(),
        "cyclotomic_order": order,
        "factors": [{"form": poly_form(f), "multiplicity": m}
                    for f, m in factors],
        "verification": F.verification,
        "provenance": F.provenance,
        "notes": list(F.notes),
        "variables": variables_map(S),
    }
    return data


def verification_line(v):
    if v is None:
        return "none"
    if v.get("mode") == "exact":
        return "exact"
    parts = [v.get("mode", "?")]
    if "rounds" in v:
        r = v["rounds"]
        parts.append(f"{r} round" + ("s" if r != 1 else ""))
    if "seed" in v:
        parts.append(f"seed {v['seed']}")
    return ", ".join(parts)


def factorization_lines(F, S):
    names = S.names
    out = [f"status: {F.status}", f"provenance: {F.provenance}"]
    if F.status == "factored":
        order, constant, factors = _at_common_order(F)
        out.append(f"constant: {constant.to_str()}")
        if not constant.is_rational() or not all(
                _rational(f) for f, _ in F.factors):
            out.append(f"cyclotomic order: {order} "
                       f"(z = a primitive root of unity of order {order})")
        out.append("factors:")
        for f, m in factors:
            out.append(f"  ({f.to_str(names)})" + (f"^{m}" if m > 1 else ""))
    out.append("verification: " + verification_line(F.verification))
    for note in F.notes:
        out.append(f"note: {note}")
    return out


def emit(args, data, lines):
    """Print data as JSON under --json and lines otherwise. A caller may
    pass None for the one that is not printed (see rendered)."""
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print("\n".join(lines))


def rendered(args, data_of, lines_of, *inputs):
    """(data, lines) with only the one that emit prints built."""
    if args.json:
        return data_of(*inputs), None
    return None, lines_of(*inputs)


def cmd_validate(args):
    S = load_semigroup(args.input)
    canonical = emit_sgp(S)
    if args.json:
        data = {
            "status": "ok",
            "n": S.n,
            "elements": list(S.names) if S.names else None,
            "zero": S.name_of(S.zero) if S.zero is not None else None,
            "identity": S.name_of(S.identity) if S.identity is not None else None,
            "canonical": canonical,
        }
        print(json.dumps(data, indent=2))
    else:
        sys.stdout.write(canonical)
    return 0


def cmd_info(args):
    S = load_semigroup(args.input)
    rep = analyze(S)
    name = S.name_of
    data = {
        "status": "ok",
        "n": rep.n,
        "is_commutative": rep.is_commutative,
        "is_band": rep.is_band,
        "is_semilattice": rep.is_semilattice,
        "is_group": rep.is_group,
        "zero": name(rep.zero) if rep.zero is not None else None,
        "identity": name(rep.identity) if rep.identity is not None else None,
        "idempotents": [name(e) for e in rep.idempotents],
        "central_idempotents": rep.central_idempotents,
        "surjective_square": rep.is_surjective_square,
        "group_of_units": [name(u) for u in rep.group_of_units]
                          if rep.group_of_units is not None else None,
        "fixed_points": [list(fp) for fp in rep.fixed_points],
    }
    lines = [f"n: {rep.n}",
             f"commutative: {rep.is_commutative}",
             f"band: {rep.is_band}",
             f"semilattice: {rep.is_semilattice}",
             f"group: {rep.is_group}",
             f"zero: {data['zero']}",
             f"identity: {data['identity']}",
             "idempotents: " + " ".join(data["idempotents"]),
             f"central idempotents: {rep.central_idempotents}",
             f"products cover S: {rep.is_surjective_square}"]
    if data["group_of_units"] is not None:
        lines.append("units: " + " ".join(data["group_of_units"]))
    lines.append("fixed points (left, right): " + " ".join(
        f"{name(s)}:({l},{r})" for s, (l, r) in enumerate(rep.fixed_points)))
    emit(args, data, lines)
    return 0


def determinant_mode(args, S):
    """(mode, cocycle) of a request's determinant: twisted by the cocycle
    file of --twist, else contracted with --contracted, else plain."""
    if args.twist is not None:
        return "twisted", parse_cocycle(read_input(args.twist), S)
    return ("contracted" if args.contracted else "plain"), None


def cmd_det(args):
    S = load_semigroup(args.input)
    mode, cocycle = determinant_mode(args, S)
    theta = paratrophic_determinant(S, mode=mode, cocycle=cocycle, cap=args.cap)
    text = theta.to_str()
    data = {
        "status": "ok",
        "mode": mode,
        "determinant": text,
        "cyclotomic_order": theta.order,
        "degree": theta.total_degree(),
        "variables": variables_map(S),
    }
    lines = [text,
             f"# mode: {mode}",
             f"# order: {theta.order}",
             "# variables: " + " ".join(
                 f"x{i}={S.name_of(i)}" for i in range(S.n))]
    emit(args, data, lines)
    return 0


def effective_cap(args, n):
    if getattr(args, "exact", False):
        return max(args.cap, n)
    if getattr(args, "randomized", False):
        return 0
    return args.cap


def cmd_frobenius(args):
    S = load_semigroup(args.input)
    r = frobenius_test(S, seed=args.seed, cap=effective_cap(args, S.n))
    data = frobenius_data(r, S)
    emit(args, data, frobenius_lines(r, S))
    return 0


def frobenius_data(r, S, extra_notes=()):
    witness = None
    if r.witness is not None:
        witness = {"point": {f"x{s}": v for s, v in sorted(r.witness["point"].items())},
                   "determinant": r.witness["determinant"]}
    return {
        "status": r.status,
        "reason": r.reason,
        "witness": witness,
        "verification": r.verification,
        "notes": list(extra_notes),
        "variables": variables_map(S),
    }


def frobenius_lines(r, S, extra_notes=()):
    lines = [f"status: {r.status}"]
    if r.reason:
        lines.append(f"reason: {r.reason}")
    if r.witness is not None:
        pt = " ".join(f"x_{S.name_of(s)}={v}"
                      for s, v in sorted(r.witness["point"].items()))
        lines.append(f"witness point: {pt}")
        lines.append(f"witness determinant: {r.witness['determinant']}")
    lines.append("verification: " + verification_line(r.verification))
    for note in extra_notes:
        lines.append(f"note: {note}")
    return lines


def cmd_mobius(args):
    S = load_semigroup(args.input)
    poset = natural_order(S, args.mode)
    mu = mobius(poset)
    rows = [[int(mu[a][b]) for b in range(S.n)] for a in range(S.n)]
    data = {
        "status": "ok",
        "mode": args.mode,
        "elements": [S.name_of(s) for s in range(S.n)],
        "matrix": rows,
    }
    width = max(len(str(v)) for row in rows for v in row)
    width = max(width, max(len(S.name_of(s)) for s in range(S.n)))
    header = " ".join(f"{S.name_of(s):>{width}}" for s in range(S.n))
    lines = [f"mode: {args.mode}", " " * (width + 1) + header]
    for a in range(S.n):
        lines.append(f"{S.name_of(a):>{width}}  " +
                     " ".join(f"{v:>{width}}" for v in rows[a]))
    emit(args, data, lines)
    return 0


def cmd_groupoid(args):
    S = load_semigroup(args.input)
    comps = []
    for objs, base, k, g in groupoid_structure(groupoid_of(S)):
        comps.append({"objects": [S.name_of(o) for o in objs],
                      "base": S.name_of(base),
                      "n_objects": k,
                      "group_order": g})
    data = {"status": "ok", "total_arrows": S.n,
            "components": comps}
    lines = [f"components: {len(comps)}"]
    for c in comps:
        lines.append(f"  at {c['base']}: {c['n_objects']} objects, "
                     f"isotropy order {c['group_order']}, "
                     "objects " + " ".join(c["objects"]))
    lines.append(f"arrow count: sum n_i^2 |G_i| = {S.n} = |S|")
    emit(args, data, lines)
    return 0


def factor_routes(S, args, cocycle):
    """The routes of a factor request, in the order cmd_factor tries them:
    (guard, factorizer). Each guard is a bool read from the structure of
    S; the factorizer runs when it holds. Each answer is a factorization
    of the request's own determinant, which cmd_factor checks, except the
    general inverse route's (theta, components): that route rejects a
    non-inverse S itself, before any expansion, and checks its expanded
    theta itself. Plain factor lifts the nilpotent route's answer for the
    contracted determinant to the plain one."""
    if cocycle is not None:
        return [(True, lambda S: factor_nil_adjoined(S, cocycle))]
    if args.contracted:
        return [(True, factor_nil_adjoined), (True, factor_local)]
    cap = effective_cap(args, S.n)
    rep = analyze(S)
    return [
        (rep.is_semilattice, factor_semilattice),
        (rep.is_group and rep.is_commutative, factor_group_determinant),
        (rep.central_idempotents, factor_clifford),
        (True, lambda S: inverse_determinant(S, cap=cap)),
        (True, lambda S: lift_zero(factor_nil_adjoined(S), S.zero)),
        (rep.is_commutative, factor_commutative),
    ]


def vanishing_result(S, args, skips):
    """The staged vanishing test, when no route answers a plain request.
    When the inverse route stopped at the cap, a note gives its first
    reason: the Clifford theorem's, if that ran."""
    notes = []
    if any(isinstance(e.__cause__, DimensionCap) for e in skips):
        notes.append(f"inverse route skipped: {skips[0]}")
    notes.append("no factorization theorem applies; "
                 "staged vanishing test only")
    r = frobenius_test(S, seed=args.seed, cap=effective_cap(args, S.n))
    if not args.json:
        return None, frobenius_lines(r, S, extra_notes=notes)
    data = frobenius_data(r, S, extra_notes=notes)
    data["provenance"] = None
    return data, None


def checked_factor(S, F, args, mode, cocycle):
    """F with the record of its one check against the plain, contracted
    or twisted determinant of S, under the cap and seed of the request."""
    return verify_against(S, F, mode, cocycle, cap=effective_cap(args, S.n),
                          seed=args.seed)


def inverse_result(S, theta, components, args):
    """(data, lines) of the general inverse route, with only the one that
    emit prints built. The route checks theta exactly itself."""
    status = "zero" if theta.is_zero() else "frobenius"
    comps = [{"base": S.name_of(b), "n_objects": k, "group_order": g}
             for _, b, k, g in components]
    verification = {"mode": "exact", "rounds": 1, "seed": args.seed}
    if args.json:
        return {
            "status": status,
            "provenance": "groupoid-mobius",
            "determinant": theta.to_str(),
            "cyclotomic_order": theta.order,
            "groupoid": comps,
            "verification": verification,
            "variables": variables_map(S),
        }, None
    lines = [f"status: {status}", "provenance: groupoid-mobius",
             f"determinant: {theta.to_str(S.names)}"]
    for c in comps:
        lines.append(f"  component at {c['base']}: {c['n_objects']} objects, "
                     f"isotropy order {c['group_order']}")
    lines.append("verification: " + verification_line(verification))
    return None, lines


def cmd_factor(args):
    """Factor with the first route whose guard holds and whose
    factorizer does not raise NotApplicable, and check its answer once.
    Only the factorizer call is inside the try: an error from a check
    always propagates."""
    S = load_semigroup(args.input)
    mode, cocycle = determinant_mode(args, S)
    skips = []
    for applies, factorize in factor_routes(S, args, cocycle):
        if not applies:
            continue
        try:
            answer = factorize(S)
        except NotApplicable as e:
            # kept for its type and text; without its traceback it keeps
            # no frame of this request alive in a reference cycle
            skips.append(e.with_traceback(None))
            continue
        if isinstance(answer, Factorization):
            F = checked_factor(S, answer, args, mode, cocycle)
            data, lines = rendered(args, factorization_data,
                                   factorization_lines, F, S)
        else:
            data, lines = inverse_result(S, *answer, args)
        break
    else:
        if cocycle is not None:
            raise skips[-1]
        if args.contracted:
            raise FrobdetError(
                "no contracted factorizer applies: " + str(skips[-1]))
        data, lines = vanishing_result(S, args, skips)
    emit(args, data, lines)
    return 0


def cmd_gen(args):
    family = args.family
    if family not in FAMILIES:
        raise FrobdetError(
            f"unknown family {family!r}; known: {' '.join(sorted(FAMILIES))}")
    if family in ("adjoin_identity", "adjoin_zero"):
        if len(args.params) != 1:
            raise FrobdetError(f"family {family} takes one .sgp input")
        S = FAMILIES[family](load_semigroup(args.params[0]))
    else:
        S = build_family(family, *args.params)
    text = emit_sgp(S)
    if args.json:
        print(json.dumps({"status": "ok", "family": family,
                          "params": args.params, "sgp": text}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def cmd_smith(args):
    n = args.n
    d = smith_determinant(n)
    phis = [sum(1 for a in range(1, k + 1) if gcd(a, k) == 1)
            for k in range(1, n + 1)]
    data = {"status": "ok", "n": n, "determinant": d, "phi_factors": phis}
    lines = [f"det [gcd(i, j)] for 1 <= i, j <= {n}: {d}",
             "totient product: " + " * ".join(str(v) for v in phis)
             + f" = {d}"]
    emit(args, data, lines)
    return 0


def cmd_kovacs(args):
    rep = kovacs_check(args.n, args.q)
    n, q = rep["n"], rep["q"]
    terms = " + ".join(
        f"{rep['q_binomials'][r]}^2 * {rep['gl_orders'][r]}"
        for r in range(n + 1))
    lines = [f"q^(n^2) = {rep['power']} for n = {n}, q = {q}",
             f"sum over ranks: {terms} = {rep['sum']}",
             f"identity holds: {rep['equal']}"]
    if "subspace_counts" in rep:
        lines.append("brute subspace counts: "
                     + " ".join(str(v) for v in rep["subspace_counts"])
                     + f" (agree: {rep['subspaces_agree']})")
    emit(args, rep, lines)
    return 0


def cmd_ringcheck(args):
    kind = args.construction
    if kind == "zmod":
        if len(args.params) != 1:
            raise FrobdetError("ringcheck zmod takes one parameter n")
        n = args.params[0]
        S, lam = zmod_monoid(n)
        label = f"zmod {n}"
        params = [n]
    elif kind == "matmonoid":
        if len(args.params) != 2:
            raise FrobdetError("ringcheck matmonoid takes parameters n q")
        n, q = args.params
        p, m = _prime_power(q)
        S, lam = matrix_monoid(n, FiniteFieldSpec.make(p, m))
        label = f"matmonoid {n} over F_{q}"
        params = [n, q]
    else:
        raise FrobdetError(f"unknown construction {kind!r}")
    d = frobenius_form_check(S, lam)
    status = "inconclusive" if d.is_zero() else "frobenius"
    data = {
        "status": status,
        "construction": kind,
        "params": params,
        "size": S.n,
        "determinant": d.to_str(),
        "cyclotomic_order": d.order,
    }
    lines = [f"{label}: {S.n} elements",
             f"det [lambda(st)] = {d.to_str()}"
             + (f" (z = a primitive root of unity of order {d.order})"
                if "z" in d.to_str() else ""),
             "nonzero, so the monoid algebra is Frobenius" if status == "frobenius"
             else "zero determinant: inconclusive"]
    emit(args, data, lines)
    return 0


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def load_factorization_json(text):
    """Parse a factorization as printed by `factor --json`, checking the
    shape of every field that cmd_verify reads."""
    fact = json.loads(text)
    if not isinstance(fact, dict):
        raise FormatError("factorization file must hold a JSON object")
    if fact.get("status") not in ("zero", "factored"):
        raise FormatError("factorization file must have status "
                          "'zero' or 'factored', got "
                          f"{fact.get('status')!r}")
    if not _is_count(fact.get("cyclotomic_order", 1)):
        raise FormatError("cyclotomic_order must be an integer >= 1, got "
                          f"{fact['cyclotomic_order']!r}")
    if not isinstance(fact.get("constant", "0"), str):
        raise FormatError("constant must be a string")
    factors = fact.get("factors", [])
    if not isinstance(factors, list):
        raise FormatError("factors must be a list")
    for item in factors:
        form = item.get("form") if isinstance(item, dict) else None
        if not isinstance(form, dict) \
                or not all(isinstance(v, str) for v in form.values()):
            raise FormatError("each factor must be an object with a form "
                              "mapping monomials to coefficient strings")
        if not _is_count(item.get("multiplicity")):
            raise FormatError("factor multiplicity must be an integer >= 1, "
                              f"got {item.get('multiplicity')!r}")
    return fact


def cmd_verify(args):
    det_lines = read_input(args.det_file).splitlines()
    poly_line = None
    det_order = None
    for ln in det_lines:
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            toks = ln[1:].split()
            if len(toks) == 2 and toks[0] == "order:" and toks[1].isdecimal():
                det_order = int(toks[1])
            continue
        if poly_line is None:
            poly_line = ln
    if poly_line is None:
        raise FormatError("determinant file has no polynomial line")
    fact = load_factorization_json(read_input(args.fact_file))
    order = fact.get("cyclotomic_order", 1)
    if det_order is not None:
        order = lcm(order, det_order)
    reference = parse_poly(poly_line, order)
    factors = tuple((form_poly(item["form"], order), item["multiplicity"])
                    for item in fact.get("factors", ()))
    F = Factorization(fact["status"], parse_cyc(fact.get("constant", "0"), order),
                      factors, fact.get("provenance") or "file", ())
    mode = "randomized" if args.randomized else "exact"
    v = verify_factorization(reference, F, mode=mode, seed=args.seed)
    status = "verified" if v["equal"] else "mismatch"
    data = {"status": status, "verification": v}
    lines = [f"status: {status}",
             "verification: " + verification_line(v)]
    if not v["equal"] and "witness" in v:
        lines.append("witness point: " + " ".join(
            f"x{s}={val}" for s, val in sorted(v["witness"].items())))
        data["verification"] = dict(v)
        data["verification"]["witness"] = {
            f"x{s}": val for s, val in sorted(v["witness"].items())}
    emit(args, data, lines)
    return 0 if v["equal"] else 1


_PARSER = None


def build_parser():
    """The argument parser. The first call builds it and every later call
    returns the same object: parse_args keeps no state in the parser, so
    one serves every request of a process."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="frobdet",
        description="Exact semigroup determinants: compute, test, factor.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seedcap=False, modes=False):
        p.add_argument("--json", action="store_true",
                       help="print a JSON object instead of text")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (results do not depend on it)")
        if seedcap:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized checks")
            p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="largest size for symbolic determinants")
        if modes:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--exact", action="store_true",
                           help="force exact verification")
            g.add_argument("--randomized", action="store_true",
                           help="force randomized verification")

    p = sub.add_parser("validate", help="parse and echo the canonical form")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="structural analysis")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("det", help="symbolic semigroup determinant")
    p.add_argument("input")
    p.add_argument("--contracted", action="store_true",
                   help="contracted matrix over the nonzero elements")
    p.add_argument("--twist", metavar="FILE",
                   help="cocycle file; implies the contracted basis")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest size for symbolic determinants")
    common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("frobenius", help="staged nonvanishing test")
    p.add_argument("input")
    common(p, seedcap=True, modes=True)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("mobius", help="Mobius matrix of the natural order")
    p.add_argument("input")
    p.add_argument("--mode", default="semilattice",
                   choices=("semilattice", "inverse", "central_idempotent"),
                   help="which natural partial order to use")
    common(p)
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("factor", help="factor the semigroup determinant")
    p.add_argument("input")
    p.add_argument("--contracted", action="store_true",
                   help="factor the contracted determinant")
    p.add_argument("--twist", metavar="FILE",
                   help="cocycle file; factors the twisted determinant")
    common(p, seedcap=True, modes=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("groupoid", help="groupoid structure of an inverse semigroup")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_groupoid)

    p = sub.add_parser("gen", help="emit a named family member as .sgp")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("smith", help="determinant of the gcd matrix")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_smith)

    p = sub.add_parser("kovacs", help="dimension identity for matrix monoids")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=cmd_kovacs)

    p = sub.add_parser("ringcheck", help="Frobenius form of a ring monoid")
    p.add_argument("construction", choices=("zmod", "matmonoid"))
    p.add_argument("params", type=int, nargs="*")
    common(p)
    p.set_defaults(func=cmd_ringcheck)

    p = sub.add_parser("verify", help="check a factorization against a determinant")
    p.add_argument("det_file")
    p.add_argument("fact_file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized checks")
    common(p, modes=True)
    p.set_defaults(func=cmd_verify)

    _PARSER = parser
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    for flag, least in (("threads", 1), ("cap", 0)):
        if getattr(args, flag, least) < least:
            print(f"error: --{flag} must be at least {least}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except FrobdetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"error: bad JSON input: {e}", file=sys.stderr)
        return 1


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
