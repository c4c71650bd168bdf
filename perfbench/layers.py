"""Per-layer metrics derived from a traced run.

Values are per traced pass (every pass runs the same requests): times in
seconds of self time, except the 'incl' rows of METRICS
(determinant.paratrophic_s, rings.form_check_s), which include callees;
counts are exact. determinant.repeat_ratio counts determinants of a table,
mode and cocycle already seen earlier in the same pass.
"""

from collections import defaultdict

from tracer import self_times

# Entry points of the factorization routes, as called from the CLI.
FACTORIZERS = {
    "posets.factor_semilattice", "determinant.factor_group_determinant",
    "groupoids.factor_clifford", "groupoids.inverse_determinant",
    "nilpotent.factor_nil_adjoined", "commutative.factor_commutative",
    "commutative.factor_local", "determinant.frobenius_test",
}
VERIFIERS = ("factorization.verify_factorization",
             "factorization.random_table_check",
             "factorization.random_contracted_check")

# (metric, unit, kind, span or count names)
#   self: summed self time; incl: summed duration of outermost spans;
#   calls: number of spans; count: counted calls; stat: from a hook.
METRICS = [
    ("cli.build_parser_s", "s", "self", ("cli.build_parser",)),
    ("cli.self_s", "s", "layer_self", "cli"),
    ("cli.route_attempts_per_request", "ratio", "route_attempts", ()),
    ("semigroups.parse_sgp_s", "s", "self", ("semigroups.parse_sgp",)),
    ("semigroups.validate_table_calls", "count", "calls",
     ("semigroups.validate_table",)),
    ("semigroups.validate_table_s", "s", "self",
     ("semigroups.validate_table",)),
    ("semigroups.analyze_calls", "count", "calls", ("semigroups.analyze",)),
    ("semigroups.analyze_s", "s", "self", ("semigroups.analyze",)),
    ("posets.natural_order_s", "s", "self", ("posets.natural_order",)),
    ("posets.mobius_s", "s", "self", ("posets.mobius",)),
    ("characters.character_group_calls", "count", "calls",
     ("characters.character_group",)),
    ("characters.character_group_s", "s", "self",
     ("characters.character_group",)),
    ("poly.det_calls", "count", "calls", ("poly.det_poly_matrix",)),
    ("poly.det_s", "s", "self", ("poly.det_poly_matrix",)),
    ("poly.det_max_dim", "rows", "stat", "poly.det_max_dim"),
    ("poly.det_terms_out", "count", "stat", "poly.det_terms_out"),
    ("poly.divide_exact_calls", "count", "calls", ("poly.divide_exact",)),
    ("poly.divide_exact_s", "s", "self", ("poly.divide_exact",)),
    ("poly.divide_exact_terms_out", "count", "stat",
     "poly.divide_exact_terms_out"),
    ("poly.mul_calls", "count", "count", ("poly.Poly.__mul__",)),
    ("poly.substitute_s", "s", "self",
     ("poly.substitute", "poly.substitute_linear")),
    ("poly.evaluate_calls", "count", "calls", ("poly.evaluate",)),
    ("poly.evaluate_s", "s", "self", ("poly.evaluate",)),
    ("cyclotomic.mul_calls", "count", "count",
     ("cyclotomic.CycNum.__mul__",)),
    ("cyclotomic.inverse_calls", "count", "count",
     ("cyclotomic.CycNum.inverse",)),
    ("cyclotomic.embed_calls", "count", "count",
     ("cyclotomic.CycNum.embed",)),
    ("linalg.int_det_calls", "count", "calls", ("linalg.int_det",)),
    ("linalg.int_det_s", "s", "self", ("linalg.int_det",)),
    ("linalg.cyc_det_calls", "count", "calls", ("linalg.cyc_det",)),
    ("linalg.cyc_det_s", "s", "self", ("linalg.cyc_det",)),
    ("linalg.cyc_det_max_dim", "rows", "stat", "linalg.cyc_det_max_dim"),
    ("factorization.verify_calls", "count", "calls", VERIFIERS),
    ("factorization.verify_s", "s", "self", VERIFIERS),
    ("factorization.expand_s", "s", "self", ("factorization.expand",)),
    ("factorization.normalize_s", "s", "self",
     ("factorization.normalized",)),
    ("determinant.paratrophic_calls", "count", "calls",
     ("determinant.paratrophic_determinant",)),
    ("determinant.paratrophic_s", "s", "incl",
     ("determinant.paratrophic_determinant",)),
    ("determinant.paratrophic_share", "ratio", "paratrophic_share", ()),
    ("determinant.repeat_ratio", "ratio", "repeat_ratio", ()),
    ("determinant.constant_s", "s", "self",
     ("determinant.constant_by_division", "determinant.constant_by_ratio")),
    ("determinant.frobenius_test_s", "s", "self",
     ("determinant.frobenius_test",)),
    ("commutative.factor_local_calls", "count", "calls",
     ("commutative.factor_local",)),
    ("commutative.local_spectrum_s", "s", "self",
     ("commutative.local_spectrum",)),
    ("commutative.splus_decompose_s", "s", "self",
     ("commutative.splus_decompose",)),
    ("groupoids.groupoid_determinant_s", "s", "self",
     ("groupoids.groupoid_determinant",)),
    ("groupoids.mobius_forms_s", "s", "self", ("groupoids.mobius_forms",)),
    ("nilpotent.analyze_nilpotent_s", "s", "self",
     ("nilpotent.analyze_nilpotent",)),
    ("nilpotent.cocycle_s", "s", "self",
     ("nilpotent.Cocycle.for_monoid", "nilpotent.parse_cocycle")),
    ("rings.monoid_build_s", "s", "self",
     ("rings.zmod_monoid", "rings.matrix_monoid")),
    ("rings.form_check_s", "s", "incl", ("rings.frobenius_form_check",)),
    ("trace.overhead_ratio", "ratio", "overhead", ()),
]


def install_hooks(tracer):
    """Hooks that record sizes and the repeat key of each determinant."""
    def det_poly(t, args, kwargs, result):
        t.stats["poly.det_max_dim"] = max(t.stats["poly.det_max_dim"],
                                          len(args[0]))
        t.stats["poly.det_terms_out"] += len(result.terms)

    def divide(t, args, kwargs, result):
        t.stats["poly.divide_exact_terms_out"] += len(result.terms)

    def cyc_det(t, args, kwargs, result):
        t.stats["linalg.cyc_det_max_dim"] = max(
            t.stats["linalg.cyc_det_max_dim"], len(args[0]))

    def paratrophic(t, args, kwargs, result):
        S = args[0]
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "plain")
        cocycle = kwargs.get("cocycle", args[2] if len(args) > 2 else None)
        key = (S.table, mode, repr(cocycle))
        if key in t.seen_tables:
            t.stats["determinant.repeats"] += 1
        t.seen_tables.add(key)

    tracer.seen_tables = set()
    tracer.on_exit("poly.det_poly_matrix", det_poly)
    tracer.on_exit("poly.divide_exact", divide)
    tracer.on_exit("linalg.cyc_det", cyc_det)
    tracer.on_exit("determinant.paratrophic_determinant", paratrophic)


def derive(tracer, passes, factor_requests, overhead):
    """{metric: value} from the spans and counts of `passes` traced
    passes; factor_requests is the number of factor requests in them."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_by = defaultdict(float)
    calls_by = defaultdict(int)
    incl_by = defaultdict(float)
    for s, st in zip(spans, selfs):
        self_by[s.name] += st
        calls_by[s.name] += 1
        if s.parent is None or spans[s.parent].name != s.name:
            incl_by[s.name] += s.end - s.start
    layer_self = defaultdict(float)
    for name, v in self_by.items():
        layer_self[name.split(".")[0]] += v
    attempts = sum(1 for s in spans if s.name in FACTORIZERS
                   and s.parent is not None
                   and spans[s.parent].name.startswith("cli."))
    request_time = incl_by["cli.run"]
    out = {}
    for name, unit, kind, ref in METRICS:
        if kind == "self":
            v = sum(self_by[r] for r in ref) / passes
        elif kind == "incl":
            v = sum(incl_by[r] for r in ref) / passes
        elif kind == "calls":
            v = sum(calls_by[r] for r in ref) / passes
        elif kind == "count":
            v = sum(tracer.counts[r] for r in ref) / passes
        elif kind == "stat":
            v = tracer.stats[ref] / (1 if ref.endswith("_max_dim") else passes)
        elif kind == "layer_self":
            v = layer_self[ref] / passes
        elif kind == "route_attempts":
            v = attempts / factor_requests if factor_requests else 0.0
        elif kind == "paratrophic_share":
            v = (incl_by["determinant.paratrophic_determinant"] / request_time
                 if request_time else 0.0)
        elif kind == "repeat_ratio":
            calls = calls_by["determinant.paratrophic_determinant"]
            v = tracer.stats["determinant.repeats"] / calls if calls else 0.0
        else:
            v = overhead
        out[name] = (v, unit)
    return out
