"""Layer spans recorded by wrapping the package's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``excprimes`` module namespace that holds it (and on the class for methods);
``Tracer.uninstall`` puts the originals back. A span is
``[name, start, end, parent index, job id, value]``; ``value`` carries the
counter the layer reports (field size, truncation, digits, ...). Spans stay
in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time


def _arg(pos, name):
    def get(args, kwargs, result):
        return kwargs[name] if name in kwargs else args[pos]
    return get


def _digits(args, kwargs, result):
    """Decimal digits of |n| without str(), which refuses over 4300 digits."""
    n = abs(_arg(0, "n")(args, kwargs, result))
    d = max(1, int(n.bit_length() * math.log10(2)))
    return d + 1 if n >= 10 ** d else d


def _field_q(args, kwargs, result):
    return _arg(1, "field")(args, kwargs, result).q


def _points_key(args, kwargs, result):
    return (args[0].label, args[1], args[2])


def _checked(args, kwargs, result):
    return result.checked_up_to if result is not None else 0


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("excprimes.residues", "poly_roots_in_field", "residues.roots", _field_q),
    ("excprimes.residues", "find_residue_points", "residues.find_points", _points_key),
    ("excprimes.residues", "compositum_norm", "residues.norm", None),
    ("excprimes.residues", "NewformFixture.from_json_file", "residues.fixture_load", None),
    ("excprimes.verify", "frobenius_scan", "verify.scan", None),
    ("excprimes.verify", "verify_reducible", "verify.compare", _checked),
    ("excprimes.verify", "verify_weight2_squarefree", "verify.compare", _checked),
    ("excprimes.eisenstein", "eisenstein_E", "eisenstein.series", _arg(2, "truncation")),
    ("excprimes.eisenstein", "eprime_twisted", "eisenstein.series", _arg(2, "truncation")),
    ("excprimes.eisenstein", "eprime_weight2_steinberg", "eisenstein.series", _arg(2, "truncation")),
    ("excprimes.exact", "factorize", "exact.factorize", _digits),
    ("excprimes.bernoulli", "bernoulli_classical", "bernoulli", None),
    ("excprimes.bernoulli", "bernoulli_generalized", "bernoulli", None),
    ("excprimes.bernoulli", "bernoulli_norm_numerator", "bernoulli", None),
    ("excprimes.cyclotomic", "CycloElement.norm", "cyclotomic.norm", None),
    ("excprimes.characters", "enumerate_characters", "characters.enumerate", None),
    ("excprimes.characters", "character_by_index", "characters.enumerate", None),
    ("excprimes.bounds", "candidate_report", "bounds", None),
    ("excprimes.dimensions", "level_invariants", "dimensions", None),
    ("excprimes.dimensions", "dim_cusp_forms", "dimensions", None),
    ("excprimes.dimensions", "dim_new", "dimensions", None),
    ("excprimes.dimensions", "sturm_bound", "dimensions", None),
)

ROOT_SPAN = "cli"

# Span name -> metric that receives its self time, in seconds. The JSON line
# carries each as a share of the traced pass (``share_metric``), so a layer a
# workload never enters reads 0 % rather than a constant 0 s.
SELF_TIME_METRIC = {
    "residues.roots": "residues.roots_s",
    "residues.find_points": "residues.find_points_s",
    "residues.norm": "residues.norm_s",
    "residues.fixture_load": "residues.fixture_load_s",
    "verify.scan": "verify.scan_s",
    "verify.compare": "verify.compare_s",
    "eisenstein.series": "eisenstein.series_s",
    "exact.factorize": "exact.factorize_s",
    "bernoulli": "bernoulli.s",
    "cyclotomic.norm": "cyclotomic.norm_s",
    "characters.enumerate": "characters.enumerate_s",
    "bounds": "bounds.self_s",
    "dimensions": "dimensions.s",
    ROOT_SPAN: "cli.self_s",
}
CALL_METRIC = {
    "residues.roots": "residues.roots_calls",
    "residues.find_points": "residues.find_points_calls",
    "residues.norm": "residues.norm_calls",
    "verify.scan": "verify.scan_calls",
    "eisenstein.series": "eisenstein.series_calls",
    "exact.factorize": "exact.factorize_calls",
    "bernoulli": "bernoulli.calls",
}
# Counters, with their unit and better direction.
COUNT_METRICS = (
    ("residues.roots_calls", "count", "lower"),
    ("residues.roots_field_q_sum", "elements", "lower"),
    ("residues.find_points_calls", "count", "lower"),
    ("residues.find_points_distinct", "count", "lower"),
    ("residues.find_points_reuse", "ratio", "higher"),
    ("residues.norm_calls", "count", "lower"),
    ("verify.scan_calls", "count", "lower"),
    ("verify.coeffs_checked", "count", "higher"),
    ("eisenstein.series_calls", "count", "lower"),
    ("eisenstein.terms", "count", "lower"),
    ("exact.factorize_calls", "count", "lower"),
    ("exact.factorize_max_digits", "digits", "lower"),
    ("bernoulli.calls", "count", "lower"),
)
TRACE_METRICS = (
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unexplained_s", "s", "lower"),
)


def share_metric(seconds_metric: str) -> str:
    """'residues.roots_s' -> 'residues.roots_pct', 'bernoulli.s' -> 'bernoulli.pct'."""
    return seconds_metric[:-1] + "pct"


# (metric, unit, better): the per-layer metrics of the JSON line, in order.
LAYER_METRICS = (
    tuple((share_metric(m), "%", "lower") for m in SELF_TIME_METRIC.values())
    + COUNT_METRICS
    + TRACE_METRICS
)


class Tracer:
    """Records spans while installed; one instance per pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._job_first = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    rec[5] = counter(args, kwargs, result)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "excprimes" or n.startswith("excprimes."))]
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    new = self.wrap(name, raw, counter)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            new = self.wrap(name, orig, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._restore.append((m, key, orig))

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self._job_first = len(self.spans)

    def end_job(self, t_end: float) -> None:
        """Close spans a deadline interrupted before their wrapper could."""
        for rec in self.spans[self._job_first:]:
            if rec[2] is None:
                rec[2] = t_end
        self._stack.clear()

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)


def layer_metrics(spans) -> dict:
    """Self seconds per layer and the counters, from a list of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job, value in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {m: 0.0 for m in SELF_TIME_METRIC.values()}
    out.update({m: 0 for m, _, _ in COUNT_METRICS})
    distinct = set()
    for i, (name, start, end, parent, job, value) in enumerate(spans):
        out[SELF_TIME_METRIC[name]] += end - start - child[i]
        if name in CALL_METRIC:
            out[CALL_METRIC[name]] += 1
        if value is None:  # a deadline struck before the counter was read
            continue
        if name == "residues.roots":
            out["residues.roots_field_q_sum"] += value
        elif name == "residues.find_points":
            distinct.add(tuple(value))
        elif name == "verify.compare":
            out["verify.coeffs_checked"] += value
        elif name == "eisenstein.series":
            out["eisenstein.terms"] += value
        elif name == "exact.factorize":
            out["exact.factorize_max_digits"] = max(out["exact.factorize_max_digits"], value)
    calls = out["residues.find_points_calls"]
    out["residues.find_points_distinct"] = len(distinct)
    out["residues.find_points_reuse"] = len(distinct) / calls if calls else 1.0
    return out
