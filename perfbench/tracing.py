"""Span recorder and layer wrappers for the traced run (``--trace 1``).

Only the traced run imports this module.  ``Tracer.install()`` replaces each
traced function at every cuspbase module that holds it -- basis imports
``evaluate`` by name, verify imports ``m_basis`` and ``s_basis`` by name --
and the QSeries operators on the class; ``uninstall()`` puts the originals
back.  Spans (id, name, start, end, parent, task) stay in memory in flat
arrays until ``write_spans()``.

A span's self time is its duration minus the durations of its child spans.
A call made while a span of the same name is open joins that span, so the
addition inside ``QSeries.__sub__`` counts once, as ``series.add``.

The counts are computed from each call's arguments and return value by
hooks that run after the span closes.  Hook time is subtracted from every
open span, so it is charged to no layer and shows only in trace.overhead_s.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from fractions import Fraction

from cuspbase.series import QSeries

# QSeries operators: metric prefix -> method names on the class
SERIES_METHODS = {
    "series.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "series.scale": ("scale",),
    "series.mul": ("__mul__", "__rmul__"),
    "series.pow": ("__pow__",),
    "series.invert": ("invert",),
}

# module -> traced public functions
MODULE_FUNCTIONS = {
    "eta": ("eta_expand",),
    "eisenstein": ("eisenstein_series", "weight2_level_combo"),
    "weierstrass": ("wpa_expand",),
    "dimensions": ("dim_modular", "dim_cusp", "sturm_bound", "default_prec"),
    "catalog": ("evaluate",),
    "parse": ("parse_expr",),
    "basis": ("echelonize", "m_basis", "s_basis", "structure_decompose",
              "verify_membership"),
    "verify": (
        "check_dimension_table", "check_cusp_codimension", "check_printed_series",
        "check_identity", "check_seed_alt_reading", "check_ladder_offsets_level7",
        "check_dim_shift", "check_ladder_dims", "check_seed_valuation_law",
        "check_delta_multiplication", "check_decompositions", "check_basis_validity",
        "check_catalog_profile", "check_generators_unitary", "check_seeds_unitary",
    ),
}

TRACED = tuple(SERIES_METHODS) + tuple(
    f"{m}.{f}" for m, fs in MODULE_FUNCTIONS.items() for f in fs)

# (name, unit, better) of every per-layer metric; all counts are computed
COUNT_METRICS = (
    ("series.mul.term_products", "count", "lower"),
    ("series.invert.terms", "count", "lower"),
    ("basis.echelonize.rows_in", "count", "lower"),
    ("basis.echelonize.pivots", "count", "lower"),
    ("basis.echelonize.pivot_ratio", "ratio", "higher"),
    ("basis.m_basis.repeat_key_ratio", "ratio", "lower"),
    ("basis.s_basis.repeat_key_ratio", "ratio", "lower"),
    ("basis.builds_per_nk", "builds/key", "lower"),
    ("basis.coeff_bits_max", "bits", "lower"),
    ("catalog.evaluate.repeat_key_ratio", "ratio", "lower"),
)


def metric_specs():
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.incl_s", "s", "lower")]
    return out + list(COUNT_METRICS) + [("trace.overhead_s", "s", "lower")]


# -- counts from arguments and return values ------------------------------------


def term_products(a, b):
    """Nonzero coefficient pairs whose exponent sum lies below the product's
    frontier: the multiplications a schoolbook product has to make."""
    if not isinstance(b, QSeries) or a.is_zero or b.is_zero:
        return 0
    ea = [e for e, _ in a.items()]
    eb = [e for e, _ in b.items()]
    fronts = [p + v for p, v in ((a.prec_exponent, eb[0]), (b.prec_exponent, ea[0]))
              if p is not None]
    if not fronts:
        return len(ea) * len(eb)
    frontier = min(fronts)
    count, j = 0, len(eb)
    for x in ea:
        while j and x + eb[j - 1] >= frontier:
            j -= 1
        count += j
    return count


def _bits(c):
    c = Fraction(c)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_task = array("q")
        self.next_id = 0
        self.stack = []          # open frames [name, id, start, child_s, hook_mark]
        self.hook_s = 0.0        # hook time so far; subtracted from open spans
        self.task = -1
        self._restore = []
        self.begin_pass()

    # -- per-pass aggregates ---------------------------------------------------

    def begin_pass(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.incl_s = dict.fromkeys(TRACED, 0.0)
        self.counts = dict.fromkeys(
            ("term_products", "invert_terms", "rows_in", "pivots", "bits_max"), 0)
        self.seen = {"m_basis": set(), "s_basis": set(), "evaluate": set(),
                     "echelonize": set()}
        self.repeats = {"m_basis": 0, "s_basis": 0, "evaluate": 0}
        self.distinct_builds = 0

    def caches_cleared(self):
        """The program's caches were emptied: from now on a request repeats
        only a key asked for since."""
        for keys in self.seen.values():
            keys.clear()

    def pass_metrics(self):
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.incl_s"] = self.incl_s[name]
        c = self.counts
        ech = self.calls["basis.echelonize"]

        def ratio(num, den):
            return num / den if den else 0.0

        out.update({
            "series.mul.term_products": c["term_products"],
            "series.invert.terms": c["invert_terms"],
            "basis.echelonize.rows_in": c["rows_in"],
            "basis.echelonize.pivots": c["pivots"],
            "basis.echelonize.pivot_ratio": ratio(c["pivots"], c["rows_in"]),
            "basis.m_basis.repeat_key_ratio":
                ratio(self.repeats["m_basis"], self.calls["basis.m_basis"]),
            "basis.s_basis.repeat_key_ratio":
                ratio(self.repeats["s_basis"], self.calls["basis.s_basis"]),
            "basis.builds_per_nk": ratio(ech, self.distinct_builds),
            "basis.coeff_bits_max": c["bits_max"],
            "catalog.evaluate.repeat_key_ratio":
                ratio(self.repeats["evaluate"], self.calls["catalog.evaluate"]),
        })
        return out

    # -- hooks -------------------------------------------------------------------

    def _repeat(self, kind, key):
        if key in self.seen[kind]:
            self.repeats[kind] += 1
        else:
            self.seen[kind].add(key)

    def _hook(self, name, args, kwargs, out):
        c = self.counts
        if name == "series.mul":
            c["term_products"] += term_products(args[0], args[1])
        elif name == "series.invert":
            a = args[0]
            prec = args[1] if len(args) > 1 else kwargs.get("prec")
            frontier = a.prec_exponent if prec is None else \
                min(p for p in (a.prec_exponent, prec) if p is not None)
            c["invert_terms"] += int(frontier * a.grid)
        elif name == "basis.echelonize":
            c["rows_in"] += len(args[0])
            c["pivots"] += len(out)
            key = (kwargs["level"], kwargs["weight"], kwargs.get("space", "full"))
            if key not in self.seen["echelonize"]:
                self.seen["echelonize"].add(key)
                self.distinct_builds += 1
            bits = [_bits(v) for e in out.elements for _, v in e.items()]
            c["bits_max"] = max([c["bits_max"]] + bits)
        elif name in ("basis.m_basis", "basis.s_basis"):
            self._repeat(name[6:], (args[0], args[1]))
        elif name == "catalog.evaluate":
            self._repeat("evaluate", (args[0], args[1]))

    HOOKED = frozenset(("series.mul", "series.invert", "basis.echelonize",
                        "basis.m_basis", "basis.s_basis", "catalog.evaluate"))

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        hooked = name in self.HOOKED
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [name, sid, perf(), 0.0, tracer.hook_s]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._close(frame, end)
            if hooked:
                h0 = perf()
                tracer._hook(name, args, kwargs, out)
                tracer.hook_s += perf() - h0
            return out

        return functools.update_wrapper(traced, fn)

    def _close(self, frame, end):
        name, sid, start, child_s, hook_mark = frame
        dur = end - start - (self.hook_s - hook_mark)
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        self.incl_s[name] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.span_id.append(sid)
        self.span_name.append(self.ids[name])
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent[1] if parent is not None else -1)
        self.span_task.append(self.task)

    def install(self):
        for name, methods in SERIES_METHODS.items():
            for meth in methods:
                orig = QSeries.__dict__[meth]
                self._restore.append((QSeries, meth, orig))
                setattr(QSeries, meth, self.wrap(name, orig))
        modules = [m for key, m in sys.modules.items()
                   if key == "cuspbase" or key.startswith("cuspbase.")]
        for mod_name, funcs in MODULE_FUNCTIONS.items():
            home = importlib.import_module(f"cuspbase.{mod_name}")
            for func in funcs:
                orig = getattr(home, func)
                wrapped = self.wrap(f"{mod_name}.{func}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write_spans(self, path):
        """Write every span as gzip'd tab-separated text, in closing order."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\ttask\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_task[i]}\n")
