"""Spans and counters around the public functions of each modsym module.

The tracer wraps functions from outside the library: it replaces each
function in its defining module and in every modsym module that imported it
by name (``from .fields import pmul`` in factor, curve, kahler and
localfield), and the element operations on the field classes.  ``remove()``
puts the originals back.

Every wrapped call adds to its name's calls, total time (outermost calls of
that name only, so recursion is not counted twice) and self time (its
duration minus that of the wrapped calls it made).  Calls at the factor
level and above are also kept as spans in memory; the fields kernels and
element operations run millions of times per run and are only counted.

``localfield.expand_at.coeffs_per_call`` divides the coefficients of the
expansions ``expand_at`` returns by the number of them that are read: while
tracing, ``Laurent.coeffs`` of a returned expansion hands out a tuple that
notes each position taken from it by index, slice or iteration, which covers
``Laurent.coeff`` as well as the loops over ``lau.coeffs`` in the conductor
and Kummer code and the series built from an expansion.  A position read
twice counts once, so the ratio is 1 when every coefficient built is used.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("fields", "factor", "curve", "kahler", "localfield", "symcalc", "modpairs", "chow", "fixtures", "cli")
KERNELS = ("pmul", "pdivmod", "pgcd", "pxgcd")
KINDS = ("fp", "q", "ratfun", "ext", "series")
LAYERS = {
    "curve": ("divisor_of", "evaluate_at", "check_congruence", "valuation_at"),
    "kahler": ("dlog", "trace_form", "trace_jet"),
    "localfield": ("reciprocity_sum", "residue_form", "expand_at"),
    "symcalc": ("make_relation", "eval_omega", "eval_jet", "eval_milnor"),
    "modpairs": ("required_modulus",),
    "chow": ("rat_equiv_zero", "chow_class"),
}
ROUTES = ("cz", "q", "qu", "fqu", "ext")


class Tracer:
    def __init__(self):
        self.mods = {m: importlib.import_module(f"modsym.{m}") for m in MODULES}
        f = self.mods["fields"]
        self.kind = {
            f.FpField: "fp", f.QField: "q", f.RatFunField: "ratfun", f.ExtField: "ext",
            self.mods["factor"]._SeriesRing: "series",  # F_q[[u]] in the Hensel route
        }
        self.stats = {}  # name -> [calls, total_s, self_s, open calls]
        self.children = []  # per open call: time spent in wrapped calls below it
        self.spans = []  # (op, id, parent id, name, start, end)
        self.open_spans = []
        self.op = 0
        self.factor_seen = set()
        self.factor_repeats = 0
        self.pmul_len = 0
        self.coeffs_built = 0
        self.coeffs_read = set()  # (op, id of the expansion, position)
        self.expansions = {}  # id -> Laurent returned by expand_at in this op
        self.undo = []

    # -- installing --------------------------------------------------------

    def install(self):
        f, mods = self.mods["fields"], self.mods
        for name in KERNELS:
            hook = self._pmul_hook if name == "pmul" else None
            self._rebind(f, name, self._wrap(getattr(f, name), f"fields.{name}", by_kind=True, hook=hook))
        self._rebind(f, "trace_norm", self._wrap(f.trace_norm, "fields.trace_norm", keep=True))
        fac = mods["factor"]
        self._rebind(fac, "factor", self._wrap(
            fac.factor, "factor", keep=True, hook=self._factor_hook, route_of=self._route))
        for mod, names in LAYERS.items():
            m = mods[mod]
            for name in names:
                after = self._expand_after if name == "expand_at" else None
                self._rebind(m, name, self._wrap(getattr(m, name), f"{mod}.{name}", keep=True, after=after))
        for cls, kind in ((f.RatFunField, "ratfun"), (f.ExtField, "ext")):
            for op in ("add", "mul", "inv"):
                self._patch(cls, op, self._wrap(getattr(cls, op), f"fields.{kind}.ops"))
        self._count_reads(mods["localfield"].Laurent)

    def remove(self):
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()

    def _rebind(self, module, name, wrapper):
        orig = getattr(module, name)
        for m in self.mods.values():
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper -------------------------------------------------------

    def _stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0]
        return st

    def _wrap(self, fn, name, by_kind=False, keep=False, hook=None, after=None, route_of=None):
        stat, children, clock = self._stat, self.children, time.perf_counter
        spans, open_spans, kind = self.spans, self.open_spans, self.kind

        def traced(*args, **kwargs):
            st = stat(f"{name}.{kind[type(args[0])]}" if by_kind else name)
            route = stat(route_of(args[0])) if route_of is not None else None
            if hook is not None:
                hook(args)
            st[0] += 1
            st[3] += 1
            if route is not None:
                route[0] += 1
                route[3] += 1
            if keep:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(sid)
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                st[2] += dt - children.pop()
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
                if children:
                    children[-1] += dt
                if route is not None:
                    route[3] -= 1
                    if not route[3]:
                        route[1] += dt
                if keep:
                    open_spans.pop()
                    spans[sid] = (self.op, sid, parent, name, t0, t1)
            if after is not None:
                after(result)
            return result

        return traced

    def _count_reads(self, laurent):
        tracer, expansions, read = self, self.expansions, self.coeffs_read
        slot = vars(laurent)["coeffs"]

        class Read(tuple):
            def __getitem__(self, i):
                got = tuple.__getitem__(self, i)
                at = range(len(self))[i]  # negative indices and slices as positions
                if isinstance(i, slice):
                    read.update((self.key, j) for j in at)
                else:
                    read.add((self.key, at))
                return got

            def __iter__(self):
                for j, c in enumerate(tuple.__iter__(self)):
                    read.add((self.key, j))
                    yield c

        def get(lau):
            coeffs = slot.__get__(lau)
            if expansions.get(id(lau)) is not lau:
                return coeffs
            coeffs = Read(coeffs)
            coeffs.key = (tracer.op, id(lau))
            return coeffs

        self._patch(laurent, "coeffs", property(get, slot.__set__))

    def _route(self, field):
        f = self.mods["fields"]
        if field.size() is not None:
            route = "cz"
        elif isinstance(field, f.QField):
            route = "q"
        elif isinstance(field, f.RatFunField):
            route = "qu" if isinstance(field.below, f.QField) else "fqu"
        else:
            route = "ext"
        return f"factor.route.{route}"

    def _pmul_hook(self, args):
        self.pmul_len += len(args[1]) + len(args[2])

    def _factor_hook(self, args):
        key = (args[0], tuple(args[1]))
        if key in self.factor_seen:
            self.factor_repeats += 1
        else:
            self.factor_seen.add(key)

    def _expand_after(self, lau):
        self.coeffs_built += len(lau.coeffs)
        self.expansions[id(lau)] = lau  # kept alive, so the id stays its own

    def begin_op(self, i):
        """Start op ``i``: factor repeats are counted within one op."""
        self.op = i
        self.factor_seen.clear()
        self.expansions.clear()

    # -- results -----------------------------------------------------------

    def _get(self, key, field):
        st = self.stats.get(key)
        return st[field] if st else 0

    def _sum(self, prefix, field):
        return sum(st[field] for k, st in self.stats.items() if k == prefix or k.startswith(prefix + "."))

    def metrics(self):
        """Per-layer numbers as {name: (value, unit)}."""
        CALLS, TOTAL, SELF = 0, 1, 2
        m = {}
        for name in KERNELS:
            m[f"fields.{name}.calls"] = (self._sum(f"fields.{name}", CALLS), "count")
            m[f"fields.{name}.self_s"] = (self._sum(f"fields.{name}", SELF), "s")
        for kind in KINDS:
            m[f"fields.poly.{kind}.self_s"] = (
                sum(self._get(f"fields.{n}.{kind}", SELF) for n in KERNELS), "s")
        for kind in ("ratfun", "ext"):
            m[f"fields.{kind}.ops.calls"] = (self._get(f"fields.{kind}.ops", CALLS), "count")
            m[f"fields.{kind}.ops.self_s"] = (self._get(f"fields.{kind}.ops", SELF), "s")
        m["fields.trace_norm.calls"] = (self._get("fields.trace_norm", CALLS), "count")
        m["fields.trace_norm.total_s"] = (self._get("fields.trace_norm", TOTAL), "s")
        pmul_calls = m["fields.pmul.calls"][0]
        m["fields.pmul.mean_len"] = (self.pmul_len / (2 * pmul_calls) if pmul_calls else 0.0, "coeffs")

        calls = self._get("factor", CALLS)
        m["factor.calls"] = (calls, "count")
        m["factor.total_s"] = (self._get("factor", TOTAL), "s")
        m["factor.self_s"] = (self._get("factor", SELF), "s")
        for route in ROUTES:
            m[f"factor.route.{route}.calls"] = (self._get(f"factor.route.{route}", CALLS), "count")
            m[f"factor.route.{route}.total_s"] = (self._get(f"factor.route.{route}", TOTAL), "s")
        m["factor.repeat_ratio"] = (self.factor_repeats / calls if calls else 0.0, "ratio")

        for mod, names in LAYERS.items():
            for name in names:
                m[f"{mod}.{name}.calls"] = (self._get(f"{mod}.{name}", CALLS), "count")
                m[f"{mod}.{name}.total_s"] = (self._get(f"{mod}.{name}", TOTAL), "s")
            m[f"{mod}.self_s"] = (sum(self._get(f"{mod}.{n}", SELF) for n in names), "s")
        # with nothing read, the ratio is the number of coefficients built
        m["localfield.expand_at.coeffs_per_call"] = (
            self.coeffs_built / max(len(self.coeffs_read), 1), "ratio")
        return m

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")
