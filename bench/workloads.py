"""Seeded inputs and single operations of the modsym benchmark workloads.

Each workload object is built by :func:`setup`, which imports the modsym
modules the workload uses and constructs its fields; the set-up probe of
``run.py`` times exactly that in a fresh process.  ``ops(seed)`` yields the
inputs of one run in order (their generation is untimed), ``run(x)`` performs
one operation and returns ``(correct, fingerprint)``.  The library is always
reached through module attributes (``localfield.reciprocity_sum``), so the
tracer's rebinding sees every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEEDS = {"reciprocity": 101, "relations": 701, "cli": 0}


def setup(name):
    return {"reciprocity": Reciprocity, "relations": Relations, "cli": Cli}[name]()


# ---------------------------------------------------------------------------
# reciprocity: Weil reciprocity sums over Q(t) and F7(u)(t)
# ---------------------------------------------------------------------------


def _rand_curve_fun(R, rng, deg):
    """The acceptance-1 draw: monic num/den of t-degree <= deg, with linear
    polynomial coefficients when the constants are a function field."""
    from modsym.fields import RatFunField

    K = R.below
    if isinstance(K, RatFunField):
        F = K.below
        draw = lambda: K.from_poly(
            (F.from_int(rng.randrange(F.char)), F.from_int(rng.randrange(F.char)))
        )
    else:
        draw = lambda: K.rand(rng)
    num = [draw() for _ in range(rng.randrange(1, deg + 2))]
    den = [draw() for _ in range(rng.randrange(1, deg + 2))]
    num[-1] = K.one
    den[-1] = K.one
    return R.make(tuple(num), tuple(den))


class Reciprocity:
    """One op is one ``reciprocity_sum``; correct iff the sum is zero.

    The inputs are acceptance 1's generator, so seed 101 starts with
    acceptance 1's 200 sums.  Its t-degrees run to 6 over Q(t) and F7(u)(t),
    so no pole is inseparable.  Not in BENCHMARK.json: a few dozen F7(u)
    sums of seconds each make up most of a run, and their cost varies too
    much between seeds for a steady result; run it by hand, mainly traced.
    """

    def __init__(self):
        from modsym import kahler, localfield
        from modsym.fields import FpField, QField, RatFunField

        self.kahler, self.localfield = kahler, localfield
        self.fields = [
            RatFunField(QField(), "t"),
            RatFunField(RatFunField(FpField(7), "u"), "t"),
        ]

    def ops(self, seed):
        """(R, form, f) in acceptance 1's order for its seed."""
        rng = random.Random(seed)
        count = 0
        while True:
            R = self.fields[count % 2]
            q = (count // 2) % 2
            deg = rng.randrange(1, 4) if (R.below.char == 7 and q == 1) else rng.randrange(1, 7)
            a = _rand_curve_fun(R, rng, deg)
            f = _rand_curve_fun(R, rng, deg)
            if R.is_zero(f) or R.is_zero(a):
                continue
            form = self.kahler.DifferentialForm.scalar(R, a)
            if q == 1:
                b = _rand_curve_fun(R, rng, deg)
                if R.is_zero(b):
                    continue
                form = form.wedge(self.kahler.dlog(R, b))
            yield R, form, f
            count += 1

    def run(self, x):
        R, form, f = x
        total = self.localfield.reciprocity_sum(R, form, f)
        return total.is_zero(), json.dumps(total.to_json(), sort_keys=True)

    trace_ops = 48
    run_traced = run


# ---------------------------------------------------------------------------
# relations: certified boundary data, evaluated and classed
# ---------------------------------------------------------------------------


def _rand_poly(K, draw, deg, monic=False, nonzero=False):
    coeffs = [draw() for _ in range(deg)]
    lead = K.one if monic else draw()
    while K.is_zero(lead):
        lead = draw()
    coeffs.append(lead)
    if nonzero and all(K.is_zero(c) for c in coeffs):
        coeffs[0] = K.one
    return tuple(coeffs)


def _poly_mul(K, a, b):
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return tuple(out)


def _root_value(K, poly, point):
    """poly at the root of a monic linear point; one for wider points."""
    if len(point) != 2:
        return K.one
    theta = K.neg(point[0])
    acc = K.zero
    for c in reversed(poly):
        acc = K.add(K.mul(acc, theta), c)
    return acc


class Relations:
    """One op: make_relation with each section's own required modulus, the
    evaluation map of its tags, then rat_equiv_zero and chow_class.  Correct
    iff the evaluated relation and the class are both zero.

    The data is acceptance 7's boundary generator, widened to Gm x Gm, to
    the base F7(u) and to curves over quadratic extensions L of Q and F7.
    Over F7(u) sections are linear, h is constant and coefficients are
    linear in u as in acceptance 1, which keeps every closed point at degree
    <= 4 (degree-5 points cost seconds, degree-8 ones minutes, and a single
    op would fill a run).  Ops cycle through the (base, L, tags) configs and
    through the acceptance-7 degree choices of each, so the mix of a run is
    the same for every seed and only the coefficients come from the seed.
    """

    def __init__(self):
        from modsym import chow, curve, modpairs, symcalc
        from modsym.fields import ExtField, FpField, QField, RatFunField

        self.chow, self.curve, self.modpairs, self.symcalc = chow, curve, modpairs, symcalc
        Q, F7 = QField(), FpField(7)
        F7u = RatFunField(F7, "u")
        Qa = ExtField(Q, "a", (Fraction(-2), Fraction(0), Fraction(1)))  # Q(sqrt 2)
        F49 = ExtField(F7, "a", (4, 0, 1))  # a^2 = 3, a non-square mod 7
        GA, GM = chow.GA, chow.GM
        self.configs = []
        for base, L in ((Q, Q), (Q, Qa), (F7, F7), (F7, F49), (F7u, F7u)):
            R = RatFunField(L, "t")
            small = base is F7u
            ga_degs, h_degs = ((1,), (0,)) if small else ((1, 2), (0, 1, 2))
            for tags in ((GA, GM), (GA, GA), (GM, GM)):
                slots = [ga_degs if tag == GA else (0,) for tag in tags]
                shapes = [(d1, d2, h) for h in h_degs for d1 in slots[0] for d2 in slots[1]]
                self.configs.append((R, base, tags, shapes, small))

    def boundary(self, rng, R, tags, shape, small):
        """A certified boundary datum (gs, f) for the ambient tags."""
        m = self.modpairs
        K = R.below
        if small:  # F7(u): the acceptance-1 draw
            F = K.below
            draw = lambda: K.from_poly((F.from_int(rng.randrange(7)), F.from_int(rng.randrange(7))))
        else:
            draw = lambda: K.rand(rng)
        t = R.from_poly((K.zero, K.one))
        gs = []
        for tag, deg in zip(tags, shape):
            if tag == self.chow.GA:
                gs.append(R.from_poly(_rand_poly(K, draw, deg)))
            elif not gs or gs[0] != t:
                gs.append(t)
            else:  # the second Gm slot: t + c, c != 0
                c = draw()
                while K.is_zero(c):
                    c = draw()
                gs.append(R.from_poly((c, K.one)))
        pairs = {self.chow.GA: m.pair_ga(R), self.chow.GM: m.pair_gm(R)}
        target = m.product_pair(pairs[tags[0]], pairs[tags[1]], m.SUM)
        D = m.required_modulus(R, tuple(gs), target)
        # f - 1 = P*h/d with P the finite part of D, deg d = deg(P*h) + D(inf)
        P = (K.one,)
        for point, mult in D.support.items():
            if point != self.curve.INF:
                for _ in range(mult):
                    P = _poly_mul(K, P, point)
        Ph = _poly_mul(K, P, _rand_poly(K, draw, shape[2], nonzero=True))
        finite = [p for p in D.support if p != self.curve.INF]
        while True:
            d = _rand_poly(K, draw, len(Ph) - 1 + D[self.curve.INF], monic=True)
            if not any(K.is_zero(_root_value(K, d, p)) for p in finite):
                break
        num = tuple(K.add(x, y) for x, y in zip(list(Ph) + [K.zero] * (len(d) - len(Ph)), d))
        return tuple(gs), R.make(num, d)

    def ops(self, seed):
        rng = random.Random(seed)
        i = 0
        while True:
            R, base, tags, shapes, small = self.configs[i % len(self.configs)]
            shape = shapes[(i // len(self.configs)) % len(shapes)]
            gs, f = self.boundary(rng, R, tags, shape, small)
            if R.is_one(f):
                continue
            yield R, base, tags, gs, f
            i += 1

    def run(self, x):
        R, base, tags, gs, f = x
        chow, m, s = self.chow, self.modpairs, self.symcalc
        sections = []
        for tag, g in zip(tags, gs):
            pair = m.pair_ga(R) if tag == chow.GA else m.pair_gm(R)
            D = m.required_modulus(R, (g,), pair)
            sections.append(("Ga" if tag == chow.GA else "Gm", g, D))
        rel = s.make_relation(R, base, f, sections)
        if tags == (chow.GA, chow.GM):
            value = s.eval_omega(rel.symbol_sum)
        elif tags == (chow.GA, chow.GA):
            value = s.eval_jet(rel.symbol_sum)
        else:
            value = s.eval_milnor(rel.symbol_sum)["dlog"]
        cls = chow.chow_class(chow.rat_equiv_zero(R, base, gs, f, tags))
        fingerprint = json.dumps([value.to_json(), cls.to_json()], sort_keys=True)
        return value.is_zero() and cls.is_zero(), fingerprint

    trace_ops = 30
    run_traced = run


# ---------------------------------------------------------------------------
# cli: fresh `python -m modsym.cli --json ...` processes against goldens
# ---------------------------------------------------------------------------

_F7U = {"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}]}
_F13U = {"base": "Fp", "p": 13, "steps": [{"ratfun": "u"}]}


def _rf(num, den=("1",)):
    return {"num": list(num), "den": list(den)}


def _ext(min_poly):
    return {"base": "Fp", "p": 7, "steps": [{"ratfun": "u"}, {"simple": {"var": "~t", "min_poly": min_poly}}]}


# the symbol sum printed by the README `relation` command
_MILNOR_SUM = {
    "convention": "sum",
    "terms": [
        {"coeff": 1, "ext": _F7U, "entries": [{"tag": "Gm", "value": _rf(["2"])}]},
        {"coeff": 1, "ext": _ext([_rf(["1"]), _rf([]), _rf(["1"])]),
         "entries": [{"tag": "Gm", "value": [_rf([]), _rf(["1"])]}]},
        {"coeff": -1, "ext": _F7U, "entries": [{"tag": "Gm", "value": _rf(["3"])}]},
        {"coeff": -1, "ext": _ext([_rf(["3"]), _rf(["1"]), _rf(["1"])]),
         "entries": [{"tag": "Gm", "value": [_rf([]), _rf(["1"])]}]},
    ],
}
_OMEGA_SUM = {
    "convention": "sum",
    "terms": [{"coeff": 1, "ext": _F7U, "entries": [
        {"tag": "Ga", "value": _rf(["1"])}, {"tag": "Gm", "value": _rf(["0", "1"])}]}],
}
_CYCLE = {
    "ambient": {"m1": "GaM", "m2": "GmM", "conv": "sum"},
    "terms": [
        {"ext": _F13U, "coords": [_rf(["0", "1"]), _rf(["0", "1"])], "coeff": 1},
        {"ext": _F13U, "coords": [_rf(["1"]), _rf(["2"])], "coeff": -1},
    ],
}

COMMANDS = [
    ("residue", ["residue", "--field", "F7(u)(t)", "--a", "u", "--f", "t", "--point", "t"]),
    ("reciprocity-check", ["reciprocity-check", "--field", "F7(u)(t)", "--a", "t*u", "--f", "(t-1)/(t-2)"]),
    ("conductor", ["conductor", "--tag", "Ga", "--field", "F3(t)", "--f", "1/t^3", "--point", "t"]),
    ("relation", ["relation", "--field", "F7(u)(t)", "--f", "(t^3-2*t^2+t-2)/(t^3-2*t^2-2)",
                  "--section", "Gm:t@t:1,inf:1"]),
    ("eval-milnor", ["eval", "--map", "milnor", "--field", "F7(u)", "--sum", json.dumps(_MILNOR_SUM)]),
    ("eval-omega", ["eval", "--map", "omega", "--field", "F7(u)", "--sum", json.dumps(_OMEGA_SUM)]),
    ("admissible", ["admissible", "--field", "Q(t)", "--source", "t:1,inf:1", "--g", "t", "--target", "gm"]),
    ("probe", ["probe", "(s^2,s^3)"]),
    ("chow-class", ["chow-class", "--field", "F13(u)", "--cycle", json.dumps(_CYCLE)]),
    ("higher-class", ["higher-class", "--field", "Q(u)", "--a", "5", "--b", "u"]),
    ("fixtures", ["fixtures", "--all"]),
]

GOLDEN = BENCH / "golden" / "cli.json"


def cli_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(argv):
    """Exit code and stdout bytes of one fresh CLI process."""
    proc = subprocess.run(
        [sys.executable, "-m", "modsym.cli", "--json", *argv],
        cwd=ROOT, env=cli_env(), capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout


class Cli:
    """One op is one fresh CLI process; correct iff exit code and stdout bytes
    equal the golden.  The seed picks where the round-robin over the README
    commands starts."""

    def __init__(self):
        import modsym.cli

        self.main = modsym.cli.main
        golden = json.loads(GOLDEN.read_text())
        if any(golden[name]["argv"] != argv for name, argv in COMMANDS):
            raise ValueError(f"{GOLDEN} was recorded for other commands")
        self.golden = {k: (v["exit"], v["stdout"].encode()) for k, v in golden.items()}

    def ops(self, seed):
        i = seed
        while True:
            yield COMMANDS[i % len(COMMANDS)]
            i += 1

    def run(self, x):
        name, argv = x
        code, out = run_cli(argv)
        return (code, out) == self.golden[name], out.decode()

    def run_traced(self, x):
        """The same command in this process, through ``main(argv)``."""
        name, argv = x
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.main(["--json", *argv])
        out = buf.getvalue().encode()
        return (code, out) == self.golden[name], out.decode()

    trace_ops = len(COMMANDS)
