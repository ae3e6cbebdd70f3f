"""Command-line front end.

Field towers are written as a base followed by rational-function steps, e.g.
``Q(t)`` or ``F7(u)(t)``; elements use an ASCII grammar with ``+ - * / ^``
and parentheses, e.g. ``(t^2-1)/(t^2-4)``.  JSON is the canonical machine
interface; expressions are sugar.  Output is byte-identical for every
``--seed``, which steers only the randomized factor splitters.

Exit codes: 0 success, 1 input, validation or usage error (an ``InvalidInput``
error carries its library name in the JSON body), 2 mathematical precondition
failure (the JSON body carries the library error name).
"""

import argparse
import json
import sys

from . import factor as _factor
from .chow import chow_class, higher_cycle_class, zero_cycle
from .curve import INF, Divisor, valuation_at
from .errors import DegreeTooLarge, ExponentTooLarge, InvalidInput, ModsymError
from .fields import (
    MAX_DEGREE, MAX_EXPONENT, FpField, QField, RatFunField, int_from_json, make_field,
)
from .fixtures import FIXTURES, run_fixtures
from .kahler import dlog_wedge
from .localfield import (
    Laurent,
    form_conductor,
    reciprocity_sum,
    residue_pairing,
    section_conductor,
)
from .modpairs import (
    ValuationProbe,
    admissible,
    pair_box,
    pair_ga,
    pair_gm,
    pair_p1,
    probe_multiplicities,
    product_pair,
)
from .symcalc import SymbolSum, eval_jet, eval_milnor, eval_omega, make_relation


# ---------------------------------------------------------------------------
# parsing: fields, elements, divisors
# ---------------------------------------------------------------------------

def parse_field(spec):
    """Q, F<p>, optionally followed by (var) rational-function steps."""
    spec = spec.strip()
    i = spec.find("(")
    head = spec if i < 0 else spec[:i]
    if head == "Q":
        F = QField()
    elif head.startswith("F") and head[1:].isdigit():
        F = FpField(int(head[1:]))
    else:
        raise ValueError(f"unknown base field {head!r}")
    rest = "" if i < 0 else spec[i:]
    while rest:
        if not (rest.startswith("(") and ")" in rest):
            raise ValueError(f"malformed field spec {spec!r}")
        j = rest.index(")")
        var = rest[1:j].strip()
        if not var.isidentifier():
            raise ValueError(f"bad variable name {var!r}")
        F = RatFunField(F, var)
        rest = rest[j + 1 :]
    return F


def _gen_of(R, name):
    """The tower variable ``name`` as an element of R."""
    for level in R.chain():
        if level.var == name:
            if not isinstance(level, RatFunField):
                raise ValueError(f"{name!r} is not a rational-function variable")
            return R.lift_from(level, level.from_poly((level.below.zero, level.below.one)))
    raise ValueError(f"unknown variable {name!r}")


def _degree(F, a):
    """Sum over the rational-function levels of the largest numerator or
    denominator degree at that level: a bound on the total degree of ``a``."""
    if not isinstance(F, RatFunField):
        return 0
    num, den = a
    return max(len(num), len(den)) - 1 + max(_degree(F.below, c) for c in num + den)


def _check_degree(d):
    if d > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} exceeds {MAX_DEGREE}")


class _ExprParser:
    def __init__(self, R, text):
        self.R = R
        self.t = text
        self.i = 0

    def _ws(self):
        while self.i < len(self.t) and self.t[self.i].isspace():
            self.i += 1

    def peek(self):
        self._ws()
        return self.t[self.i] if self.i < len(self.t) else ""

    def parse(self):
        v = self.expr()
        self._ws()
        if self.i != len(self.t):
            raise ValueError(f"trailing input at {self.t[self.i:]!r}")
        return v

    def expr(self):
        R = self.R
        neg = False
        if self.peek() == "-":
            self.i += 1
            neg = True
        v = self.term()
        if neg:
            v = R.neg(v)
        while self.peek() and self.peek() in "+-":
            op = self.t[self.i]
            self.i += 1
            w = self.term()
            v = R.add(v, w) if op == "+" else R.sub(v, w)
        return v

    def term(self):
        R = self.R
        v = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.t[self.i]
            self.i += 1
            w = self.factor()
            _check_degree(_degree(R, v) + _degree(R, w))
            v = R.mul(v, w) if op == "*" else R.div(v, w)
        return v

    def factor(self):
        R = self.R
        v = self.atom()
        if self.peek() == "^":
            self.i += 1
            self._ws()
            j = self.i
            if self.i < len(self.t) and self.t[self.i] == "-":
                self.i += 1
            while self.i < len(self.t) and self.t[self.i].isdigit():
                self.i += 1
            if j == self.i:
                raise ValueError("missing exponent")
            n = int(self.t[j : self.i])
            if abs(n) > MAX_EXPONENT:
                raise ExponentTooLarge(f"|exponent| {abs(n)} exceeds {MAX_EXPONENT}")
            _check_degree(abs(n) * _degree(R, v))
            v = R.pow(v, n)
        return v

    def atom(self):
        R = self.R
        c = self.peek()
        if c == "(":
            self.i += 1
            v = self.expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parenthesis")
            self.i += 1
            return v
        if c.isdigit():
            j = self.i
            while self.i < len(self.t) and self.t[self.i].isdigit():
                self.i += 1
            return R.from_int(int(self.t[j : self.i]))
        if c.isalpha() or c == "_":
            j = self.i
            while self.i < len(self.t) and (
                self.t[self.i].isalnum() or self.t[self.i] == "_"
            ):
                self.i += 1
            return _gen_of(R, self.t[j : self.i])
        raise ValueError(f"unexpected character {c!r}")


def parse_elem(R, text):
    try:
        return _ExprParser(R, text).parse()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def parse_point(R, text):
    """``inf`` or a monic irreducible polynomial in the curve variable."""
    text = text.strip()
    if text == "inf":
        return INF
    v = parse_elem(R, text)
    num, den = v
    if not num:
        raise ValueError("the zero polynomial is not a point")
    if len(den) != 1:
        raise ValueError("points are polynomial, not fractional")
    K = R.below
    if not K.is_one(K.div(num[-1], den[0])):
        raise ValueError("point polynomials must be monic")
    inv = K.inv(den[0])
    point = tuple(K.mul(c, inv) for c in num)
    if len(point) != 2 and not _factor.is_irreducible(K, point):
        raise ValueError("point polynomials must be irreducible")
    return point


def parse_divisor(R, text):
    """Comma list of point:multiplicity, e.g. ``inf:2,t:1,t-2:1``."""
    support = {}
    text = text.strip()
    if not text or text == "0":
        return Divisor(R)
    for item in text.split(","):
        pt, _, mult = item.rpartition(":")
        if not pt:
            pt, mult = mult, "1"
        point = parse_point(R, pt)
        support[point] = support.get(point, 0) + int(mult)
    return Divisor(R, {p: m for p, m in support.items() if m})


def _build_form(R, a_text, dlog_texts):
    a = parse_elem(R, a_text)
    # a generator: each dlog argument is parsed just before its dlog is taken
    return dlog_wedge(R, (parse_elem(R, b) for b in dlog_texts)).scale(a)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_residue(args):
    R = parse_field(args.field)
    form = _build_form(R, args.a, args.dlog)
    f = parse_elem(R, args.f)
    point = parse_point(R, args.point)
    res = residue_pairing(R, form, f, point)
    return {"residue": res.to_json()}


def _cmd_reciprocity(args):
    R = parse_field(args.field)
    form = _build_form(R, args.a, args.dlog)
    f = parse_elem(R, args.f)
    total = reciprocity_sum(R, form, f)
    if total.degree == 0:
        K = R.below
        val = total.coords.get((), K.zero)
        return {"sum": K.to_str(val)}
    return {"sum": total.to_json(), "zero": total.is_zero()}


def _cmd_conductor(args):
    R = parse_field(args.field)
    point = parse_point(R, args.point)
    if args.tag in ("Ga", "Gm"):
        prof = section_conductor(R, args.tag, parse_elem(R, args.f), point)
    elif args.tag.startswith("Omega"):
        form = _build_form(R, args.f, args.dlog)
        if args.tag not in ("Omega", f"Omega({form.degree})"):
            raise ValueError(f"tag {args.tag!r} does not match a form of degree {form.degree}")
        prof = form_conductor(R, form, point)
    else:
        raise ValueError(f"unknown conductor tag {args.tag!r}")
    return prof.to_json()


def _cmd_relation(args):
    R = parse_field(args.field)
    if not isinstance(R, RatFunField):
        raise ValueError("the relation curve needs a function-field top step")
    base = R.below
    f = parse_elem(R, args.f)
    sections = []
    for spec in args.section:
        tag, _, rest = spec.partition(":")
        g_text, _, div_text = rest.rpartition("@")
        if not g_text:
            g_text, div_text = div_text, ""
        sections.append((tag, parse_elem(R, g_text), parse_divisor(R, div_text)))
    rel = make_relation(R, base, f, sections, convention=args.convention)
    return {"symbol_sum": rel.symbol_sum.to_json()}


def _cmd_eval(args):
    base = parse_field(args.field)
    data = json.load(sys.stdin) if args.sum == "-" else json.loads(args.sum)
    ss = SymbolSum.from_json(base, data)
    if args.map == "omega":
        out = eval_omega(ss, allow_out_of_hypothesis=args.allow_out_of_hypothesis)
        body = {"omega": out.to_json(), "zero": out.is_zero()}
    elif args.map == "jet":
        out = eval_jet(ss, allow_out_of_hypothesis=args.allow_out_of_hypothesis)
        body = {"jet": out.to_json(), "zero": out.is_zero()}
    else:
        data = eval_milnor(ss)
        body = {
            "dlog": data["dlog"].to_json(),
            "dlog_zero": data["dlog"].is_zero(),
        }
    return body


_TARGETS = {"ga": pair_ga, "gm": pair_gm, "box": pair_box}


def _parse_pair(R, text):
    text = text.strip()
    if text.startswith("prod:"):
        _, names, conv = text.split(":")
        n1, n2 = names.split(",")
        return product_pair(_TARGETS[n1](R), _TARGETS[n2](R), conv)
    if text in _TARGETS:
        return _TARGETS[text](R)
    return pair_p1(parse_divisor(R, text))


def _cmd_admissible(args):
    R = parse_field(args.field)
    source = pair_p1(parse_divisor(R, args.source))
    target = _parse_pair(R, args.target)
    gs = tuple(parse_elem(R, g) for g in args.g)
    return {"admissible": admissible(gs, source, target)}


def _cmd_probe(args):
    text = args.coords.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    t1_text, t2_text = text.split(",")
    Q = QField()
    S = RatFunField(Q, "s")
    vals = []
    for part in (t1_text, t2_text):
        v = parse_elem(S, part)
        vals.append(valuation_at(S, v, (Q.zero, Q.one)))
    probe = ValuationProbe(
        Laurent(Q, "s", vals[0], [Q.one]), Laurent(Q, "s", vals[1], [Q.one])
    )
    m = probe_multiplicities(probe)
    return {
        "vE": m["vE"],
        "vD1": m["vD1"],
        "vD2": m["vD2"],
        "max": m["vInfty_max"],
        "sum": m["vInfty_sum"],
    }


def _cmd_chow_class(args):
    base = parse_field(args.field)
    data = json.load(sys.stdin) if args.cycle == "-" else json.loads(args.cycle)
    tags = (data["ambient"]["m1"], data["ambient"]["m2"])
    terms = []
    for t in data["terms"]:
        L = make_field(t["ext"])
        c1, c2 = (L.elem_from_json(v) for v in t["coords"])
        terms.append((L, (c1, c2), int_from_json(t["coeff"])))
    z = zero_cycle(base, tags, terms, conv=data["ambient"].get("conv", "sum"))
    cl = chow_class(z, allow_out_of_hypothesis=args.allow_out_of_hypothesis)
    return {"class": cl.to_json(), "zero": cl.is_zero()}


def _cmd_higher_class(args):
    K = parse_field(args.field)
    a = parse_elem(K, args.a)
    bs = [parse_elem(K, b) for b in args.b]
    res = higher_cycle_class(
        K, a, bs, allow_out_of_hypothesis=args.allow_out_of_hypothesis
    )
    return {
        "milnor_dlog": res["milnor"]["dlog"].to_json(),
        "composite": res["composite"].to_json(),
        "bloch_esnault": res["bloch_esnault"].to_json(),
    }


def _cmd_fixtures(args):
    names = None if args.all or not args.set else args.set
    results = run_fixtures(names)
    ok = all(r["passed"] for r in results)
    return {"fixtures": results, "passed": ok}, (0 if ok else 2)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors go through the JSON contract: exit 1, not argparse's 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(
        prog="modsym",
        description="Exact symbol calculus on field towers: residues, "
        "conductors, curve relations, modulus-pair products, zero-cycle "
        "classes.",
    )
    p.add_argument("--json", action="store_true", help="compact one-line JSON output")
    p.add_argument("--seed", type=int, default=None, help="deterministic RNG seed")
    p.add_argument("--convention", choices=["sum", "max"], default="sum")
    p.add_argument(
        "--allow-out-of-hypothesis",
        action="store_true",
        help="bypass characteristic guards; output is tagged accordingly",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("residue", help="Res_x(a dlog b1 ... dlog f) at a point")
    s.add_argument("--field", required=True)
    s.add_argument("--a", required=True)
    s.add_argument("--dlog", action="append", default=[])
    s.add_argument("--f", required=True)
    s.add_argument("--point", required=True)
    s.set_defaults(handler=_cmd_residue)

    s = sub.add_parser("reciprocity-check", help="sum of residues over all points")
    s.add_argument("--field", required=True)
    s.add_argument("--a", required=True)
    s.add_argument("--dlog", action="append", default=[])
    s.add_argument("--f", required=True)
    s.set_defaults(handler=_cmd_reciprocity)

    s = sub.add_parser("conductor", help="local conductor of a section")
    s.add_argument("--tag", required=True, help="Ga | Gm | Omega(n)")
    s.add_argument("--field", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--dlog", action="append", default=[])
    s.add_argument("--point", default="t")
    s.set_defaults(handler=_cmd_conductor)

    s = sub.add_parser("relation", help="build and certify a curve relation")
    s.add_argument("--field", required=True)
    s.add_argument("--f", required=True)
    s.add_argument(
        "--section",
        action="append",
        required=True,
        help="TAG:EXPR@DIVISOR, e.g. 'Ga:3*t@inf:2'",
    )
    s.add_argument("--convention", choices=["sum", "max"], default=argparse.SUPPRESS)
    s.set_defaults(handler=_cmd_relation)

    s = sub.add_parser("eval", help="evaluate a symbol sum (JSON)")
    s.add_argument("--map", choices=["omega", "jet", "milnor"], required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--sum", default="-", help="JSON or '-' for stdin")
    s.set_defaults(handler=_cmd_eval)

    s = sub.add_parser("admissible", help="divisor inequality for a rational map")
    s.add_argument("--field", required=True)
    s.add_argument("--source", required=True, help="source divisor")
    s.add_argument("--g", action="append", required=True)
    s.add_argument("--target", required=True, help="ga|gm|box|prod:ga,gm:sum|DIVISOR")
    s.set_defaults(handler=_cmd_admissible)

    s = sub.add_parser("probe", help="blow-up multiplicities of a probe")
    s.add_argument("coords", help="e.g. '(s^2,s^3)'")
    s.set_defaults(handler=_cmd_probe)

    s = sub.add_parser("chow-class", help="class of a zero-cycle with modulus")
    s.add_argument("--field", required=True)
    s.add_argument("--cycle", default="-", help="JSON or '-' for stdin")
    s.set_defaults(handler=_cmd_chow_class)

    s = sub.add_parser("higher-class", help="evaluation of a rational point")
    s.add_argument("--field", required=True)
    s.add_argument("--a", required=True)
    s.add_argument("--b", action="append", default=[])
    s.set_defaults(handler=_cmd_higher_class)

    s = sub.add_parser("fixtures", help="run the worked-example suite")
    s.add_argument("--set", action="append", choices=sorted(FIXTURES))
    s.add_argument("--all", action="store_true")
    s.set_defaults(handler=_cmd_fixtures)

    return p


def _emit(body, compact):
    if compact:
        print(json.dumps(body, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(body, sort_keys=True, indent=2))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except ValueError as e:
        _emit({"error": "validation", "message": str(e)}, "--json" in argv)
        return 1
    if args.seed is not None:
        _factor._RNG_SEED = args.seed
    try:
        out = args.handler(args)
    except ModsymError as e:
        _emit({"error": type(e).__name__, "message": str(e)}, args.json)
        return 1 if isinstance(e, InvalidInput) else 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        _emit({"error": "validation", "message": str(e)}, args.json)
        return 1
    if isinstance(out, tuple):
        body, code = out
    else:
        body, code = out, 0
    if args.allow_out_of_hypothesis and args.command in ("eval", "chow-class", "higher-class"):
        body["outside_theorem_hypotheses"] = True
    _emit(body, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
