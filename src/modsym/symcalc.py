"""Symbol groups on field towers: generators, relations, evaluation maps.

A symbol [a_1,...,a_n]_{L/K} carries per-slot sheaf tags (Z, Ga, Gm,
Omega(n), KM(n)).  Two relation families are implemented:

* projection-formula rewriting (all slots but one defined below L: push the
  remaining slot down by its tag's transfer), and
* curve relations: for f = 1 mod D on the projective line, the weighted sum
  of evaluations of the slot sections at the zeros and poles of f.

The quotient group has no canonical form; equality is certified through the
evaluation homomorphisms onto differential forms, jets, and Milnor data,
which are faithful in the characteristics where the corresponding
isomorphism theorems hold: ``HYPOTHESES`` lists the characteristics each
evaluation is guarded against.  Terms, certified relations and
subadditivity reports are immutable named tuples.
"""

from collections import namedtuple

from .curve import (
    INF,
    Divisor,
    boundary_values,
    check_congruence,
    combine_divisors,
    divisor_of,
    evaluate_at,
    parameter,
    residue_field,
    valuation_at,
)
from .errors import (
    CharacteristicUnsupported,
    CongruenceFailure,
    ConductorCertificateFailure,
    IncompatibleTerms,
    NoEvaluationMap,
    UnsupportedField,
    ZeroArgument,
)
from .fields import ExtField, field_to_descriptor, int_from_json, make_field, trace, trace_norm
from .kahler import (
    DifferentialForm,
    JetElement,
    d_form,
    dlog_wedge,
    jet_from_tensor,
    trace_form,
    trace_jet,
)
from .localfield import Laurent, conductor_omega, localize_form, section_conductor
from .modpairs import MAX, SUM


def _check_section(tag, field, value):
    if tag == "Gm" and field.is_zero(value):
        raise ZeroArgument("Gm sections are nonzero")


class SymbolTerm(namedtuple("SymbolTerm", "coeff field tags values")):
    """coeff * [values]_{field/K}; field is the tower L the entries live in."""

    __slots__ = ()

    def key(self):
        return (self.field, self.tags, self.values)


class SymbolSum:
    """Z-linear combination of symbols over extensions of a common base."""

    def __init__(self, base, convention=SUM, terms=()):
        self.base = base
        self.convention = convention
        merged = {}  # insertion order: the first occurrence of each key
        for t in terms:
            if t.coeff == 0:
                continue
            k = t.key()
            if k in merged:
                merged[k] = merged[k]._replace(coeff=merged[k].coeff + t.coeff)
            else:
                merged[k] = t
        self.terms = tuple(t for t in merged.values() if t.coeff != 0)

    def __add__(self, other):
        if other.base != self.base or other.convention != self.convention:
            raise IncompatibleTerms("symbol sums over different bases or conventions")
        return SymbolSum(self.base, self.convention, self.terms + other.terms)

    def __neg__(self):
        return SymbolSum(
            self.base,
            self.convention,
            tuple(t._replace(coeff=-t.coeff) for t in self.terms),
        )

    def __sub__(self, other):
        return self + (-other)

    def is_empty(self):
        return not self.terms

    def to_json(self):
        out = []
        for t in self.terms:
            out.append(
                {
                    "coeff": t.coeff,
                    "ext": field_to_descriptor(t.field),
                    "entries": [
                        {"tag": tag, "value": _value_to_json(t.field, tag, v)}
                        for tag, v in zip(t.tags, t.values)
                    ],
                }
            )
        return {"convention": self.convention, "terms": out}

    @classmethod
    def from_json(cls, base, data):
        terms = []
        for t in data["terms"]:
            L = make_field(t["ext"])
            tags = tuple(e["tag"] for e in t["entries"])
            values = tuple(
                _value_from_json(L, e["tag"], e["value"]) for e in t["entries"]
            )
            terms.append(SymbolTerm(int_from_json(t["coeff"]), L, tags, values))
        return cls(base, data.get("convention", SUM), terms)


def _value_to_json(L, tag, v):
    if tag == "Z":
        return int(v)
    return L.elem_to_json(v)


def _value_from_json(L, tag, v):
    if tag == "Z":
        return int_from_json(v)
    return L.elem_from_json(v)


def _term(coeff, field, tags, values):
    for tag, v in zip(tags, values):
        _check_section(tag, field, v)
    return SymbolTerm(coeff, field, tuple(tags), tuple(values))


def symbol(base, coeff, field, tags, values, convention=SUM):
    return SymbolSum(base, convention, [_term(coeff, field, tags, values)])


# ---------------------------------------------------------------------------
# (R1): projection-formula rewriting
# ---------------------------------------------------------------------------


def _push_value(L, tag, v):
    """Transfer a single slot down the top step of L."""
    if tag == "Ga":
        return trace(L, v)
    if tag == "Gm":
        return trace_norm(L, v)[1]
    raise NoEvaluationMap(f"no transfer implemented for tag {tag!r}")


def _try_push(term, base):
    L = term.field
    if L == base or not isinstance(L, ExtField):
        return None
    B = L.below
    values = []
    stranger = None
    for i, (tag, v) in enumerate(zip(term.tags, term.values)):
        if tag == "Z":
            values.append(v)
            continue
        below = L.in_below_image(v)
        if below is None:
            if stranger is not None:
                return None  # two slots genuinely upstairs: (R1) does not apply
            stranger = i
        values.append(below)
    if stranger is None:
        stranger = next((i for i, t in enumerate(term.tags) if t != "Z"), None)
        if stranger is None:
            # all slots are Z: push through the degree
            return SymbolTerm(term.coeff * L.deg, B, term.tags, term.values)
    values[stranger] = _push_value(L, term.tags[stranger], term.values[stranger])
    if term.tags[stranger] == "Gm" and B.is_zero(values[stranger]):
        return None
    return SymbolTerm(term.coeff, B, term.tags, tuple(values))


def _push_down(term, base):
    """Apply the projection formula one step at a time while it applies."""
    while (pushed := _try_push(term, base)) is not None:
        term = pushed
    return term


def r1_reduce(s):
    """Greedy projection-formula rewriting toward the base; idempotent."""
    return SymbolSum(s.base, s.convention, [_push_down(t, s.base) for t in s.terms])


# ---------------------------------------------------------------------------
# (R2): curve relations
# ---------------------------------------------------------------------------


# R = RatFunField(L, t) is the curve P^1_L, base the symbol base K and
# sections ((tag, g, D), ...)
RelationInstance = namedtuple("RelationInstance", "R base f sections convention symbol_sum")


def _certify_section(R, tag, g, D):
    """c_x(g) <= D(x) at the points of D and wherever c_x(g) can be positive:
    the zeros and poles of a Gm section, the zeros of a Ga section's
    denominator and inf."""
    if tag == "Z" or (tag == "Ga" and R.is_zero(g)):
        return
    if tag not in ("Ga", "Gm"):
        raise NoEvaluationMap(f"unsupported section tag {tag!r}")
    pts = set(divisor_of(R, g if tag == "Gm" else (R.one[0], g[1])).support) | set(D.support)
    for x in Divisor(R, dict.fromkeys(pts | ({INF} if tag == "Ga" else set()), 1)).points():
        c = section_conductor(R, tag, g, x).result
        if c > D[x]:
            raise ConductorCertificateFailure(
                f"{tag} conductor {c} exceeds declared level {D[x]} at {x!r}"
            )


def _integer_section(R, g):
    """The integer n of a Z section g = n, a constant of R."""
    F, n = R, g
    while F.below is not None and n is not None:
        F, n = F.below, F.in_below_image(n)
    if n is None or n != int(n):
        raise ValueError("a Z section must be an integer constant")
    return int(n)


def make_relation(R, base, f, sections, convention=SUM):
    """Build the weighted evaluation sum of a curve relation, fully certified.

    ``R`` is RatFunField(L, t) for a finite extension L of ``base``;
    ``sections`` is a list of (tag, g, D) with g in R and D an effective
    divisor bounding g's local conductors; a Z section is an integer
    constant.
    """
    ints = [_integer_section(R, g) if tag == "Z" else None for tag, g, _ in sections]
    divisors = [D for _, _, D in sections]
    D_total = combine_divisors(divisors, convention)
    if not check_congruence(R, f, D_total):
        raise CongruenceFailure("f is not congruent to 1 modulo the combined divisor")
    for tag, g, D in sections:
        _certify_section(R, tag, g, D)

    tags = tuple(tag for tag, _, _ in sections)
    terms = []
    for x, v, Kx, values in boundary_values(R, f, [g for _, g, _ in sections]):
        # check_congruence above gave v_x(f - 1) >= D_total(x) >= 1 on the
        # support of D_total, so f(x) = 1 there and v_x(f) = 0: a zero or pole
        # of f never meets the modulus, and this assert cannot fail.
        assert D_total[x] == 0, "zeros/poles of f must avoid the modulus"
        if None in values:
            raise ConductorCertificateFailure(
                f"section has a pole at an evaluation point {x!r}"
            )
        values = [g if n is None else n for g, n in zip(values, ints)]
        terms.append(_term(v, Kx, tags, values))
    ss = SymbolSum(base, convention, terms)
    return RelationInstance(R, base, f, tuple(sections), convention, ss)


# ---------------------------------------------------------------------------
# evaluation homomorphisms
# ---------------------------------------------------------------------------


# The characteristics outside the isomorphism theorem behind each evaluation.
HYPOTHESES = {"omega": (2, 3, 5), "jet": (2,)}


def _guard_char(base, evaluation, allow_out_of_hypothesis):
    forbidden = HYPOTHESES.get(evaluation, ())
    if base.char in forbidden and not allow_out_of_hypothesis:
        raise CharacteristicUnsupported(
            f"characteristic {base.char} outside theorem hypotheses {sorted(forbidden)}"
        )


def _trace_chain(L, base):
    chain = []
    f = L
    while f != base:
        if not isinstance(f, ExtField):
            raise UnsupportedField("term field is not a tower of algebraic steps")
        chain.append(f)
        f = f.below
    return chain


def _push_form(form, base, coeff):
    """coeff * Tr(form), traced from the form's field down to base."""
    for step in _trace_chain(form.field, base):
        form = trace_form(step, form)
    return form.scale(base.from_int(coeff))


def eval_omega(s, allow_out_of_hypothesis=False):
    """[a, b_1,...,b_n] -> Tr(a dlog b_1 ^ ... ^ dlog b_n) in Omega^n."""
    _guard_char(s.base, "omega", allow_out_of_hypothesis)
    total = None
    for term in s.terms:
        if not (term.tags and term.tags[0] == "Ga" and all(t == "Gm" for t in term.tags[1:])):
            raise NoEvaluationMap("omega evaluation needs tags (Ga, Gm, ..., Gm)")
        form = dlog_wedge(term.field, term.values[1:]).scale(term.values[0])
        form = _push_form(form, s.base, term.coeff)
        total = form if total is None else total + form  # IncompatibleTerms on mixed arity
    if total is None:
        return DifferentialForm.zero(s.base, 0)
    return total


def eval_jet(s, allow_out_of_hypothesis=False):
    """[a, b] with tags (Ga, Ga) -> transferred jet of a tensor b."""
    _guard_char(s.base, "jet", allow_out_of_hypothesis)
    total = JetElement.zero(s.base)
    for term in s.terms:
        if term.tags != ("Ga", "Ga"):
            raise NoEvaluationMap("jet evaluation needs tags (Ga, Ga)")
        L = term.field
        jet = jet_from_tensor(L, term.values[0], term.values[1])
        for step in _trace_chain(L, s.base):
            jet = trace_jet(step, jet)
        total = total + jet.scale(term.coeff)
    return total


def jet_section(base, a, b):
    """The section a tensor b -> [a, b]_K of the jet evaluation."""
    return symbol(base, 1, base, ("Ga", "Ga"), (a, b))


def omega_section(base, a, bs):
    """a dlog b_1...dlog b_n -> [a, b_1, ..., b_n]_K."""
    return symbol(base, 1, base, ("Ga",) + ("Gm",) * len(bs), (a,) + tuple(bs))


# -- Milnor data ------------------------------------------------------------


def _tame_expand(K, pi_point, entries):
    """Multilinear expansion into (coeff, [('pi',) | ('u', unit)]) pieces."""
    pieces = [(1, [])]
    pi = parameter(K, pi_point)
    for b in entries:
        e = valuation_at(K, b, pi_point)
        unit = K.div(b, K.pow(pi, e))
        new = []
        for coeff, slots in pieces:
            if e != 0:
                new.append((coeff * e, slots + [("pi",)]))
            if not K.is_one(unit):
                new.append((coeff, slots + [("u", unit)]))
        pieces = new
    return pieces


def _tame_normalize(K, pieces):
    """Reduce multiple uniformizer slots via {pi, pi} = {-1, pi}."""
    out = []
    work = list(pieces)
    minus1 = K.from_int(-1)
    while work:
        coeff, slots = work.pop()
        pis = [i for i, s in enumerate(slots) if s[0] == "pi"]
        if len(pis) <= 1:
            out.append((coeff, slots))
            continue
        i, j = pis[0], pis[1]
        # move the second uniformizer next to the first: sign per transposition
        sign = -1 if (j - i - 1) % 2 else 1
        slots2 = list(slots)
        del slots2[j]
        slots2.insert(i + 1, ("u", minus1))
        work.append((coeff * sign, slots2))
    return out


def _tame_residue(R, pieces, pi_point):
    """Drop the uniformizer slot and reduce units to the residue field: each
    unit has valuation 0 (``_tame_expand`` divides by pi^v), so a residue."""
    out = []
    for coeff, slots in pieces:
        pis = [i for i, s in enumerate(slots) if s[0] == "pi"]
        if not pis:
            continue
        sign = -1 if pis[0] % 2 else 1
        resd = [evaluate_at(R, s[1], pi_point) for s in slots if s[0] == "u"]
        out.append((coeff * sign, resd))
    return out


def tame_symbol(R, entries, point):
    """Iterated tame symbol at a valuation of R = K0(u)-style fields.

    Returns canonical data: for one remaining slot, the product in the
    residue field; for none, the integer; otherwise the formal list (zero in
    Milnor K-theory of a finite residue field in degrees >= 2).
    """
    Kx = residue_field(R, point)
    pieces = _tame_residue(R, _tame_normalize(R, _tame_expand(R, point, entries)), point)
    arity = len(entries) - 1
    if arity == 0:
        return {"degree": 0, "value": sum(c for c, _ in pieces)}
    if arity == 1:
        acc = Kx.one
        for c, resd in pieces:
            acc = Kx.mul(acc, Kx.pow(resd[0], c))
        return {"degree": 1, "value": acc, "field": Kx}
    finite = Kx.size() is not None
    return {
        "degree": arity,
        "value": 0 if finite else [(c, resd) for c, resd in pieces],
        "residue_field_finite": finite,
    }


def eval_milnor(s, valuation_point=None):
    """Milnor data of an all-Gm symbol sum: norm pushes, dlog image, tame data."""
    norm_pushed = []
    dlog_total = None
    tame_data = []
    for term in s.terms:
        if not all(t == "Gm" for t in term.tags):
            raise NoEvaluationMap("Milnor evaluation needs all-Gm tags")
        L = term.field
        # dlog image: eval_omega with a = 1
        form = _push_form(dlog_wedge(L, term.values), s.base, term.coeff)
        dlog_total = form if dlog_total is None else dlog_total + form
        # norm push: the projection formula, when it reaches the base
        pushed = _push_down(term, s.base)
        if pushed.field == s.base:
            norm_pushed.append((pushed.coeff, list(pushed.values)))
        else:
            norm_pushed.append((term.coeff, None))
        if valuation_point is not None and L == s.base:
            t = tame_symbol(L, list(term.values), valuation_point)
            tame_data.append((term.coeff, t))
    if dlog_total is None:
        dlog_total = DifferentialForm.zero(s.base, max((len(t.values) for t in s.terms), default=1))
    return {"norm_pushed": norm_pushed, "dlog": dlog_total, "tame": tame_data}


# ---------------------------------------------------------------------------
# twists and conductor bounds
# ---------------------------------------------------------------------------


def twist_chain(K, a, n):
    """Iterate d through Ga<n> = Omega^n; vanishes for n >= 2 (d d = 0)."""
    form = DifferentialForm.scalar(K, a)
    for _ in range(n):
        form = d_form(form)
    return form


SubadditivityReport = namedtuple("SubadditivityReport", "slot_conductors bound evaluated_conductor holds")


def _ceil_div(a, b):
    return -((-a) // b)


def conductor_subadditivity_check(R, entries, point, convention=SUM, ram_e=1):
    """Check c(eval(term)) <= bound on a valuation probe of the t-line.

    ``entries`` are (tag, g) with g in R = K(t); the bound is the sum or max
    of the slot conductors at the point, with a ceiling division by the
    ramification index for pushed terms.
    """
    tags = tuple(tag for tag, _ in entries)
    if not (tags and tags[0] == "Ga" and all(t == "Gm" for t in tags[1:])):
        raise NoEvaluationMap("subadditivity check needs tags (Ga, Gm, ..., Gm)")
    cs = [section_conductor(R, tag, g, point).result for tag, g in entries]
    raw = sum(cs) if convention == SUM else max(cs)
    bound = _ceil_div(raw, ram_e)

    a = entries[0][1]
    form = dlog_wedge(R, [g for _, g in entries[1:]]).scale(a)
    # a pushed level reads only exponents below e - 1 (with ds) or 0 (without)
    local = kummer_push_local(localize_form(R, form, point, prec=max(ram_e - 1, 1)), ram_e)
    n = len(entries) - 1
    c_eval = conductor_omega(local, n).result
    return SubadditivityReport(cs, bound, c_eval, c_eval <= bound)


def kummer_push_local(local, e):
    """Trace of localized form data along s = s'^e (tame Kummer extension).

    Monomial rules for coefficients c*s'^j: with ds' present the term is
    c s'^{j+1} dlog s', surviving iff e | j+1 as c s^{(j+1)/e - 1} ds; without
    ds' it survives iff e | j as e*c s^{j/e}.
    """
    out = {}
    for mono, lau in local.items():
        F = lau.F
        if not lau.exact:
            prec2 = _ceil_div(lau.prec, e)
        else:
            prec2 = None
        coeffs = {}
        has_ds = lau.var in mono
        for i, c in enumerate(lau.coeffs):
            j = lau.lead + i
            if F.is_zero(c):
                continue
            if has_ds:
                if (j + 1) % e == 0:
                    coeffs[(j + 1) // e - 1] = c
            else:
                if j % e == 0:
                    coeffs[j // e] = F.mul(F.from_int(e), c)
        if not coeffs:
            continue
        lo = min(coeffs)
        hi = max(coeffs)
        arr = [coeffs.get(k, F.zero) for k in range(lo, hi + 1)]
        out[mono] = Laurent(F, lau.var, lo, arr, prec2)
    return out
