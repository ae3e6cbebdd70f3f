"""Zero-cycles with modulus on products of the two standard line pairs.

The class of a cycle on a product of Ga- and Gm-pairs decomposes as degree,
two Jacobian components (additive traces resp. multiplicative norms of the
coordinates), and a pairing component living in jets, forms, or Milnor data
according to the factor tags.  The splitting uses the degree-one basepoints
0 (additive factor) and 1 (multiplicative factor); only the total class is
canonical.  Rational equivalence is generated by cycles of the shape
sum v_x(f) * (g1(x), g2(x)) for f congruent to 1 along the pulled-back
modulus; their classes vanish identically, which is the checkable contract.
Cycles (``ZeroCycleWithModulus``) and classes (``ChowClass``) are immutable
named tuples.
"""

from collections import namedtuple

from .curve import boundary_values, check_congruence
from .errors import (
    CongruenceFailure,
    IncompatibleTerms,
    PointOnDivisor,
    ZeroFirstCoordinate,
)
from .fields import field_to_descriptor, norm_to, trace_to
from .modpairs import SUM, pair_ga, pair_gm, product_pair, required_modulus
from .symcalc import (
    SymbolSum,
    SymbolTerm,
    _guard_char,
    eval_jet,
    eval_milnor,
    eval_omega,
)

GA = "GaM"
GM = "GmM"


def _check_coord(tag, L, v):
    if tag == GM and L.is_zero(v):
        raise PointOnDivisor("multiplicative coordinate meets the divisor")


class ZeroCycleWithModulus(namedtuple("ZeroCycleWithModulus", "base tags conv terms")):
    """tags is (GA|GM, GA|GM) and terms ((L, (c1, c2), coeff), ...)."""

    __slots__ = ()

    def __add__(self, other):
        if other.base != self.base or other.tags != self.tags:
            raise IncompatibleTerms("zero-cycles over different bases or ambient pairs")
        return ZeroCycleWithModulus(
            self.base, self.tags, self.conv, self.terms + other.terms
        )

    def to_json(self):
        return {
            "ambient": {"m1": self.tags[0], "m2": self.tags[1], "conv": self.conv},
            "terms": [
                {
                    "ext": field_to_descriptor(L),
                    "coords": [L.elem_to_json(c1), L.elem_to_json(c2)],
                    "coeff": n,
                }
                for L, (c1, c2), n in self.terms
            ],
        }


def zero_cycle(base, tags, terms, conv=SUM):
    for L, (c1, c2), _ in terms:
        _check_coord(tags[0], L, c1)
        _check_coord(tags[1], L, c2)
    return ZeroCycleWithModulus(base, tuple(tags), conv, tuple(terms))


class ChowClass(namedtuple("ChowClass", "tags degree j1 j2 pairing base")):
    """pairing is a JetElement or a DifferentialForm (Milnor: its dlog form)."""

    __slots__ = ()

    def is_zero(self):
        K = self.base
        zeros = {GA: K.zero, GM: K.one}
        return (
            self.degree == 0
            and self.j1 == zeros[self.tags[0]]
            and self.j2 == zeros[self.tags[1]]
            and self.pairing.is_zero()
        )

    def to_json(self):
        K = self.base
        return {
            "degree": self.degree,
            "j1": K.elem_to_json(self.j1),
            "j2": K.elem_to_json(self.j2),
            "pairing": self.pairing.to_json(),
        }


def _j_component(base, tag, pieces):
    """pieces: (L, coord, coeff); additive trace or multiplicative norm."""
    if tag == GA:
        acc = base.zero
    else:
        acc = base.one
    for L, v, c in pieces:
        if tag == GA:
            acc = base.add(acc, base.mul(base.from_int(c), trace_to(L, base, v)))
        else:
            acc = base.mul(acc, base.pow(norm_to(L, base, v), c))
    return acc


def chow_class(z, allow_out_of_hypothesis=False):
    base = z.base
    _guard_char(base, {(GA, GM): "omega", (GA, GA): "jet"}.get(z.tags), allow_out_of_hypothesis)
    degree = sum(c * L.absolute_degree_over(base) for L, _, c in z.terms)
    j1 = _j_component(base, z.tags[0], [(L, cs[0], c) for L, cs, c in z.terms])
    j2 = _j_component(base, z.tags[1], [(L, cs[1], c) for L, cs, c in z.terms])

    sym_tags = tuple("Ga" if t == GA else "Gm" for t in z.tags)
    ss = SymbolSum(
        base,
        z.conv,
        [SymbolTerm(c, L, sym_tags, tuple(cs)) for L, cs, c in z.terms],
    )
    if z.tags == (GA, GM):
        pairing = eval_omega(ss, allow_out_of_hypothesis=True)
    elif z.tags == (GA, GA):
        pairing = eval_jet(ss, allow_out_of_hypothesis=True)
    else:
        pairing = eval_milnor(ss)["dlog"]
    return ChowClass(z.tags, degree, j1, j2, pairing, base)


def rat_equiv_zero(R, base, gs, f, ambient_tags, conv=SUM):
    """The boundary cycle sum v_x(f) * (g1(x), g2(x)); its class is zero.

    The minimal valid modulus D on the parametrizing line is the pullback of
    the ambient modulus along (g1, g2); f must be congruent to 1 modulo D.
    """
    pairs = {GA: pair_ga(R), GM: pair_gm(R)}
    target = product_pair(pairs[ambient_tags[0]], pairs[ambient_tags[1]], conv)
    D = required_modulus(R, tuple(gs), target)
    if not check_congruence(R, f, D):
        raise CongruenceFailure(
            "parameter function is not congruent to 1 modulo the pulled-back modulus"
        )
    terms = []
    for _, v, Kx, coords in boundary_values(R, f, gs):
        if None in coords:
            raise PointOnDivisor("boundary point meets the ambient divisor")
        terms.append((Kx, tuple(coords), v))
    return zero_cycle(base, ambient_tags, terms, conv)


def higher_cycle_class(K, a, bs, allow_out_of_hypothesis=False):
    """Evaluation of a rational point (a, b_1, ..., b_n) with modulus 2(inf).

    Returns the Milnor data of {b_1,...,b_n} together with both form
    normalizations: (1/a) dlog b_1...dlog b_n and a dlog b_1...dlog b_n.
    """
    _guard_char(K, "omega", allow_out_of_hypothesis)
    ss = SymbolSum(K, SUM, [SymbolTerm(1, K, ("Gm",) * len(bs), tuple(bs))])
    milnor = eval_milnor(ss)
    wedge = milnor["dlog"]  # L = K: eval_milnor's dlog_wedge(K, bs), traced through nothing
    composite = wedge.scale(a)
    if K.is_zero(a):
        raise ZeroFirstCoordinate("the 1/a-normalized map needs a nonzero coordinate")
    bloch_esnault = wedge.scale(K.inv(a))
    return {
        "milnor": milnor,
        "composite": composite,
        "bloch_esnault": bloch_esnault,
    }
