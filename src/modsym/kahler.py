"""Absolute Kahler differentials and the first jet algebra of a tower field.

Omega^1_{K/Z} is presented on the free basis determined by the tower:
each rational-function step contributes d(var); a separable algebraic step
contributes nothing (dx is solved from the minimal polynomial); a degree-p
root adjunction x^p = y contributes dx and imposes dy = 0, eliminating one
lower basis element.  Towers where this recipe fails to produce a free
module are rejected.

``differential`` applies the quotient rule to polynomials over the field
below, and ``dlog_wedge(K, bs).scale(a)`` builds a dlog b_1 ^ ... ^ dlog b_n.

Jets (K tensor_Z K)/I_Delta^2 are stored decomposed as (omega, scalar) with
a tensor a(x)b mapping to (a db, ab); the alternative decomposition
(b da, ab) of the same tensor corresponds to (d(scalar) - omega, scalar).
"""

from functools import lru_cache

from .errors import IncompatibleTerms, NotAlgebraicStep, UnsupportedField, ZeroArgument
from .fields import (
    CACHE_SIZE,
    ExtField,
    RatFunField,
    pderiv,
    pmul,
    psub,
    ptrim,
    trace,
)


# Both per-field memos are bounded: every residue field of a closed point is
# a field of its own, so an unbounded one grows with every point seen.
@lru_cache(maxsize=CACHE_SIZE)
def basis_vars(K):
    """Ordered basis {d(v)} of Omega^1_K, named by tower variables."""
    if K.below is None:
        out = ()
    elif isinstance(K, RatFunField):
        out = basis_vars(K.below) + (K.var,)
    elif isinstance(K, ExtField) and not K.inseparable:
        out = basis_vars(K.below)
    else:  # inseparable root x^p = y: dy = 0 eliminates a variable, dx enters
        v0, _ = _elim_data(K)
        out = tuple(v for v in basis_vars(K.below) if v != v0) + (K.var,)
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _elim_data(K):
    """(v0, r) for an algebraic step: its relation sum r[v] dv = 0, scaled
    so that r[v0] = 1.  Separable m: v0 = x, from dm(x) + m'(x) dx = 0 with
    dm the coefficient-wise differential (r is empty when dm is); root
    x^p = y: dy = 0, and v0 is the last variable below that dy involves."""
    B = K.below
    if not K.inseparable:
        v0, dm = K.var, _transpose(B, [_d(B, c) for c in K.minpoly])
        if not dm:
            return v0, {}
        rel = {v0: K.make(pderiv(B, K.minpoly)), **{v: K.make(p) for v, p in dm.items()}}
    else:
        # _d keeps only nonzero coefficients
        rel = {v: K.lift(w) for v, w in _d(B, B.neg(K.minpoly[0])).items()}
        v0 = next((v for v in reversed(basis_vars(B)) if v in rel), None)
        if v0 is None:
            raise UnsupportedField("dy = 0: cannot present Omega of this tower freely")
    inv = K.inv(rel[v0])
    return v0, {v: K.mul(inv, w) for v, w in rel.items()}


def _transpose(B, dicts):
    """The differentials of a polynomial's coefficients as {v: polynomial}."""
    out = {}
    for i, dct in enumerate(dicts):
        for v, w in dct.items():
            out.setdefault(v, [B.zero] * len(dicts))[i] = w
    return {v: ptrim(B, vec) for v, vec in out.items()}


def _d(K, a):
    """d(a) as a dict basis-variable -> coefficient in K."""
    if K.below is None:
        return {}
    B = K.below
    if isinstance(K, RatFunField):
        # d(num/den) = (den dnum - num dden) / den^2, per basis variable on
        # polynomials over B, reduced once
        num, den = a

        def dpoly(poly):
            out = _transpose(B, [_d(B, c) for c in poly])
            dp = pderiv(B, poly)
            if dp:
                out[K.var] = dp
            return out

        dnum, dden = dpoly(num), dpoly(den)
        den2 = pmul(B, den, den)
        res = {}
        for v in set(dnum) | set(dden):
            P = psub(B, pmul(B, den, dnum.get(v, ())), pmul(B, num, dden.get(v, ())))
            if P:
                res[v] = K.make(P, den2)
        return res

    # algebraic step: the coefficient-wise differential plus a'(x) dx, then
    # d(v0) eliminated through the step's relation
    res = {v: K.make(p) for v, p in _transpose(B, [_d(B, c) for c in a]).items()}
    aprime = pderiv(B, a)
    if aprime:  # x is no variable below, so res has no dx yet
        res[K.var] = K.make(aprime)
    v0, r = _elim_data(K)
    if v0 in res:
        c = res.pop(v0)
        for v, w in r.items():
            if v != v0:
                res[v] = K.sub(res.get(v, K.zero), K.mul(c, w))
    return {v: w for v, w in res.items() if not K.is_zero(w)}


class DifferentialForm:
    """Element of Omega^n_{K/Z} in the canonical d(variable) wedge basis.

    coords maps tuples of basis-variable names to nonzero coefficients.  Each
    key is sorted in the order of ``basis_vars(K)``, which ends with the top
    variable of a rational-function step: over K(t), dt is the last slot of
    every key that has it.
    """

    def __init__(self, field, degree, coords=None):
        self.field = field
        self.degree = degree
        self.coords = {m: c for m, c in (coords or {}).items() if not field.is_zero(c)}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree, {})

    @classmethod
    def scalar(cls, field, a):
        return cls(field, 0, {(): a})

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialForm)
            and other.field == self.field
            and other.degree == self.degree
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.field, self.degree, tuple(sorted(self.coords.items()))))

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        K = self.field
        if other.degree != self.degree:
            raise IncompatibleTerms(
                f"forms of degrees {self.degree} and {other.degree} cannot be added"
            )
        out = dict(self.coords)
        for m, c in other.coords.items():
            out[m] = K.add(out.get(m, K.zero), c)
        return DifferentialForm(K, self.degree, out)

    def __neg__(self):
        K = self.field
        return DifferentialForm(
            K, self.degree, {m: K.neg(c) for m, c in self.coords.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        K = self.field
        return DifferentialForm(
            K, self.degree, {m: K.mul(a, c) for m, c in self.coords.items()}
        )

    def wedge(self, other):
        K = self.field
        order = {v: i for i, v in enumerate(basis_vars(K))}
        out = {}
        for m1, c1 in self.coords.items():
            for m2, c2 in other.coords.items():
                mono = m1 + m2
                if len(set(mono)) < len(mono):
                    continue
                idx = [order[v] for v in mono]
                key = tuple(v for _, v in sorted(zip(idx, mono)))
                c = K.mul(c1, c2)
                if _odd(idx):
                    c = K.neg(c)
                out[key] = K.add(out.get(key, K.zero), c)
        return DifferentialForm(K, self.degree + other.degree, out)

    def __repr__(self):
        if not self.coords:
            return "0"
        bits = []
        for m in sorted(self.coords):
            c = self.field.to_str(self.coords[m])
            mono = "^".join(f"d{v}" for v in m) if m else ""
            bits.append(f"({c})" + (f" {mono}" if mono else ""))
        return " + ".join(bits)

    def to_json(self):
        K = self.field
        return [
            {"coeff": K.elem_to_json(self.coords[m]), "basis_monomial": list(m)}
            for m in sorted(self.coords)
        ]

    @classmethod
    def from_json(cls, field, degree, data):
        coords = {}
        for item in data:
            coords[tuple(item["basis_monomial"])] = field.elem_from_json(item["coeff"])
        return cls(field, degree, coords)


def _odd(idx):
    """Whether the permutation sorting the distinct keys idx is odd."""
    return sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:]) % 2


def differential(K, a):
    """d(a) in Omega^1_{K/Z}."""
    return DifferentialForm(K, 1, {(v,): c for v, c in _d(K, a).items()})


def d_form(form):
    """Exterior derivative of a reduced form."""
    K = form.field
    out = DifferentialForm.zero(K, form.degree + 1)
    for m, c in form.coords.items():
        mono = DifferentialForm(K, form.degree, {m: K.one})
        out = out + differential(K, c).wedge(mono)
    return out


def dlog(K, b):
    if K.is_zero(b):
        raise ZeroArgument("dlog of zero")
    return differential(K, b).scale(K.inv(b))


def dlog_wedge(K, bs):
    """dlog(b1) ^ ... ^ dlog(bn)."""
    out = DifferentialForm(K, 0, {(): K.one})
    for b in bs:
        out = out.wedge(dlog(K, b))
    return out


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------


def trace_form(L, form):
    """Push a form along the top algebraic step L/K."""
    if not isinstance(L, ExtField):
        raise NotAlgebraicStep("trace of forms requires an algebraic top step")
    K = L.below
    if not L.inseparable:
        # separable: the basis is unchanged; trace coefficient-wise
        out = {}
        for m, c in form.coords.items():
            out[m] = trace(L, c)
        return DifferentialForm(K, form.degree, out)

    # purely inseparable L = K[x]/(x^p - y):
    # no dx in the monomial  -> Tr(c)·mono = 0  (the trace map L -> K is zero)
    # dx present             -> pick the x^{p-1} coefficient, dx -> dy
    p = L.char
    y = K.neg(L.minpoly[0])
    dy = differential(K, y)
    xvar = L.var
    out = DifferentialForm.zero(K, form.degree)
    for m, c in form.coords.items():
        a = c[p - 1]  # x^{p-1} component, an element of K
        if m[-1:] != (xvar,) or K.is_zero(a):
            continue
        # dx is the last slot: rest ^ dx = (-1)^len(rest) dx ^ rest
        rest = m[:-1]
        if len(rest) % 2:
            a = K.neg(a)
        rest_form = DifferentialForm(K, len(rest), {rest: K.one})
        out = out + dy.scale(a).wedge(rest_form)
    return out


class JetElement:
    """(omega, scalar) decomposition of a first-order jet."""

    def __init__(self, field, omega, scalar):
        if omega.degree != 1:
            raise IncompatibleTerms(f"jet part must be a 1-form, not a {omega.degree}-form")
        self.field = field
        self.omega = omega
        self.scalar = scalar

    def __eq__(self, other):
        return (
            isinstance(other, JetElement)
            and other.field == self.field
            and other.omega == self.omega
            and other.scalar == self.scalar
        )

    def __hash__(self):
        return hash((self.field, self.omega, self.scalar))

    def __add__(self, other):
        return JetElement(
            self.field,
            self.omega + other.omega,
            self.field.add(self.scalar, other.scalar),
        )

    def __neg__(self):
        return JetElement(self.field, -self.omega, self.field.neg(self.scalar))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, n):
        c = self.field.from_int(n)
        return JetElement(self.field, self.omega.scale(c), self.field.mul(c, self.scalar))

    def is_zero(self):
        return self.omega.is_zero() and self.field.is_zero(self.scalar)

    def __repr__(self):
        return f"({self.omega!r} ; {self.field.to_str(self.scalar)})"

    def to_json(self):
        return {
            "omega": self.omega.to_json(),
            "scalar": self.field.elem_to_json(self.scalar),
        }

    @classmethod
    def from_json(cls, field, data):
        return cls(
            field,
            DifferentialForm.from_json(field, 1, data["omega"]),
            field.elem_from_json(data["scalar"]),
        )

    @classmethod
    def zero(cls, field):
        return cls(field, DifferentialForm.zero(field, 1), field.zero)


def jet_from_tensor(K, a, b):
    """a tensor b  ->  (a db, ab)."""
    return JetElement(K, differential(K, b).scale(a), K.mul(a, b))


def jet_from_tensor_alt(K, a, b):
    """The (b da, ab) decomposition, rewritten into standard coordinates.

    (b da) in the alternative split corresponds to d(ab) - b da = a db in
    the standard one, so the two constructions agree on the nose; kept as a
    distinct route for the transfer-coincidence checks.
    """
    omega_alt = differential(K, a).scale(b)
    scalar = K.mul(a, b)
    return JetElement(K, differential(K, scalar) - omega_alt, scalar)


def trace_jet(L, jet, route="phi"):
    """Push a jet along the top algebraic step, via either decomposition.

    route="phi": componentwise (trace_form, trace).  route="phi_prime":
    convert to the alternative split, push componentwise, convert back.
    """
    if not isinstance(L, ExtField):
        raise NotAlgebraicStep("jet transfer requires an algebraic top step")
    K = L.below
    tr_scalar = trace(L, jet.scalar)
    if route == "phi":
        return JetElement(K, trace_form(L, jet.omega), tr_scalar)
    if route == "phi_prime":
        omega_alt = differential(L, jet.scalar) - jet.omega
        tr_alt = trace_form(L, omega_alt)
        return JetElement(K, differential(K, tr_scalar) - tr_alt, tr_scalar)
    raise ValueError(f"unknown route {route!r}")
