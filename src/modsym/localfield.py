"""Laurent-series local fields, residue symbols, and motivic conductors.

Expansions at closed points of P^1 use t = theta + s (s the uniformizer) at
finite separable points and s = 1/t at infinity; s is primed (s', s'', ...)
when the base has a variable of that name.  Conductors implement the
logarithmic pole filtration for Omega^n (with Omega^0 = Ga in
characteristic 0) and the Frobenius pole filtration for Ga in
characteristic p; a conductor is reported as a ``ConductorProfile``, an
immutable named tuple.

Residues need no expansion: at every closed point, inseparable ones
included, the traced residue is one coefficient of a remainder in K[t]
(``_dt_residue``), with the sign at infinity that makes the full
reciprocity sum vanish; they read dt off the last slot of a form's keys.
No user sets a precision: ``section_conductor`` reads an exact valuation and
expands only a Ga pole part, to precision 1; ``form_conductor`` expands
nothing, as it reads valuations in K(t) on a basis of Omega(log x)
(``_log_basis``), at every closed point.
"""

from collections import namedtuple

from .curve import INF, parameter, residue_field, valuation_at
from .errors import (
    InseparableResiduePoint,
    InsufficientPrecision,
    NoEvaluationMap,
    UnsupportedField,
    ZeroDivisionInField,
    ZeroFunction,
)
from . import factor as _factor
from .fields import pcompose, pderiv, pinv_mod, pinv_series, pmod, pmul, pmultiplicity, _upow
from .kahler import DifferentialForm, basis_vars, differential, dlog


class Laurent:
    """Truncated Laurent series over a residue field.

    ``coeffs[i]`` is the coefficient of var^(lead+i); exponents below
    ``prec`` are exact.  ``prec=None`` means the element is an exact Laurent
    polynomial.
    """

    __slots__ = ("F", "var", "lead", "coeffs", "prec")

    def __init__(self, F, var, lead, coeffs, prec=None):
        coeffs = list(coeffs)
        while coeffs and F.is_zero(coeffs[0]):
            coeffs.pop(0)
            lead += 1
        if prec is None:
            while coeffs and F.is_zero(coeffs[-1]):
                coeffs.pop()
        else:
            del coeffs[max(0, prec - lead):]
        self.F = F
        self.var = var
        self.lead = lead
        self.coeffs = tuple(coeffs)
        self.prec = prec

    @property
    def exact(self):
        return self.prec is None

    def coeff(self, e):
        if not self.exact and e >= self.prec:
            raise InsufficientPrecision(f"coefficient of {self.var}^{e} unknown")
        i = e - self.lead
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.F.zero

    def is_known_zero(self):
        return self.exact and not self.coeffs

    def valuation(self):
        if not self.coeffs:
            if self.exact:
                return None  # the zero element
            raise InsufficientPrecision("no nonzero coefficient within precision")
        return self.lead

    def _prec_min(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def __add__(self, other):
        F = self.F
        prec = self._prec_min(other)
        lo = min(self.lead, other.lead) if (self.coeffs or other.coeffs) else 0
        hi = max(self.lead + len(self.coeffs), other.lead + len(other.coeffs))
        if prec is not None:
            hi = min(hi, prec)
        out = [F.add(self.coeff(e), other.coeff(e)) for e in range(lo, hi)]
        return Laurent(F, self.var, lo, out, prec)

    def __neg__(self):
        return Laurent(
            self.F, self.var, self.lead, [self.F.neg(c) for c in self.coeffs], self.prec
        )

    def __mul__(self, other):
        F = self.F
        lead = self.lead + other.lead
        a, b = self.coeffs, other.coeffs
        if self.exact and other.exact:
            prec = None
        else:
            p1 = self.prec if self.prec is not None else 10 ** 9
            p2 = other.prec if other.prec is not None else 10 ** 9
            prec = min(self.lead + p2, other.lead + p1)
            # coefficients past the product's precision cannot reach it
            n = max(0, prec - lead)
            a, b = a[:n], b[:n]
        if not self.coeffs or not other.coeffs:
            return Laurent(F, self.var, 0, [], prec)
        return Laurent(F, self.var, lead, pmul(F, a, b), prec)

    def shift(self, k):
        return Laurent(self.F, self.var, self.lead + k, self.coeffs,
                       None if self.prec is None else self.prec + k)

    def inv(self, prec_target):
        """Inverse, exact below the absolute exponent bound prec_target."""
        F = self.F
        v = self.valuation()
        if v is None:
            raise ZeroDivisionInField("inverse of the zero series")
        u = self.coeffs
        nterms = prec_target + v
        if nterms <= 0:
            return Laurent(F, self.var, -v, [], prec_target)
        prec = None if (self.exact and len(u) == 1) else prec_target
        return Laurent(F, self.var, -v, pinv_series(F, u, nterms), prec)

    def to_json(self):
        return {
            "var": self.var,
            "lead_exp": self.lead,
            "coeffs": [self.F.elem_to_json(c) for c in self.coeffs],
            "precision": self.prec,
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, F, data):
        return cls(
            F,
            data["var"],
            int(data["lead_exp"]),
            [F.elem_from_json(c) for c in data["coeffs"]],
            None if data.get("exact") else int(data["precision"]),
        )


def expand_at(R, f, point, prec):
    """Truncated Laurent expansion of f in K(t) at a closed point of P^1."""
    K = R.below
    if point != INF and len(point) > 2 and not pderiv(K, point):
        raise InseparableResiduePoint("residue field is inseparable over the base")
    s = _parameter_name(R, R.var)
    num, den = f
    if not num:
        return Laurent(K, s, 0, [])
    if point == INF:
        Kx = K
        ln = Laurent(K, s, -(len(num) - 1), tuple(reversed(num)))
        ld = Laurent(K, s, -(len(den) - 1), tuple(reversed(den)))
    else:
        Kx = residue_field(R, point)
        if len(point) == 2:
            theta = K.neg(point[0])
            lift = lambda c: c
        else:
            theta = Kx.gen()
            lift = Kx.lift
        t = (theta, Kx.one)  # t = theta + s
        ln = Laurent(Kx, s, 0, pcompose(Kx, tuple(lift(c) for c in num), t))
        ld = Laurent(Kx, s, 0, pcompose(Kx, tuple(lift(c) for c in den), t))
    return ln * ld.inv(prec - ln.valuation())


# ---------------------------------------------------------------------------
# residues and reciprocity
# ---------------------------------------------------------------------------


def _dt_residue(K, num, den, point):
    """Tr_{K(x)/K} Res_x(num/den dt), read off one remainder in K[t].

    By the residue theorem, which holds at every closed point, inseparable
    ones included (Tate, "Residues of differentials on curves", 1968):

    * at a finite point P, with den = P^m * C and gcd(P, C) = 1, it is the
      coefficient of t^(m deg P - 1) in A = num * C^-1 mod P^m, since
      A/P^m dt has poles only at P and at infinity; C^-1 is one
      ``pinv_mod`` against P^m itself (the subresultant PRS over K(u));
    * at infinity it is -r_(d-1), where r = num mod den and d = deg den
      (den is monic).
    """
    if point == INF:
        r, top = pmod(K, num, den), len(den) - 2
        return K.neg(r[top]) if 0 <= top < len(r) else K.zero
    m, C = pmultiplicity(K, den, point)
    if not m:
        return K.zero
    Pm = _upow(K, point, m)
    A, top = pmod(K, pmul(K, num, pinv_mod(K, C, Pm)), Pm), len(Pm) - 2
    return A[top] if top < len(A) else K.zero


def residue_form(R, form, point):
    """Res_x of a form over K(t), traced down to K; only dt monomials count."""
    K = R.below
    out = DifferentialForm.zero(K, form.degree - 1)
    # dt is the last slot, as (a, f) = Res(a ^ dlog f) specializes to
    # v_x(f) * a(x) for regular a only with the parameter form trailing
    for m, (num, den) in form.coords.items():
        if m[-1:] == (R.var,):
            out = out + DifferentialForm(K, len(m) - 1, {m[:-1]: _dt_residue(K, num, den, point)})
    return out


def residue_pairing(R, a_form, f, point):
    """(a, f)_x = Res_x(a dlog f), a local symbol value in Omega^q_K."""
    if R.is_zero(f):
        raise ZeroFunction("dlog of zero in the local symbol")
    return residue_form(R, a_form.wedge(dlog(R, f)), point)


def _irregular_points(R, form):
    pts = {INF}
    for c in form.coords.values():
        for poly, _ in _factor.factor(R.below, c[1])[1]:
            pts.add(poly)
    return pts


def reciprocity_sum(R, a_form, f):
    """Sum of residue pairings over all closed points; contract: zero."""
    omega = a_form.wedge(dlog(R, f))
    K = R.below
    total = DifferentialForm.zero(K, omega.degree - 1)
    for point in _irregular_points(R, omega):
        total = total + residue_form(R, omega, point)
    return total


# ---------------------------------------------------------------------------
# conductors
# ---------------------------------------------------------------------------


class ConductorProfile(namedtuple("ConductorProfile", "tag characteristic result witness")):
    __slots__ = ()

    def to_json(self):
        return {
            "tag": self.tag,
            "characteristic": self.characteristic,
            "result": self.result,
            "witness": self.witness,
        }


def _require_resolved(lau):
    if not lau.exact and lau.prec < 1:
        raise InsufficientPrecision("pole part not fully resolved")


def conductor_gm(lau):
    """0 for units, 1 otherwise."""
    _require_resolved(lau)
    v = lau.valuation()
    if v is None:
        raise ZeroFunction("Gm sections are nonzero")
    r = 0 if v == 0 else 1
    return ConductorProfile("Gm", lau.F.char, r, {"valuation": v})


def _frob_level(F, c, e, p):
    """Minimal r >= 2 admitting a Frobenius witness for c*t^e, plus the witness."""
    r = 2
    while True:
        m = r - 1 if r % p else r
        j = 0
        ee = e
        cc = c
        while True:
            if ee >= -m:
                return r, {"j": j, "exp": ee}
            if ee % p:
                break
            root = F.pth_root(cc)
            if root is None:
                break
            ee //= p
            cc = root
            j += 1
        r += 1


def conductor_ga(lau):
    """Minimal pole level of a Ga-section of a Laurent local field."""
    _require_resolved(lau)
    F = lau.F
    p = F.char
    v = lau.valuation()
    if v is None or v >= 0:
        return ConductorProfile("Ga", p, 0, {})
    if p == 0:
        return ConductorProfile("Ga", 0, 1 - v, {"valuation": v})
    # char p: levels are monomial-wise via the Frobenius filtration
    best = 0
    witness = {}
    for i, c in enumerate(lau.coeffs):
        e = lau.lead + i
        if e >= 0:
            break
        if F.is_zero(c):
            continue
        r, w = _frob_level(F, c, e, p)
        if r > best:
            best = r
        witness[str(e)] = w
    return ConductorProfile("Ga", p, best, witness)


def section_conductor(R, tag, g, point):
    """Exact local conductor of a Ga or Gm section g of K(t) at a point.

    Gm reads the valuation of g.  Ga is 0 where g is regular; at a pole it
    expands g to precision 1, which holds the whole pole part.
    """
    if tag == "Gm":
        if R.is_zero(g):
            raise ZeroFunction("Gm sections are nonzero")
        v = valuation_at(R, g, point)
        return ConductorProfile("Gm", R.char, 0 if v == 0 else 1, {"valuation": v})
    if tag == "Ga":
        if R.is_zero(g) or valuation_at(R, g, point) >= 0:
            return ConductorProfile("Ga", R.char, 0, {})
        return conductor_ga(expand_at(R, g, point, prec=1))
    raise NoEvaluationMap(f"no conductor hook for tag {tag!r}")


def conductor_omega(local_form, n):
    """Pole level of a form with Laurent coefficients, log filtration.

    ``local_form`` maps monomial keys to Laurent coefficients; the key is a
    tuple whose entries are residue-field basis variables, with the local
    parameter's own differential written as the Laurent variable name.
    """
    r = 0
    detail = {}
    for mono, lau in local_form.items():
        _require_resolved(lau)
        v = lau.valuation()
        if v is None:
            continue
        if lau.var in mono:
            # g dpi = (g pi) dlog pi: log-regular when v(g) >= -r, r >= 1
            need = 0 if v >= 0 else -v
        else:
            need = 0 if v >= 0 else 1 - v
        detail["^".join(mono) or "1"] = {"valuation": v, "level": need}
        r = max(r, need)
    char = next(iter(local_form.values())).F.char if local_form else 0
    return ConductorProfile(f"Omega({n})", char, r, detail)


def conductor(tag, data):
    if tag == "Gm":
        return conductor_gm(data)
    if tag == "Ga":
        return conductor_ga(data)
    if tag.startswith("Omega"):
        n = int(tag[tag.index("(") + 1 : -1]) if "(" in tag else 1
        if isinstance(data, Laurent):
            return conductor_omega({(): data}, n)
        return conductor_omega(data, n)
    raise ValueError(f"unknown conductor tag {tag!r}")


def form_conductor(R, form, point):
    """Exact Omega conductor at any closed point: ``conductor_omega`` reads
    each coefficient on the log basis as the monomial of its valuation."""
    K = R.below
    s, coords = _log_basis(R, form, parameter(R, point))
    local = {m: Laurent(K, s, valuation_at(R, c, point), (K.one,)) for m, c in coords.items()}
    return conductor_omega(local, form.degree)


def hi_criterion(tag, samples):
    """True iff every sampled section has conductor at most one."""
    return all(conductor(tag, s).result <= 1 for s in samples)


# ---------------------------------------------------------------------------
# localization of global forms
# ---------------------------------------------------------------------------


def localize_form(R, form, point, prec):
    """Expand a form over K(t) at a point into Laurent-coefficient data,
    on ``_log_basis`` for pi the s of ``expand_at`` (P at a rational point,
    1/t at infinity).  At a point of degree >= 2, t = theta + s gives
    ds = dt - d(theta), so pi = t where d(theta) = 0 (dP has only dt), and
    a form with dt is refused elsewhere.
    """
    pi = parameter(R, point)
    if point != INF and len(point) > 2:
        if any(R.var in m for m in form.coords) and set(differential(R, pi).coords) != {(R.var,)}:
            raise UnsupportedField("d(theta) != 0 at the point: ds = dt - d(theta) not localized")
        pi = R.from_poly((R.below.zero, R.below.one))
    return {m: expand_at(R, c, point, prec=prec) for m, c in _log_basis(R, form, pi)[1].items()}


def _parameter_name(R, pivot):
    """s, primed past K's variables, and past t where ds does not replace dt."""
    taken = R.below.var_names() + ([] if pivot == R.var else [R.var])
    s = "s"
    while s in taken:
        s += "'"
    return s


def _log_basis(R, form, pi):
    """(s, coords): the form with d(pi), first and named s, in place of
    d(v), v the last basis variable with a nonzero coefficient c in d(pi).

    v is t unless d(pi) has no dt.  For pi = P monic irreducible, c is a
    polynomial of degree < deg P, a unit at P, and exists (P' if P is
    separable, else some du_i, as P is not in K^p[t^p]); d(pi) = P dlog P
    then gives a basis of Omega(log P).  At infinity pi = 1/t and v = t.
    """
    dpi = differential(R, pi)
    v = [w for w in basis_vars(R) if (w,) in dpi.coords][-1]
    # form = plain + c d(v) ^ eta, where c d(v) = d(pi) - others
    inv = R.inv(dpi.coords[(v,)])
    signs = (inv, R.neg(inv))  # d(v) moves to the front from slot i: (-1)^i
    eta = DifferentialForm(R, form.degree - 1, {
        tuple(w for w in m if w != v): R.mul(c, signs[m.index(v) % 2])
        for m, c in form.coords.items() if v in m})
    others = DifferentialForm(R, 1, {m: c for m, c in dpi.coords.items() if m != (v,)})
    plain = DifferentialForm(R, form.degree, {m: c for m, c in form.coords.items() if v not in m})
    s = _parameter_name(R, v)
    return s, {**{(s,) + m: c for m, c in eta.coords.items()}, **(plain - others.wedge(eta)).coords}
