"""Univariate factorization over the supported field towers.

Routes:

* finite fields (any finite tower)      -- Cantor-Zassenhaus: distinct-degree
                                           pieces on the Frobenius rows
                                           x^(iq) mod f (``_ddf``), split
                                           by equal-degree factorization;
                                           over F_q with Zech tables the
                                           kernels run on logs
* Q                                     -- Zassenhaus: Cantor-Zassenhaus mod a
                                           small prime p, p-adic Hensel lifting
                                           past the Mignotte bound, subset
                                           recombination
* Q(u) and F_q(u)                       -- evaluation at u = c + Hensel lifting
                                           in F[[u - c]] + subset recombination
                                           (F_q(u) moves to F_{q^k} when no
                                           point of F_q is good)
* separable K[x]/(m) over the above     -- norm-based reduction (Trager):
                                           the squarefree norm
                                           Res_x(m, f(t + s*x)), one
                                           subresultant PRS over K[t], is
                                           factored over K, and f is kept
                                           whole when that norm is irreducible
* Q(α) = Q[x]/(m)                       -- first, Musser's degree sets: at
                                           each unramified prime (p, α - r)
                                           of degree 1, p prime in
                                           ``_DEGREE_SET_PRIMES`` (small, so
                                           x^p is cheap), where the image of
                                           f in F_p is squarefree, the subset
                                           sums of its ``_ddf`` pattern hold
                                           the degree of every factor, as a
                                           factorization would reduce; f is
                                           kept whole once the intersection
                                           is {0, deg f}; else Trager as
                                           above

The degree sets sit in ``factor_squarefree``, so ``_ext_factor`` called
directly runs Trager alone, the oracle of the tests.

Every factor found by recombination is certified by exact division (von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 15-16).

Multiplicity bookkeeping is characteristic-aware: p-th-power parts are peeled
off via f(t) = g(t^p) and coefficientwise p-th roots.  Anything outside the
table above raises UnsupportedField.

:func:`factor` is memoized: it keeps the ``fields.CACHE_SIZE`` most recently
used results, keyed by the field and the trimmed coefficient tuple (fields
hash and compare structurally, elements are canonical normal forms).  The
result is canonical -- monic irreducible factors sorted by ``_sort_key`` --
so it does not depend on ``_RNG_SEED``, and the seed is not part of the key.
Cached values are immutable; every call gets a fresh list.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product, zip_longest
from math import gcd, isqrt

from .errors import UnsupportedField, ZeroFunction
from .fields import (
    CACHE_SIZE,
    ExtField,
    Field,
    FpField,
    QField,
    RatFunField,
    padd,
    pcompose,
    pconst,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pinv_mod,
    pinv_series,
    pmod,
    pmonic,
    pmul,
    pmultiplicity,
    pneg,
    ppow_mod,
    ppth_root,
    psub,
    ptrim,
    _clear_ratfun,
    _exact_quo,
    _fp_images,
    _int_conv,
    _is_prime,
    _pgcd_fp,
    _primitive,
    _subresultant,
)

_RNG_SEED = 20260824

# The image primes of the degree sets over Q(α) (``_image_points`` skips
# the numbers that are not prime).
_DEGREE_SET_PRIMES = range(131, 512)


def elems(field):
    """Iterate over all elements of a finite field."""
    if isinstance(field, FpField):
        yield from range(field.p)
    elif isinstance(field, ExtField):
        yield from product(list(elems(field.below)), repeat=field.deg)
    else:
        raise UnsupportedField("cannot enumerate an infinite field")


# ---------------------------------------------------------------------------
# Cantor-Zassenhaus over finite fields
# ---------------------------------------------------------------------------


def _edf(field, f, d, rng):
    """Split a product of degree-d irreducibles (equal-degree factorization)."""
    n = len(f) - 1
    if n == d:
        return [f]
    q = field.size()
    x_deg = n
    while True:
        a = ptrim(field, [field.rand(rng) for _ in range(x_deg)])
        if len(a) < 2:
            continue
        if q % 2:
            b = ppow_mod(field, a, (q ** d - 1) // 2, f)
            g = pgcd(field, psub(field, b, (field.one,)), f)
        else:
            # char 2: additive trace map splits where the power map cannot
            m = q.bit_length() - 1
            tr = a
            sq = a
            for _ in range(d * m - 1):
                sq = pmod(field, pmul(field, sq, sq), f)
                tr = padd(field, tr, sq)
            g = pgcd(field, tr, f)
        if 1 < len(g) < len(f):
            return _edf(field, g, d, rng) + _edf(field, _exact_quo(field, f, g), d, rng)


def _ddf(field, f):
    """Distinct-degree factorization of a monic f over a finite field F_q.

    Yields ``(g, d)`` for increasing d, g the product of the distinct monic
    irreducible factors of degree d of f, from ``gcd(x^(q^d) - x, f)``, and
    last what is left of f once its degree is below 2d.  For squarefree f
    the pieces multiply to f.  The first piece is right for any f, as no
    smaller degree has a factor.  After ``x^q``, each Frobenius step is
    linear over F_q, ``h(x)^q = h(x^q)``, on the rows ``x^(iq) mod f``,
    built when first needed (Ben-Or 1981; von zur Gathen & Shoup, Comput.
    Complexity 2, 1992).
    """
    x = (field.zero, field.one)
    rows = None
    d = 1
    while len(f) - 1 >= 2 * d:
        if d == 1:
            h = ppow_mod(field, x, field.size(), f)
        else:
            if rows is None:
                rows = [(field.one,), h]
                while len(rows) < len(f) - 1:
                    rows.append(pmod(field, pmul(field, rows[-1], h), f))
            acc = [field.zero] * len(rows)
            for c, row in zip(h, rows):
                for i, y in enumerate(row):
                    acc[i] = field.add(acc[i], field.mul(c, y))
            h = pmod(field, acc, f)
        g = pgcd(field, psub(field, h, x), f)
        if len(g) > 1:
            yield g, d
            f = _exact_quo(field, f, g)
            h = pmod(field, h, f)
        d += 1
    if len(f) > 1:
        yield f, len(f) - 1


def _cz_factor(field, f):
    """Irreducible factors of a monic squarefree f over a finite field."""
    rng = random.Random(_RNG_SEED)
    return [e for g, d in _ddf(field, f) for e in _edf(field, g, d, rng)]


def _fp_irreducible(F, f):
    """Whether the monic ``f`` of degree n >= 2 over F_p is irreducible:
    the first distinct-degree piece is f itself (Ben-Or's test)."""
    return next(_ddf(F, f))[1] == len(f) - 1


# ---------------------------------------------------------------------------
# Hensel lifting, one digit at a time
# ---------------------------------------------------------------------------


class _SeriesRing(Field):
    """Truncated power series F[[w]]/(w^B).

    A ring, not a field; inv works on units only, which is all the Hensel
    steps need (divisions are by monic polynomials).
    """

    def __init__(self, F, B):
        self.F = F
        self.B = B
        self.char = F.char
        self.zero = ()
        self.one = (F.one,)

    def _cut(self, a):
        return ptrim(self.F, a[: self.B])

    def add(self, a, b):
        return self._cut(padd(self.F, a, b))

    def neg(self, a):
        return pneg(self.F, a)

    def mul(self, a, b):
        return self._cut(pmul(self.F, a, b))

    def inv(self, a):
        F = self.F
        if not a or F.is_zero(a[0]):
            raise ZeroDivisionError("series is not a unit")
        return ptrim(F, pinv_series(F, a, self.B))

    # -- the digit interface of _hensel_pair --

    def residual(self, fm, G, H):
        return psub(self, fm, pmul(self, G, H))

    def digit(self, e, k):
        """Coefficient of w^k of every series in ``e``, as a poly over F."""
        F = self.F
        return ptrim(F, [s[k] if len(s) > k else F.zero for s in e])

    def bump(self, G, r, k):
        """G + r * w^k for a poly r over F."""
        F = self.F
        return padd(
            self, G, ptrim(self, tuple(() if F.is_zero(c) else (F.zero,) * k + (c,) for c in r))
        )


class _PadicRing:
    """Z/p^B on int-list polynomials: the p-adic twin of ``_SeriesRing``.

    Only the digit interface of ``_hensel_pair``; ``F`` is F_p.
    """

    def __init__(self, F, B):
        self.F = F
        self.B = B
        self.modulus = F.p ** B

    def residual(self, fm, G, H):
        m = self.modulus
        return [(a - b) % m for a, b in zip_longest(fm, _int_conv(G, H), fillvalue=0)]

    def digit(self, e, k):
        p = self.F.p
        pk = p ** k
        return ptrim(self.F, [c // pk % p for c in e])

    def bump(self, G, r, k):
        pk = self.F.p ** k
        out = list(G) + [0] * (len(r) - len(G))
        for i, c in enumerate(r):
            out[i] += c * pk
        return out


def _zquo(a, b):
    """a / b for int-list polynomials if the division is exact over Z, else None."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return None if any(a[:db]) else q


def _hensel_pair(R, F, fm, g, h):
    """Lift fm = g*h (first digit) to R's precision; g, h monic coprime over F.

    R is ``_SeriesRing`` (w-adic digits) or ``_PadicRing`` (p-adic digits).
    """
    tb = pinv_mod(F, h, g)
    G, H = R.bump((), g, 0), R.bump((), h, 0)
    for k in range(1, R.B):
        ek = R.digit(R.residual(fm, G, H), k)
        if not ek:
            continue
        r = pmod(F, pmul(F, ek, tb), g)
        A = _exact_quo(F, psub(F, ek, pmul(F, r, h)), g)
        G = R.bump(G, r, k)
        H = R.bump(H, A, k)
    return G, H


def _lift_tree(R, F, fm, gs):
    if len(gs) == 1:
        return [fm]
    mid = len(gs) // 2
    g = (F.one,)
    for p in gs[:mid]:
        g = pmul(F, g, p)
    h = (F.one,)
    for p in gs[mid:]:
        h = pmul(F, h, p)
    G, H = _hensel_pair(R, F, fm, g, h)
    return _lift_tree(R, F, G, gs[:mid]) + _lift_tree(R, F, H, gs[mid:])


def _recombine(n, accept):
    """Zassenhaus subset search over ``n`` lifted factors.

    ``accept(S)`` builds the candidate of the index tuple ``S`` and keeps it
    if it is a true factor.  Subsets grow to half of what remains: a product
    without such a factor is irreducible, and the caller keeps it as one.
    """
    remaining = list(range(n))
    size = 1
    while 2 * size <= len(remaining):
        for S in combinations(remaining, size):
            if accept(S):
                remaining = [i for i in remaining if i not in S]
                break
        else:
            size += 1


# ---------------------------------------------------------------------------
# Zassenhaus over Q
# ---------------------------------------------------------------------------


def _q_factor(field, f):
    """Irreducible factors of a monic squarefree f over Q (Zassenhaus).

    The primitive integer model F is split mod the smallest good odd prime
    p, lifted to p^B past the Mignotte bound, and recombined by subsets;
    every factor is certified by exact division over Z.
    """
    F, _ = field._ints(f)
    content = gcd(*F)
    F = [c // content for c in F]
    lc = F[-1]

    p = 3
    while True:
        if lc % p and _is_prime(p):
            Fp = FpField(p)
            fbar = pmonic(Fp, ptrim(Fp, [c % p for c in F]))
            if len(pgcd(Fp, fbar, pderiv(Fp, fbar))) == 1:
                break
        p += 2
    gs = _cz_factor(Fp, fbar)
    if len(gs) == 1:
        return [f]

    # p^B > 2 lc 2^n ||F||_2: the symmetric residue of lc*prod(S) then is
    # the integer polynomial lc/lc(g) * g of any true factor g
    bound = 2 * lc * 2 ** (len(F) - 1) * (isqrt(sum(c * c for c in F)) + 1)
    B = 1
    while p ** B <= bound:
        B += 1
    R = _PadicRing(Fp, B)
    m = R.modulus
    inv_lc = pow(lc, -1, m)
    lifted = _lift_tree(R, Fp, [c * inv_lc % m for c in F], gs)

    found = []

    def accept(S):
        nonlocal F
        cand = [F[-1]]
        for i in S:
            cand = [c % m for c in _int_conv(cand, lifted[i])]
        cand = [c - m if 2 * c > m else c for c in cand]
        content = gcd(*cand)
        cand = [c // content for c in cand]
        quo = _zquo(F, cand)
        if quo is None:
            return False
        found.append(cand)
        F = quo
        return True

    _recombine(len(lifted), accept)
    if len(F) > 1:
        found.append(F)
    return [pmonic(field, tuple(Fraction(c) for c in g)) for g in found]


# ---------------------------------------------------------------------------
# bivariate: evaluation, Hensel lifting, recombination over Q(u) and F_q(u)
# ---------------------------------------------------------------------------


def _find_irreducible(F, k, rng):
    while True:
        cand = tuple(F.rand(rng) for _ in range(k)) + (F.one,)
        if is_irreducible(F, cand):
            return cand


def _eval_points(E, count):
    """All of a finite E; else the integers 0, 1, -1, 2, -2, ... (count of them)."""
    if E.size() is not None:
        yield from elems(E)
        return
    for i in range(count):
        yield E.from_int((i + 1) // 2 * (1 if i % 2 else -1))


def _ratfun_factor(K, f):
    """Factor monic squarefree f in F(u)[t], F = Q or finite, by lifting from u = c.

    Over Q, 2*deg_t*deg_u + 1 integer points hold more than the roots of the
    leading coefficient and of Res_t(f, f'), so a good point always exists.
    If no point of a finite F keeps the input squarefree, points are taken in
    an extension F_{q^k}; candidate factors are projected back.
    """
    F = K.below
    cu = _primitive(F, _clear_ratfun(F, f)[0])
    du = max(len(c) - 1 for c in cu if c)
    if du == 0:
        const = ptrim(F, [c[0] if c else F.zero for c in cu])
        return [
            tuple(K.lift(x) for x in fac) for fac in factor_squarefree(F, const)
        ]

    finite = F.size() is not None
    rng = random.Random(_RNG_SEED)
    fcur = pmonic(K, ptrim(K, [K.make(c, (F.one,)) for c in cu]))
    for ext_deg in (1, 2, 3, 4) if finite else (1,):
        if ext_deg == 1:
            E = F
            lift_e = lambda x: x
            proj_e = lambda x: x
        else:
            E = ExtField(F, "~e", _find_irreducible(F, ext_deg, rng))
            lift_e = E.lift
            proj_e = E.in_below_image
        cu_e = [tuple(lift_e(x) for x in c) for c in cu]
        lead = cu_e[-1]
        c0 = None
        for cand in _eval_points(E, 2 * (len(cu) - 1) * du + 1):
            if E.is_zero(peval(E, lead, cand)):
                continue
            f_at = pmonic(E, ptrim(E, [peval(E, c, cand) for c in cu_e]))
            if len(pgcd(E, f_at, pderiv(E, f_at))) == 1:
                c0 = cand
                break
        if c0 is None:
            continue

        W = _SeriesRing(E, 2 * du + 1)
        ser = [W._cut(pcompose(E, c, (c0, E.one))) for c in cu_e]
        lead_ser = ser[-1]
        inv_lead = W.inv(lead_ser)
        fm = ptrim(W, [W.mul(s, inv_lead) for s in ser])
        gs = factor_squarefree(E, f_at)
        if len(gs) == 1:
            return [fcur]
        lifted = _lift_tree(W, E, fm, gs)

        back = (E.neg(c0), E.one)
        found = []

        def accept(S):
            nonlocal fcur
            H = (W.one,)
            for i in S:
                H = pmul(W, H, lifted[i])
            cand_coeffs = []
            for s in ptrim(W, [W.mul(lead_ser, s) for s in H]):
                down = tuple(proj_e(x) for x in pcompose(E, s, back))
                if any(d is None for d in down):
                    return False
                cand_coeffs.append(K.make(ptrim(F, down), (F.one,)))
            cand = ptrim(K, cand_coeffs)
            if len(cand) < 2:
                return False
            cand = pmonic(K, cand)
            q, r = pdivmod(K, fcur, cand)
            if r:
                return False
            found.append(cand)
            fcur = q
            return True

        _recombine(len(lifted), accept)
        if len(fcur) > 1:
            found.append(fcur)
        return found
    raise UnsupportedField("no good evaluation point in any small extension")


# ---------------------------------------------------------------------------
# norm-based reduction for separable algebraic extensions
# ---------------------------------------------------------------------------


def _shift_candidates(K):
    n = 1
    gens = [
        K.lift_from(f, f.from_poly((f.below.zero, f.below.one)))
        for f in reversed(K.chain())
        if isinstance(f, RatFunField)
    ]
    while True:
        yield K.from_int(n)
        for g in gens:
            yield K.mul(K.from_int(n), g)
        n += 1
        if n > 40:
            raise UnsupportedField("no squarefree norm found")


def _ext_factor(L, f):
    """Trager reduction: factor monic squarefree f over L = K[x]/(m)."""
    K = L.below
    m = [pconst(K, c) for c in L.minpoly]

    for s in _shift_candidates(K):
        # g(t) = f(t + s*x) over L; then treat x as a free variable for Res_x
        g = pcompose(L, f, ptrim(L, (L.make((K.zero, s)), L.one)))
        # transpose into x-major order: coefficient of x^j is a t-poly over K
        g_xmajor = [ptrim(K, [c[j] for c in g]) for j in range(L.deg)]
        while not g_xmajor[-1]:
            g_xmajor.pop()
        N = _subresultant(K, m, g_xmajor)[0]
        if not N:
            continue
        if len(pgcd(K, N, pderiv(K, N))) > 1:
            continue
        sub_factors = factor_squarefree(K, N)  # which makes N monic
        if len(sub_factors) == 1:
            return [f]  # an irreducible norm: f is irreducible
        out = []
        back = ptrim(L, (L.make((K.zero, K.neg(s))), L.one))  # t - s*x
        for Ni in sub_factors:
            Ni_L = tuple(L.lift(c) for c in Ni)
            cand = pgcd(L, f, pcompose(L, Ni_L, back))
            if len(cand) > 1:
                out.append(cand)
        prod = (L.one,)
        for c in out:
            prod = pmul(L, prod, c)
        if prod == f:
            return out
    raise UnsupportedField("norm-based reduction failed")


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def factor_squarefree(field, f):
    """Irreducible monic factors of a monic squarefree polynomial."""
    f = pmonic(field, ptrim(field, f))
    if len(f) <= 1:
        return []
    if len(f) == 2:
        return [f]
    if field.size() is not None:
        return _cz_factor(field, f)
    if isinstance(field, QField):
        return _q_factor(field, f)
    if isinstance(field, RatFunField):
        if isinstance(field.below, QField) or field.below.size() is not None:
            return _ratfun_factor(field, f)
        raise UnsupportedField("rational functions over an unsupported base")
    if isinstance(field, ExtField) and not field.inseparable:
        # over Q(α): every monic factor of f reduces at an unramified prime
        # (p, α - r) of degree 1 to a product of factors of a squarefree
        # image, so its degree is a subset sum of the image's pattern
        degrees = None
        for F, unramified, (img,) in _fp_images(field, f, primes=_DEGREE_SET_PRIMES):
            if unramified and len(_pgcd_fp(F.p, img, pderiv(F, img))) == 1:
                sums = {0}
                for g, d in _ddf(F, img):
                    for _ in range((len(g) - 1) // d):
                        sums |= {s + d for s in sums}
                degrees = sums if degrees is None else degrees & sums
                if len(degrees) == 2:  # {0, deg f}
                    return [f]
        return _ext_factor(field, f)
    raise UnsupportedField(f"factorization over {field!r} is not implemented")


def _factor_monic(field, f):
    """dict {irreducible monic factor: multiplicity} for monic f."""
    out = {}
    if len(f) <= 1:
        return out
    p = field.char
    df = pderiv(field, f)
    if p and not df:
        # f = g(t^p); recurse on g and resolve each factor q(t^p)
        g = ptrim(field, [f[i] for i in range(0, len(f), p)])
        for q, m in _factor_monic(field, g).items():
            qp = tuple(
                q[i // p] if i % p == 0 else field.zero
                for i in range(p * (len(q) - 1) + 1)
            )
            root = ppth_root(field, qp)
            if root is None:
                out[qp] = out.get(qp, 0) + m
                continue
            for q2, m2 in _factor_monic(field, root).items():
                out[q2] = out.get(q2, 0) + m * p * m2
        return out
    g = pgcd(field, f, df)
    sf = _exact_quo(field, f, g) if len(g) > 1 else f
    rem = f
    for q in factor_squarefree(field, sf):
        m, rem = pmultiplicity(field, rem, q)
        if m:
            out[q] = out.get(q, 0) + m
    for q, m in _factor_monic(field, rem).items():
        out[q] = out.get(q, 0) + m
    return out


def _sort_key(field, poly):
    return (len(poly), json.dumps([field.elem_to_json(c) for c in poly]))


def factor(field, coeffs):
    """Full factorization: (leading coefficient, [(monic irreducible, mult)]).

    The product of the factors times the leading coefficient equals the
    input exactly.
    """
    f = ptrim(field, coeffs)
    if not f:
        raise ZeroFunction("cannot factor the zero polynomial")
    lead, items = _factor_cached(field, f)
    return lead, list(items)


@lru_cache(maxsize=CACHE_SIZE)
def _factor_cached(field, f):
    facs = _factor_monic(field, pmonic(field, f))
    return f[-1], tuple(sorted(facs.items(), key=lambda kv: _sort_key(field, kv[0])))


def is_irreducible(field, coeffs):
    f = ptrim(field, coeffs)
    if len(f) < 2:
        return False
    _, facs = factor(field, f)
    return len(facs) == 1 and facs[0][1] == 1
