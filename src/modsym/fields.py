"""Exact field towers: Q or F_p extended by rational-function and algebraic steps.

A tower is a chain of Field objects.  Raw element data is nested hashable
data (Fraction / int / tuples), so structural equality is mathematical
equality thanks to canonical normal forms:

* ``QField``       -- elements are ``Fraction``
* ``FpField``      -- elements are ints in ``[0, p)``
* ``RatFunField``  -- elements are ``(num, den)`` coefficient tuples, the
  fraction reduced with monic denominator
* ``ExtField``     -- elements are coefficient tuples of fixed length
  ``deg`` over the field below, reduced mod the minimal polynomial

The public entry point mirroring the CLI descriptor grammar is
:func:`make_field`.

Polynomials are coefficient tuples, low degree first, handled by the ``p*``
functions, which include Horner evaluation and composition (``peval``,
``pcompose``), the power-series inverse ``pinv_series`` and the p-th root
``ppth_root`` (of ``RatFunField.pth_root`` and ``factor``).  ``ptrim`` and
``padd`` run one per-element loop for every field.  Over exactly
``FpField`` or ``QField`` (``_INT_FIELDS``), ``pmul`` and ``ExtField.mul``
run one int path: the field reads elements as ints over one denominator
(``_ints``) and converts each output back once (``_from_ints``).  A field of
a subclass runs the generic per-element loops, the oracle of the tests.
Over a ``RatFunField`` K(u), ``ExtField.mul`` multiplies polynomials over
K[u], cleared of their denominators (``_clear_ratfun``), reduces them by
``_prem``, the one pseudo-division over K[u], and reduces each output
coefficient once.
Over F_p, division and Euclid share one loop, ``_fp_rem``; division over
every other field, Q included, is the generic loop of ``pdivmod``.

Gcds, resultants and inverses modulo a monic polynomial (``pgcd``,
``_resultant``, ``pinv_mod``, so ``RatFunField`` arithmetic over K(u),
``ExtField.inv`` of an element of degree >= 2 in the generator, and the
norms of ``trace_norm``) over a ``RatFunField``
K(u) run one fraction-free subresultant PRS on the denominator-cleared
polynomials over K[u]: exact, with no gcd per step.  Over every other field
they run Euclid (``pinv_mod`` keeping only the one cofactor it returns),
and ``pxgcd`` stays the oracle of the tests for K(u) too.  Over Q and over
Q(α) by a simple step over Q, ``pgcd`` first reads both polynomials in F_p
(``_fp_images``) and answers 1 when the images prove them coprime.
``ExtField.inv`` of a constant or of c1*(x - r) is closed-form, by one
synthetic division of the minimal polynomial at r.  ``ppow_mod`` over F_p
squares and multiplies on int lists reduced by ``_fp_rem``.

An ``ExtField`` over exactly ``FpField`` with at most ``_ZECH_MAX_SIZE``
elements whose minimal polynomial is certified irreducible shares one pair of
Zech log/antilog tables per ``(p, minpoly)`` (``_zech_tables``): its
``mul`` and ``inv`` are lookups, so ``pth_root``, a power, is a few table
products.  ``pmul``, ``pdivmod`` (so ``pmod`` and Euclid in ``pgcd``) and
``ppow_mod`` over it run on lists of logs, adding by Zech's logarithm
(``_zech_sums``).  An element with no log (zero, or a tuple not in canonical
form) takes the int path.  The route follows the field; there is nothing to
configure.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    CharacteristicTooLarge,
    DegreeTooLarge,
    NonPrimeCharacteristic,
    NotAlgebraicStep,
    PthPowerRoot,
    ReduciblePolynomial,
    UnsupportedField,
    ZeroDivisionInField,
)


# Miller-Rabin with the 13 prime bases 2..41 decides primality for every
# n below this bound (Sorenson & Webster 2015); larger characteristics are
# rejected rather than guessed.
PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Largest degree of a CLI product or power (``cli._degree``, estimated from
# the operands) and absolute degree of a ``make_field`` descriptor.  It
# admits ``t^1000``; ``(t+u)^500`` over F7(u)(t) answers in a few seconds.
MAX_DEGREE = 1000

# Largest |n| in ``x^n`` of the CLI grammar (``cli.MAX_EXPONENT``) and in a
# Q literal ``"1e<n>"`` read from JSON: the cost of a power grows with n.
MAX_EXPONENT = 1000

# Results kept by each memo of an exact kernel (``trace_norm``, the
# ``trace`` vectors and the Zech tables here, and ``factor.factor``): a fixed
# bound, so memory stays flat in long runs.
CACHE_SIZE = 256


def _is_prime(n):
    """Deterministic primality for ``n < PRIME_LIMIT``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_from_json(j):
    """``int(j)``, raising ValueError, not OverflowError, on the infinite
    float that JSON reads from ``1e999``."""
    try:
        return int(j)
    except OverflowError:
        raise ValueError(f"{j!r} is not a finite number") from None


class Field:
    """Base class for all tower levels."""

    char = 0
    below = None
    var = None  # generator name for extension levels

    # -- chain helpers -------------------------------------------------

    def chain(self):
        """All levels of the tower, base first."""
        out = []
        f = self
        while f is not None:
            out.append(f)
            f = f.below
        out.reverse()
        return out

    def var_names(self):
        return [f.var for f in self.chain() if f.var is not None]

    def steps_above(self, other):
        """Levels strictly above ``other``, bottom first."""
        out = []
        f = self
        while f is not None and f != other:
            out.append(f)
            f = f.below
        if f is None:
            raise ValueError("not an extension of the given field")
        out.reverse()
        return out

    def absolute_degree_over(self, other):
        d = 1
        for step in self.steps_above(other):
            if not isinstance(step, ExtField):
                raise UnsupportedField("transcendental step in relative degree")
            d *= step.deg
        return d

    # -- arithmetic interface (implemented per subclass) ---------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one
        b = a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def size(self):
        """Number of elements, or None if infinite."""
        return None

    def lift_from(self, ancestor, a):
        """Embed an element of an ancestor level into this field."""
        if self is ancestor or self == ancestor:
            return a
        below = self.below
        if below is None:
            raise ValueError("not an ancestor")
        b = below.lift_from(ancestor, a)
        return self.lift(b)

    def in_below_image(self, a):
        """Return the element of the field below mapping to ``a``, else None."""
        raise UnsupportedField("base field has no level below")

    # -- p-th powers ----------------------------------------------------

    def pth_root(self, a):
        """Return b with b^p == a, or None.  Only in characteristic p."""
        raise UnsupportedField("p-th roots undefined in characteristic 0")


class QField(Field):
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, QField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionInField("inverse of 0 in Q")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def rand(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def to_str(self, a):
        return str(a)

    def elem_to_json(self, a):
        return str(a)

    def elem_from_json(self, j):
        """A zero denominator raises ZeroDivisionInField, and a decimal
        exponent over ``MAX_EXPONENT`` ValueError, before ``10^e`` is built."""
        text = str(j)
        exp = text.lower().partition("e")[2]
        if exp and abs(int(exp)) > MAX_EXPONENT:
            raise ValueError(f"|decimal exponent| of {text!r} exceeds {MAX_EXPONENT}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ZeroDivisionInField(f"zero denominator in {text!r}") from None

    def _ints(self, a):
        """(integer numerators, d) with ``a == [n / d for n in numerators]``."""
        d = lcm(*(x.denominator for x in a))
        return [x.numerator * (d // x.denominator) for x in a], d

    def _from_ints(self, ints, d):
        z = self.zero
        return tuple([Fraction(x, d) if x else z for x in ints])


class FpField(Field):
    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise CharacteristicTooLarge(f"characteristic {p} is not below {PRIME_LIMIT}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, FpField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return not a

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionInField(f"inverse of 0 in F{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def size(self):
        return self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def to_str(self, a):
        return str(a)

    def elem_to_json(self, a):
        return str(a)

    def elem_from_json(self, j):
        return int_from_json(j) % self.p

    def pth_root(self, a):
        return a  # F_p is perfect and Frobenius is the identity

    def _ints(self, a):
        return a, 1

    def _from_ints(self, ints, d):
        # d is 1: ``_ints`` gives 1, and minimal polynomials are monic.  Both
        # ``_from_ints`` build a list first: ``tuple`` of a generator resizes
        # as it grows, which raised the peak RSS of relations runs by 1.7 MB.
        p = self.p
        return tuple([x % p for x in ints])


# The fields, by exact type, whose elements ``pmul`` and ``ExtField.mul`` read
# as ints over one denominator (``_ints``/``_from_ints``).
_INT_FIELDS = (FpField, QField)


# ---------------------------------------------------------------------------
# raw coefficient-tuple polynomial helpers
# ---------------------------------------------------------------------------


def ptrim(field, c):
    """``c`` as a tuple without trailing zeros, by ``field.is_zero`` for every
    field."""
    c = tuple(c)
    n = len(c)
    while n and field.is_zero(c[n - 1]):
        n -= 1
    return c[:n]


def padd(field, a, b):
    """Sum of two polynomials, trimmed; the tail of the longer one is kept."""
    if len(a) < len(b):
        a, b = b, a
    return ptrim(field, (*map(field.add, a, b), *a[len(b):]))


def pneg(field, a):
    return tuple(map(field.neg, a))


def psub(field, a, b):
    return padd(field, a, pneg(field, b))


def _int_conv(a, b):
    """Product of two int coefficient lists, unreduced; ``[]`` if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pmul(field, a, b):
    """Product of two polynomials, trimmed.

    Over F_p and Q both factors are read as ints over one denominator
    (``_ints``: the residues over F_p, integer numerators over Q), and each
    coefficient of their int product is converted back once.
    """
    if not a or not b:
        return ()
    if type(field) in _INT_FIELDS:
        (na, da), (nb, db) = field._ints(a), field._ints(b)
        return ptrim(field, field._from_ints(_int_conv(na, nb), da * db))
    zl = _zech_logs(field, a, b)
    if zl is not None:
        return _zech_out(field, _zech_mul(zl[0], *zl[1]))
    z = field.zero
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return ptrim(field, out)


def pscale(field, a, c):
    return ptrim(field, [field.mul(x, c) for x in a])


def pdivmod(field, a, b):
    """Quotient and remainder of ``a`` by ``b``, both trimmed.

    One loop for every field but F_p, where it is ``_fp_rem``, and a field
    with Zech tables, where it is ``_zech_rem``: each step takes the leading
    term off ``a`` and subtracts its multiple of the rest of ``b``, as the
    leading terms cancel exactly.  A monic divisor is never inverted.
    Raises ZeroDivisionInField when ``b`` is zero or its last coefficient is.
    """
    if not b:
        raise ZeroDivisionInField("polynomial division by zero")
    a = list(a)
    lb = len(b)
    q = [field.zero] * max(0, len(a) - lb + 1)
    monic = field.is_one(b[-1])
    inv_lead = field.one if monic else field.inv(b[-1])
    if type(field) is FpField:
        _fp_rem(field.p, a, b, inv_lead, q)
        return ptrim(field, q), tuple(a)
    zl = _zech_logs(field, a, b)
    if zl is not None:
        (zs, (a, b)), q = zl, [-1] * len(q)
        _zech_rem(zs, a, b, q)
        return _zech_out(field, q), _zech_out(field, a)
    while len(a) >= lb:
        c = a.pop()
        if field.is_zero(c):
            continue
        if not monic:
            c = field.mul(c, inv_lead)
        k = len(a) - lb + 1
        q[k] = c
        for i in range(lb - 1):
            a[k + i] = field.sub(a[k + i], field.mul(c, b[i]))
    return ptrim(field, q), ptrim(field, a)


def _fp_rem(p, a, b, inv, q=None):
    """The int list ``a`` reduced mod ``b`` over F_p in place, trimmed and
    with entries in [0, p); ``inv`` is the inverse of ``b[-1]``.  Each
    quotient term ``c*x^k`` comes off ``a`` with ``c`` reduced mod p, and
    goes to ``q[k]`` if ``q`` is a list; the other entries are reduced once,
    at the end (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 2).
    """
    lb = len(b)
    while len(a) >= lb:
        c = a.pop() * inv % p
        if c:
            k = len(a) - lb + 1
            if q is not None:
                q[k] = c
            for i in range(lb - 1):
                a[k + i] -= c * b[i]
    a[:] = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _zech_logs(field, *polys):
    """``(zs, logs)``: the tables ``_zech_sums`` of exactly an ``ExtField``
    with Zech tables and each polynomial, trimmed, as a list of logs (-1 for
    zero); None for any other field, or if an entry has no log (not canonical)."""
    if type(field) is not ExtField or field._zech is None:
        return None
    log, zero = field._zech[0], field.zero
    try:
        logs = [[-1 if x == zero else log[x] for x in ptrim(field, p)] for p in polys]
    except KeyError:
        return None
    return field._zsums, logs


def _zech_out(field, logs):
    """A log list over ``field`` as a trimmed coefficient tuple."""
    exp, zero = field._zech[1], field.zero
    while logs and logs[-1] < 0:
        logs.pop()
    return tuple([exp[i] if i >= 0 else zero for i in logs])


def _zech_axpy(Z, out, k, c, b):
    """``out[k + i] += g^c * b[i]`` on log lists, in place: a product adds
    logs, and g^o + g^t = g^(o + Z[t - o]) with ``Z`` of ``_zech_sums``."""
    q1 = len(Z)
    for i, y in enumerate(b, k):
        if y >= 0:
            t = (c + y) % q1
            o = out[i]
            if o < 0:
                out[i] = t
            else:
                z = Z[t - o]  # a negative index wraps mod q - 1
                out[i] = -1 if z < 0 else (o + z) % q1


def _zech_mul(zs, a, b):
    """Product of two log lists, untrimmed."""
    out = [-1] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x >= 0:
            _zech_axpy(zs[0], out, i, x, b)
    return out


def _zech_rem(zs, a, b, q=None):
    """``_fp_rem`` on log lists (``b[-1]`` is not -1); the rest of ``b`` is
    negated once, by the log of -1."""
    (Z, neg), q1 = zs, len(zs[0])
    inv, lb = -b[-1] % q1, len(b)
    nb = [-1 if y < 0 else (y + neg) % q1 for y in b[:-1]]
    while len(a) >= lb:
        c = a.pop()
        if c >= 0:
            c = (c + inv) % q1
            k = len(a) - lb + 1
            if q is not None:
                q[k] = c
            _zech_axpy(Z, a, k, c, nb)
    while a and a[-1] < 0:
        a.pop()
    return a


def pmod(field, a, b):
    return pdivmod(field, a, b)[1]


def pmultiplicity(field, a, q):
    """``(m, b)`` with ``a = q^m * b`` and ``q`` not dividing ``b``; ``a``
    must be nonzero."""
    m = 0
    while True:
        quo, r = pdivmod(field, a, q)
        if r:
            return m, a
        a, m = quo, m + 1


def pgcd(field, a, b):
    """Monic gcd of two polynomials (``()`` when both are zero).

    Over F_p this is Euclid on int lists by ``_fp_rem``, keeping no
    quotient.  Over K(u) it is the primitive part of the last nonzero
    remainder of the subresultant PRS of the denominator-cleared
    polynomials over K[u].  Over Q, and over Q(α) by a
    simple step over Q, nonzero ``a`` and ``b`` are first read in F_p at
    the first point of ``_fp_images`` where both leading coefficients
    survive: if the images are coprime, so are ``a`` and ``b`` (Res(a, b)
    maps to the nonzero Res of the images; Brown, J. ACM 18, 1971), and the
    answer is 1.  Otherwise it is Euclid, as over every field not named
    here; ``pxgcd`` stays the oracle of the tests.
    """
    if isinstance(field, RatFunField):
        F = field.below
        A, B = _clear_ratfun(F, a)[0], _clear_ratfun(F, b)[0]
        if len(A) < len(B):
            A, B = B, A
        if B:
            A = _subresultant(F, A, B)[1]
        return pmonic(field, tuple(field.make(c, (F.one,)) for c in _primitive(F, A)))
    if type(field) is FpField:
        return _pgcd_fp(field.p, a, b)
    if a and b:
        for F, _, (A, B) in _fp_images(field, a, b):
            if A[-1] and B[-1]:
                if len(_pgcd_fp(F.p, A, B)) == 1:
                    return (field.one,)
                break
    while b:
        a, b = b, pmod(field, a, b)
    return pmonic(field, a)


def _pgcd_fp(p, a, b):
    a, b = list(a), list(b)
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        if len(b) == 1:
            return (1,)  # a nonzero constant remainder ends Euclid
        _fp_rem(p, a, b, pow(b[-1], p - 2, p))
        a, b = b, a
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return tuple(a)


# Word-size primes at which ``_fp_images`` reads polynomials over Q and
# Q(α): the eight smallest above 2^30, whose few set bits make the x^p of an
# irreducibility test cheap to raise.
_IMAGE_PRIMES = (
    1073741827, 1073741831, 1073741833, 1073741839,
    1073741843, 1073741857, 1073741891, 1073741909,
)


def _fp_images(field, *polys, primes=_IMAGE_PRIMES):
    """Images of nonzero polynomials over Q, or over Q(α) by a simple step
    over Q, in F_p: one ``(Fp, unramified, images)`` per point of
    ``_image_points(field, primes)`` at which every denominator in ``polys``
    is prime to p, ``images`` holding one untrimmed int list per polynomial.
    Over any other field there is no point.
    """
    if type(field) is not QField and not (
        type(field) is ExtField and type(field.below) is QField
    ):
        return
    for F, r, unramified in _image_points(field, primes):
        images = [_fp_image(F.p, r, poly) for poly in polys]
        if None not in images:
            yield F, unramified, images


def _fp_image(p, r, poly):
    """``poly`` with each coefficient read in F_p (an element of Q(α) at
    α = r when ``r`` is not None), or None if a denominator is divisible
    by p."""
    out = []
    for c in poly:
        v = 0
        for x in (c,) if r is None else reversed(c):
            n, d = x.numerator, x.denominator
            if d != 1:
                if d % p == 0:
                    return None
                n *= pow(d, -1, p)
            v = n if r is None else v * r + n
        out.append(v % p)
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _image_points(field, primes=_IMAGE_PRIMES):
    """The points ``(Fp, r, unramified)`` of ``_fp_images``: over Q one per
    prime in ``primes`` (``r`` None); over Q(α) one per root ``r`` of
    the minimal polynomial m mod p, for the primes at which m is p-integral,
    with ``unramified`` true when m is squarefree mod p.  Then α -> r maps
    the p-integral elements of Q(α) onto F_p, and when m is squarefree mod
    p, (p, α - r) is an unramified prime of degree 1.  The roots come from
    the first distinct-degree piece of m (``factor._ddf``): when its degree
    is 1, it is the product of the distinct linear factors of m, squarefree
    or not, and equal-degree factorization splits it, drawing from a fixed
    local generator: the roots are sorted, so the draws cannot change them.
    """
    from .factor import _ddf, _edf  # deferred: factor imports this module

    out = []
    for p in filter(_is_prime, primes):
        F = FpField(p)
        if type(field) is QField:
            out.append((F, None, True))
            continue
        if any(c.denominator % p == 0 for c in field.minpoly):
            continue
        m = tuple(c.numerator * pow(c.denominator, -1, p) % p for c in field.minpoly)
        linear, d = next(_ddf(F, m))
        if d == 1:
            unramified = len(_pgcd_fp(p, m, pderiv(F, m))) == 1
            roots = (-g[0] % p for g in _edf(F, linear, 1, random.Random(0)))
            out.extend((F, r, unramified) for r in sorted(roots))
    return tuple(out)


def _clear_ratfun(F, poly):
    """A polynomial over F(u) times the lcm of its coefficient denominators:
    the coefficient list of an associate over F[u], trailing zeros dropped,
    and that lcm.  Unit denominators take no gcd, and when the lcm is 1 the
    numerators are returned as they are (denominators are monic, so each
    one is then 1)."""
    one = den = (F.one,)
    for _, d in poly:
        if d != one:
            g = pgcd(F, den, d)
            den = pdivmod(F, pmul(F, den, d), g)[0]
    if den == one:
        out = [n for n, _ in poly]
    else:
        out = [pmul(F, n, pdivmod(F, den, d)[0]) for n, d in poly]
    while out and not out[-1]:
        out.pop()
    return out, den


def _primitive(F, P):
    """A polynomial over F[u] divided by the gcd of its coefficients."""
    g = ()
    for c in P:
        g = pgcd(F, g, c)
    if len(g) > 1:
        P = [pdivmod(F, c, g)[0] for c in P]
    return P


def _upow(F, a, n):
    r = (F.one,)
    for _ in range(n):
        r = pmul(F, r, a)
    return r


def _exact_quo(F, a, b):
    q, r = pdivmod(F, a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _scale_sub(F, c, X, d, k, Y):
    """``c*X - d*t^k*Y`` for polynomials over F[u] (lists of F[u] coefficients).
    A unit ``c`` multiplies nothing."""
    out = list(X) if c == (F.one,) else [pmul(F, c, x) for x in X]
    out += [()] * (k + len(Y) - len(out))
    for i, y in enumerate(Y):
        out[k + i] = psub(F, out[k + i], pmul(F, d, y))
    while out and not out[-1]:
        out.pop()
    return out


def _prem(F, A, B, V=None, W=None):
    """True pseudo-remainder over F[u]: ``lc(B)^(deg A - deg B + 1) * A mod B``.

    Given cofactors ``V`` of A and ``W`` of B, the same combination of them
    is returned as the remainder's cofactor, else None.  When ``lc(B)`` is
    1 nothing is multiplied: the result is the plain remainder.
    """
    lb, n = B[-1], len(B)
    e = max(len(A) - n + 1, 0)
    while len(A) >= n:
        la, k = A[-1], len(A) - n
        A = _scale_sub(F, lb, A[:-1], la, k, B[:-1])  # the leading terms cancel
        if V is not None:
            V = _scale_sub(F, lb, V, la, k, W)
        e -= 1
    if e and lb != (F.one,):
        # the degree dropped by more than one in a step: lc(B)^(delta+1) in all
        c = _upow(F, lb, e)
        A = [pmul(F, c, x) for x in A]
        if V is not None:
            V = [pmul(F, c, x) for x in V]
    return A, V


def _subresultant(F, A, B, cofactor=False):
    """Subresultant PRS over F[u] (Collins, J. ACM 14, 1967; Brown & Traub,
    J. ACM 18, 1971), for lists of F[u] coefficients with deg A >= deg B and
    B nonzero.

    Returns ``(res, b, v)``: ``res`` is Res(A, B), ``b`` the last nonzero
    remainder (a constant iff ``res`` is nonzero) and, with ``cofactor``,
    ``v`` with ``v*B == b`` modulo A (else None).  Every step divides
    exactly by ``g*h^delta`` and takes no gcd.  ``_resultant`` reads
    ``res``, ``pinv_mod`` reads ``b`` and ``v``, and ``pgcd`` reads ``b``,
    an associate of gcd(A, B).
    """
    one = (F.one,)
    V, W = ([], [one]) if cofactor else (None, None)
    g = h = one
    neg = False
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        neg ^= bool(dA & dB & 1)
        R, VR = _prem(F, A, B, V, W)
        if not R:
            return (), B, W
        beta = pmul(F, g, _upow(F, h, delta))
        if beta != one:
            R = [_exact_quo(F, c, beta) for c in R]
            if VR is not None:
                VR = [_exact_quo(F, c, beta) for c in VR]
        A, B, V, W = B, R, W, VR
        g = A[-1]
        if delta:
            h = _exact_quo(F, _upow(F, g, delta), _upow(F, h, delta - 1))
    dA = len(A) - 1
    res = _exact_quo(F, _upow(F, B[0], dA), _upow(F, h, dA - 1)) if dA else h
    return (pneg(F, res) if neg else res), B, W


def pxgcd(field, a, b):
    """Return (g, s, t) with s*a + t*b = g, g monic or zero."""
    r0, r1 = tuple(a), tuple(b)
    s0, s1 = (field.one,), ()
    t0, t1 = (), (field.one,)
    while r1:
        q, r = pdivmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(field, s0, pmul(field, q, s1))
        t0, t1 = t1, psub(field, t0, pmul(field, q, t1))
    if r0:
        c = field.inv(r0[-1])
        r0, s0, t0 = pscale(field, r0, c), pscale(field, s0, c), pscale(field, t0, c)
    return r0, s0, t0


def pinv_mod(field, a, m):
    """``a^-1`` modulo the monic ``m``, of degree below ``deg m``.

    Over K(u), from the subresultant PRS of the cleared ``m`` and ``a``:
    with ``a = a'/da`` and ``v*a' == b`` mod ``m``, the inverse is
    ``da*v/b``.  Over any other field, F_p included, from an extended
    Euclid on ``pdivmod`` and ``pmul`` that keeps only the cofactor of
    ``a``; ``pxgcd`` is its oracle in the tests.  Raises ZeroDivisionInField
    when ``a`` and ``m`` have a common factor.
    """
    a = pmod(field, a, m)
    if a and isinstance(field, RatFunField):
        F = field.below
        (A, _), (B, da) = _clear_ratfun(F, m), _clear_ratfun(F, a)
        res, b, v = _subresultant(F, A, B, cofactor=True)
        if res:
            return ptrim(field, [field.make(pmul(F, da, c), b[0]) for c in v])
    elif a:
        r0, r1, s0, s1 = m, a, (), (field.one,)
        while r1:
            q, r = pdivmod(field, r0, r1)
            r0, r1, s0, s1 = r1, r, s1, psub(field, s0, pmul(field, q, s1))
        if len(r0) == 1:
            return pscale(field, s0, field.inv(r0[0]))
    raise ZeroDivisionInField("element not invertible (reducible modulus?)")


def pmonic(field, a):
    if not a:
        return a
    return pscale(field, a, field.inv(a[-1]))


def pderiv(field, a):
    return ptrim(field, [field.mul(field.from_int(i), a[i]) for i in range(1, len(a))])


def ppth_root(field, a):
    """``b`` with ``b(t)^p == a(t)`` in characteristic p, or None.  Reads
    ``a`` low degree first: a nonzero term off the multiples of p answers
    None before any later coefficient's root is taken."""
    p, out = field.char, []
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        if i % p:
            return None
        r = field.pth_root(x)
        if r is None:
            return None
        out += [field.zero] * (i // p + 1 - len(out))
        out[i // p] = r
    return ptrim(field, out)


def peval(field, a, x):
    """``a(x)`` by Horner's rule."""
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def pcompose(field, f, g):
    """``f(g)`` by Horner's rule; ``pcompose(field, f, (c, 1))`` is the Taylor
    shift ``f(c + s)``."""
    out = ()
    for c in reversed(f):
        out = padd(field, pmul(field, out, g), pconst(field, c))
    return out


def pinv_series(field, a, n):
    """The first ``n >= 1`` coefficients of the power series ``1/a``, as a
    list; ``a[0]`` must be invertible."""
    b0 = field.inv(a[0])
    out = [b0]
    for k in range(1, n):
        s = field.zero
        for i in range(1, min(k, len(a) - 1) + 1):
            s = field.add(s, field.mul(a[i], out[k - i]))
        out.append(field.neg(field.mul(b0, s)))
    return out


def pstr(field, a, var):
    """``a`` printed as a polynomial in ``var``; a coefficient whose own
    string has ``+``, a space, ``/`` or an inner ``-`` is parenthesized."""
    parts = []
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        xs = field.to_str(x)
        if any(ch in xs for ch in "+ /") or "-" in xs[1:]:
            xs = f"({xs})"
        if i == 0:
            parts.append(xs)
        else:
            head = "" if xs == "1" else f"{xs}*"
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts) if parts else "0"


def pconst(field, c):
    return () if field.is_zero(c) else (c,)


def ppow_mod(field, a, n, m):
    """``a^n`` modulo ``m`` by square-and-multiply; ``(1,)`` when n is 0.

    One loop on a product ``mulmod``: over exactly ``FpField`` int lists
    (``_int_conv``) reduced in place by ``_fp_rem``; over a field with Zech
    tables log lists, converted once each way (``_zech_mul``,
    ``_zech_rem``); over every other field the generic ``pmul``/``pmod``,
    the oracle of the tests.
    """
    zl = _zech_logs(field, a, m)
    if type(field) is FpField:
        p, one, out = field.p, [1], tuple
        inv = pow(m[-1], p - 2, p)
        mulmod = lambda x, y: _fp_rem(p, _int_conv(x, y), m, inv)
    elif zl is not None:
        (zs, (a, lm)), one = zl, [0]
        mulmod = lambda x, y: _zech_rem(zs, _zech_mul(zs, x, y), lm)
        out = lambda r: _zech_out(field, r)
    else:
        one, out = (field.one,), tuple
        mulmod = lambda x, y: pmod(field, pmul(field, x, y), m)
    r, b = one, mulmod(one, a)
    while n:
        if n & 1:
            r = mulmod(r, b)
        n >>= 1
        if n:
            b = mulmod(b, b)
    return out(r)


# ---------------------------------------------------------------------------


class RatFunField(Field):
    """Rational functions ``below(var)``; elements are reduced (num, den)."""

    def __init__(self, below, var):
        if var in below.var_names():
            raise ValueError(f"variable name {var!r} reused in tower")
        self.below = below
        self.var = var
        self.char = below.char
        self.zero = ((), (below.one,))
        self.one = ((below.one,), (below.one,))

    def __eq__(self, other):
        return (
            isinstance(other, RatFunField)
            and other.var == self.var
            and other.below == self.below
        )

    def __hash__(self):
        return hash(("ratfun", self.var, self.below))

    def __repr__(self):
        return f"{self.below!r}({self.var})"

    def make(self, num, den):
        K = self.below
        num, den = ptrim(K, num), ptrim(K, den)
        if not den:
            raise ZeroDivisionInField("zero denominator")
        if not num:
            return self.zero
        if len(den) > 1:
            g = pgcd(K, num, den)
            if len(g) > 1:
                num = pdivmod(K, num, g)[0]
                den = pdivmod(K, den, g)[0]
        return self._make_coprime(num, den)

    def _make_coprime(self, num, den):
        # num and den coprime; den is scaled to monic
        K = self.below
        if not num:
            return self.zero
        if K.is_one(den[-1]):
            return (num, den)
        c = K.inv(den[-1])
        return (pscale(K, num, c), pscale(K, den, c))

    def from_poly(self, coeffs):
        return self.make(coeffs, (self.below.one,))

    def add(self, a, b):
        K = self.below
        n1, d1 = a
        n2, d2 = b
        if not n1:
            return b
        if not n2:
            return a
        if d1 == d2 == (K.one,):
            # polynomials: the sum is reduced as it stands (an empty one is zero)
            return (padd(K, n1, n2), d1)
        g = pgcd(K, d1, d2)
        if len(g) <= 1:
            # denominators coprime: the sum is automatically reduced
            num = padd(K, pmul(K, n1, d2), pmul(K, n2, d1))
            return self._make_coprime(num, pmul(K, d1, d2))
        d1r = pdivmod(K, d1, g)[0]
        d2r = pdivmod(K, d2, g)[0]
        num = padd(K, pmul(K, n1, d2r), pmul(K, n2, d1r))
        gg = pgcd(K, num, g)
        den = pmul(K, d1r, d2)
        if len(gg) > 1:
            num = pdivmod(K, num, gg)[0]
            den = pdivmod(K, den, gg)[0]
        return self._make_coprime(num, den)

    def neg(self, a):
        return (pneg(self.below, a[0]), a[1])

    def mul(self, a, b):
        K = self.below
        n1, d1 = a
        n2, d2 = b
        if not n1 or not n2:
            return self.zero
        if d1 == d2 == (K.one,):
            return (pmul(K, n1, n2), d1)
        g1 = pgcd(K, n1, d2)
        if len(g1) > 1:
            n1 = pdivmod(K, n1, g1)[0]
            d2 = pdivmod(K, d2, g1)[0]
        g2 = pgcd(K, n2, d1)
        if len(g2) > 1:
            n2 = pdivmod(K, n2, g2)[0]
            d1 = pdivmod(K, d1, g2)[0]
        return self._make_coprime(pmul(K, n1, n2), pmul(K, d1, d2))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionInField("inverse of 0")
        return self._make_coprime(a[1], a[0])

    def from_int(self, n):
        return self.make(pconst(self.below, self.below.from_int(n)), (self.below.one,))

    def lift(self, a):
        return (pconst(self.below, a), (self.below.one,))

    def in_below_image(self, a):
        if a[1] == (self.below.one,) and len(a[0]) <= 1:
            return a[0][0] if a[0] else self.below.zero
        return None

    def rand(self, rng):
        K = self.below
        while True:
            num = ptrim(K, [K.rand(rng) for _ in range(rng.randint(1, 3))])
            den = ptrim(K, [K.rand(rng) for _ in range(rng.randint(1, 3))])
            if den:
                return self.make(num, den)

    def to_str(self, a):
        num, den = (pstr(self.below, c, self.var) for c in a)
        return num if a[1] == (self.below.one,) else f"({num})/({den})"

    def elem_to_json(self, a):
        K = self.below
        return {
            "num": [K.elem_to_json(c) for c in a[0]],
            "den": [K.elem_to_json(c) for c in a[1]],
        }

    def elem_from_json(self, j):
        K = self.below
        return self.make(
            tuple(K.elem_from_json(c) for c in j["num"]),
            tuple(K.elem_from_json(c) for c in j["den"]),
        )

    def pth_root(self, a):
        if self.char == 0:
            raise UnsupportedField("p-th roots undefined in characteristic 0")
        num, den = ppth_root(self.below, a[0]), ppth_root(self.below, a[1])
        if num is None or den is None:
            return None
        return self.make(num, den)


# Largest q of an extension of exactly ``FpField`` that gets Zech tables.
# Measured on the F7(t) ops of the relations workload
# (``tools/ab_relations.py``): at 4096 the degree-3 and degree-4 residue
# fields over F7 each build a table they hardly use, and those ops ran 3.7x
# slower; without the memo of ``_zech_tables`` they ran 1.8x slower.
_ZECH_MAX_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def _zech_tables(p, minpoly):
    """``(log, exp)`` of F_p[x]/(minpoly) for a primitive element g, or None
    when the monic ``minpoly`` (ints in [0, p)) is reducible.

    ``log`` maps each nonzero element tuple to i, ``exp[i]`` is g^i for
    i < 2(q - 1), so the sum of two logs indexes ``exp`` unreduced (Huber,
    IEEE Trans. Inf. Theory 36, 1990).  ``minpoly`` is certified first by
    the distinct-degree test of ``factor._fp_irreducible``, as the order
    test alone passes zero divisors (5 + i in F13[i]/(i^2 + 1)).  Then g is
    the first element with g^((q-1)/r) != 1 for every prime r | q - 1.
    """
    from .factor import _fp_irreducible  # deferred: factor imports this module

    F, d = FpField(p), len(minpoly) - 1
    if not _fp_irreducible(F, minpoly):
        return None
    q = p**d
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
    for n in range(1 if d == 1 else p, q):  # a constant has order < q - 1 if d > 1
        g = ptrim(F, [n // p**i % p for i in range(d)])
        if all(ppow_mod(F, g, (q - 1) // r, minpoly) != (1,) for r in primes):
            break
    exp, x = [], [1]
    for _ in range(q - 1):
        exp.append((*x, *(0,) * (d - len(x))))
        x = _int_conv(x, g)
        _fp_rem(p, x, minpoly, 1)
    return {e: i for i, e in enumerate(exp)}, exp + exp


@lru_cache(maxsize=CACHE_SIZE)
def _zech_sums(p, minpoly):
    """``(Z, neg)`` of the log-list kernels over the tables of
    ``_zech_tables``: Zech's logarithm ``Z[n] = log(1 + g^n)`` for
    n < q - 1 (-1 where 1 + g^n is zero), and ``neg`` the log of -1
    ((q - 1)/2, or 0 in char 2)."""
    log, exp = _zech_tables(p, minpoly)
    q1 = len(log)
    Z = [log.get(((e[0] + 1) % p, *e[1:]), -1) for e in exp[:q1]]
    return Z, q1 // 2 if p % 2 else 0


class ExtField(Field):
    """Simple algebraic extension ``below[var]/(minpoly)``.

    ``minpoly`` is a monic coefficient tuple over ``below``; irreducibility
    is the caller's responsibility (``make_field`` checks it).
    ``inseparable`` (derived) marks a minpoly with zero derivative, as x^p - y.
    ``_zech`` holds the tables of ``_zech_tables`` (see the module
    docstring), or None; ``_zsums`` then holds those of ``_zech_sums``.
    """

    def __init__(self, below, var, minpoly):
        if var in below.var_names():
            raise ValueError(f"variable name {var!r} reused in tower")
        minpoly = ptrim(below, minpoly)
        if len(minpoly) < 2 or not below.is_one(minpoly[-1]):
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.below = below
        self.var = var
        self.minpoly = minpoly
        self.deg = len(minpoly) - 1
        self.inseparable = below.char > 0 and not ptrim(below, pderiv(below, minpoly))
        self.char = below.char
        self.zero = (below.zero,) * self.deg
        self.one = tuple(
            below.one if i == 0 else below.zero for i in range(self.deg)
        )
        if type(below) in _INT_FIELDS:
            self._int_minpoly = below._ints(minpoly)
        self._cleared_minpoly = None
        if isinstance(below, RatFunField):
            self._cleared_minpoly = _clear_ratfun(below.below, minpoly)
        self._zech = self._zsums = None
        if type(below) is FpField and below.p**self.deg <= _ZECH_MAX_SIZE:
            key = (below.p, tuple(c % below.p for c in minpoly))
            self._zech = _zech_tables(*key)
            self._zsums = self._zech and _zech_sums(*key)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.var == self.var
            and other.minpoly == self.minpoly
            and other.below == self.below
        )

    def __hash__(self):
        return hash(("ext", self.var, self.minpoly, self.below))

    def __repr__(self):
        return f"{self.below!r}[{self.var}]"

    def make(self, coeffs):
        r = pmod(self.below, ptrim(self.below, coeffs), self.minpoly)
        return tuple(r) + (self.below.zero,) * (self.deg - len(r))

    def gen(self):
        return self.make((self.below.zero, self.below.one))

    def add(self, a, b):
        return tuple(map(self.below.add, a, b))

    def neg(self, a):
        return tuple(map(self.below.neg, a))

    def sub(self, a, b):
        return tuple(map(self.below.sub, a, b))

    def mul(self, a, b):
        """Product of two elements.

        With Zech tables, ``exp[log a + log b]``.  Otherwise over F_p or Q:
        a schoolbook product on ints (``_ints``), reduced in place by the int
        form of the minimal polynomial (scaling the common denominator by its
        own, which only Q has), converted back once.  Over K(u) the
        operands cleared over K[u] (``_clear_ratfun``) are multiplied
        schoolbook, their product is pseudo-reduced by the cleared minimal
        polynomial (``_prem``, over the denominator times ``dm^e``), and
        each output coefficient takes one gcd, in ``make`` (Henrici, J. ACM
        3, 1956).
        """
        if self._zech is not None:
            log, exp = self._zech
            i, j = log.get(a), log.get(b)
            if i is not None and j is not None:
                return exp[i + j]
        K = self.below
        if type(K) in _INT_FIELDS:
            (m, dm), d = self._int_minpoly, self.deg
            (na, da), (nb, db) = K._ints(a), K._ints(b)
            out, den = _int_conv(na, nb), da * db
            out += [0] * (d - len(out))
            while len(out) > d:
                c = out.pop()
                if c:
                    if dm != 1:
                        out = [x * dm for x in out]
                        den *= dm
                    k = len(out) - d
                    for i in range(d):
                        out[k + i] -= c * m[i]
            return K._from_ints(out, den)
        if self._cleared_minpoly is not None:
            return self._ratfun_mul(a, b)
        return self.make(pmul(K, ptrim(K, a), ptrim(K, b)))

    def _ratfun_mul(self, a, b):
        K, d, F = self.below, self.deg, self.below.below
        (m, dm), (na, da), (nb, db) = (
            self._cleared_minpoly, _clear_ratfun(F, a), _clear_ratfun(F, b)
        )
        if not na or not nb:
            return self.zero
        out = [()] * (len(na) + len(nb) - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    out[i + j] = padd(F, out[i + j], pmul(F, x, y))
        den = pmul(F, da, db)
        if len(out) > d and dm != (F.one,):  # _prem scales by dm^(len(out) - d)
            den = pmul(F, den, _upow(F, dm, len(out) - d))
        out = _prem(F, out, m)[0]
        out += [()] * (d - len(out))
        return tuple(K.make(x, den) for x in out)

    def inv(self, a):
        """Inverse of an element; ZeroDivisionInField for zero, or for a
        zero divisor when the minimal polynomial m is reducible.

        With Zech tables, ``exp[q - 1 - log a]``.  A constant c inverts as
        the constant 1/c, and ``a = c1*(x - r)`` as ``-q/(c1*m(r))`` from one
        synthetic division ``m = (x - r)*q + m(r)``.  Every other element
        runs ``pinv_mod``, the oracle of the tests.
        """
        if self._zech is not None:
            log, exp = self._zech
            i = log.get(a)
            if i is not None:
                return exp[len(log) - i]
        K = self.below
        ap = ptrim(K, a)
        if not ap:
            raise ZeroDivisionInField("inverse of 0")
        if len(ap) == 1:
            return self.lift(K.inv(ap[0]))
        if len(ap) > 2:
            return self.make(pinv_mod(K, ap, self.minpoly))
        # a*q = c1*(x - r)*q = -c1*m(r) mod m; K.inv raises when m(r) = 0
        c1 = ap[1]
        r = K.neg(K.mul(ap[0], K.inv(c1)))
        q, acc = [], K.zero
        for c in reversed(self.minpoly):
            acc = K.add(K.mul(acc, r), c)
            q.append(acc)
        s = K.neg(K.inv(K.mul(c1, q.pop())))
        return tuple([K.mul(s, c) for c in reversed(q)])

    def from_int(self, n):
        return (self.below.from_int(n), *self.zero[1:])

    def lift(self, a):
        return (a, *self.zero[1:])

    def in_below_image(self, a):
        if all(self.below.is_zero(x) for x in a[1:]):
            return a[0]
        return None

    def size(self):
        s = self.below.size()
        return None if s is None else s ** self.deg

    def rand(self, rng):
        return tuple(self.below.rand(rng) for _ in range(self.deg))

    def to_str(self, a):
        return pstr(self.below, a, self.var)

    def elem_to_json(self, a):
        return [self.below.elem_to_json(c) for c in a]

    def elem_from_json(self, j):
        return self.make(tuple(self.below.elem_from_json(c) for c in j))

    def pth_root(self, a):
        p = self.char
        if p == 0:
            raise UnsupportedField("p-th roots undefined in characteristic 0")
        q = self.size()
        if q is not None:
            return self.pow(a, q // p)
        if self.inseparable:
            # x = root of t^p - y: a^(1/p) exists iff a is a poly in x^p = y
            raise UnsupportedField("p-th roots in infinite inseparable extensions")
        raise UnsupportedField("p-th roots in infinite extension fields")


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def make_field(descriptor):
    """Build and validate a tower from a JSON-style descriptor.

    ``{"base": "Q"}`` or ``{"base": "Fp", "p": 5}`` with optional
    ``"steps"``: ``{"ratfun": "t"}``,
    ``{"simple": {"var": "x", "min_poly": [c0, c1, ...]}}`` (monic, low
    degree first, coefficients in the element grammar of the field below),
    ``{"insep_root": {"var": "x", "y": <elem>}}``.  Raises DegreeTooLarge
    before building a step that would take the absolute degree (the product
    of the algebraic step degrees) above ``MAX_DEGREE``.
    """
    from .factor import is_irreducible  # deferred: factor imports this module

    def bounded(degree):
        if degree > MAX_DEGREE:
            raise DegreeTooLarge(f"absolute degree {degree} exceeds {MAX_DEGREE}")
        return degree

    base = descriptor.get("base")
    if base == "Q":
        field = QField()
    elif base == "Fp":
        field = FpField(int_from_json(descriptor["p"]))
    else:
        raise UnsupportedField(f"unknown base field {base!r}")

    degree = 1
    for step in descriptor.get("steps", ()):
        if "ratfun" in step:
            field = RatFunField(field, step["ratfun"])
        elif "simple" in step:
            var = step["simple"]["var"]
            degree = bounded(degree * (len(step["simple"]["min_poly"]) - 1))
            mp = tuple(
                field.elem_from_json(c) if not isinstance(c, int) else field.from_int(c)
                for c in step["simple"]["min_poly"]
            )
            mp = ptrim(field, mp)
            if len(mp) < 2 or not field.is_one(mp[-1]):
                raise ReduciblePolynomial("minimal polynomial must be monic nonconstant")
            if not is_irreducible(field, mp):
                raise ReduciblePolynomial("minimal polynomial is reducible")
            field = ExtField(field, var, mp)
        elif "insep_root" in step:
            var = step["insep_root"]["var"]
            y = step["insep_root"]["y"]
            y = field.elem_from_json(y) if not isinstance(y, int) else field.from_int(y)
            p = field.char
            if p == 0:
                raise NonPrimeCharacteristic("insep_root requires characteristic p")
            degree = bounded(degree * p)
            if field.pth_root(y) is not None:
                raise PthPowerRoot("y is a p-th power; x^p - y is reducible")
            mp = (field.neg(y),) + (field.zero,) * (p - 1) + (field.one,)
            field = ExtField(field, var, mp)
        else:
            raise UnsupportedField(f"unknown step {step!r}")
    return field


def field_to_descriptor(field):
    chain = field.chain()
    base = chain[0]
    if isinstance(base, QField):
        desc = {"base": "Q"}
    else:
        desc = {"base": "Fp", "p": base.p}
    steps = []
    for lvl in chain[1:]:
        if isinstance(lvl, RatFunField):
            steps.append({"ratfun": lvl.var})
        else:
            steps.append(
                {
                    "simple": {
                        "var": lvl.var,
                        "min_poly": [lvl.below.elem_to_json(c) for c in lvl.minpoly],
                    }
                }
            )
    if steps:
        desc["steps"] = steps
    return desc


# ---------------------------------------------------------------------------
# trace and norm
# ---------------------------------------------------------------------------


def trace(field, a):
    """Trace of ``a`` along the top step, a value in the field below.

    ``field`` must be an ExtField.  The trace is the dot product of the
    coefficients of ``a`` with the vector of ``Tr(x^i)``, kept for the
    ``CACHE_SIZE`` most recently used fields.
    """
    if not isinstance(field, ExtField):
        raise NotAlgebraicStep("top step is not algebraic")
    K = field.below
    tr = K.zero
    for c, t in zip(a, _power_traces(field)):
        tr = K.add(tr, K.mul(c, t))
    return tr


@lru_cache(maxsize=CACHE_SIZE)
def _power_traces(field):
    """``Tr(x^k)`` for ``k < deg``: the power sums of the roots of the monic
    minimal polynomial m, by Newton's identities
    ``p_k = -(k m_(d-k) + sum_(0<i<k) m_(d-i) p_(k-i))``."""
    K, m, d = field.below, field.minpoly, field.deg
    p = [K.from_int(d)]
    for k in range(1, d):
        s = K.mul(K.from_int(k), m[d - k])
        for i in range(1, k):
            s = K.add(s, K.mul(m[d - i], p[k - i]))
        p.append(K.neg(s))
    return tuple(p)


def trace_norm(field, a):
    """Trace and norm of multiplication by ``a`` along the top step.

    ``field`` must be an ExtField; returns a pair in the field below.  The
    ``CACHE_SIZE`` most recently used results are kept, keyed by the field
    and ``a`` (a canonical coefficient tuple): trace and norm are exact, so
    the cache never shows in a result.
    """
    if not isinstance(field, ExtField):
        raise NotAlgebraicStep("top step is not algebraic")
    return _trace_norm(field, tuple(a))


@lru_cache(maxsize=CACHE_SIZE)
def _trace_norm(field, a):
    K = field.below
    ap = ptrim(K, a)
    # the norm is Res(m, a) = prod of a at the roots of m, as m is monic
    nm = _resultant(K, field.minpoly, ap) if ap else K.zero
    return trace(field, a), nm


def _resultant(field, A, B):
    """Resultant of nonzero coefficient-tuple polynomials over a field.

    Over K(u) by the subresultant PRS of the cleared polynomials A', B'
    (``A = A'/cA``): ``Res(A', B') / (cA^deg B * cB^deg A)``; over any other
    field by Euclid.
    """
    if not isinstance(field, RatFunField):
        return _euclid_resultant(field, A, B)
    F = field.below
    (A, cA), (B, cB) = _clear_ratfun(F, A), _clear_ratfun(F, B)
    da, db = len(A) - 1, len(B) - 1
    if da < db:
        A, B = B, A
    res = _subresultant(F, A, B)[0]
    if da < db and da * db % 2:
        res = pneg(F, res)
    return field.make(res, pmul(F, _upow(F, cA, db), _upow(F, cB, da)))


def _euclid_resultant(field, A, B):
    da, db = len(A) - 1, len(B) - 1
    if db == 0:
        return field.pow(B[0], da)
    _, r = pdivmod(field, A, B)
    if not r:
        return field.zero
    dr = len(r) - 1
    sign = field.from_int(-1) if (da * db) % 2 else field.one
    lead = field.pow(B[-1], da - dr)
    return field.mul(sign, field.mul(lead, _euclid_resultant(field, B, r)))


def trace_to(top, base, a):
    """Compose traces step by step from ``top`` down to ``base``."""
    for step in reversed(top.steps_above(base)):
        a = trace(step, a)
    return a


def norm_to(top, base, a):
    for step in reversed(top.steps_above(base)):
        a = trace_norm(step, a)[1]
    return a
