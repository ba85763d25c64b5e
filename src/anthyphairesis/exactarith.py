"""Exact arithmetic in real quadratic fields.

Every value is ``(u + v*sqrt(d)) / w`` with arbitrary-precision integers
``u, v, w`` and a squarefree radicand ``d``.  Rationals are the ``v == 0``
case.  Nothing in this module touches floating point: signs, floors and
comparisons are decided by integer case analysis only, so results stay
exact no matter how large the components grow.

Every rational the library computes is such an integer pair, in every
layer: ``__str__``, ``__hash__``, ``rational_sqrt``, the area
constructions and the verify suites read ``u`` and ``w`` and build no
Fraction, so no command loads ``fractions``, nor the ``decimal`` and
``numbers`` modules it pulls in.  The hash follows Python's documented
numeric-hash recipe, so a rational value hashes as the equal int or
Fraction without one.  A Fraction is accepted as a value (in arithmetic
and comparisons, ``as_surd``, area segments, ``euclid_cf``, ``surd_cf``,
``remainder`` and ``minimal_form``), never as a component or a count,
and the library builds none.  Every operator, reflected ones included,
hands an int or Fraction operand to ``_foreign``, the one place an
operator coerces.  A Fraction is recognized without an import: none can
exist before ``fractions`` is loaded, so ``_is_fraction`` looks the
class up in ``sys.modules``.
"""

from __future__ import annotations

import functools
import math
import sys

from ._value import Frozen, _new
from .errors import DomainError, InternalInvariantError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions is not imported at run time
    from collections.abc import Callable
    from fractions import Fraction


def _is_fraction(x: object) -> bool:
    """Whether x is a Fraction, read without importing fractions."""
    cls = getattr(sys.modules.get("fractions"), "Fraction", None)
    return cls is not None and isinstance(x, cls)


def _require_int(x: object, caller: str, name: str = "argument") -> None:
    """Refuse a bool or a non-int with a DomainError naming caller and name."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError("%s: %s must be an integer, got %r" % (caller, name, x))


def isqrt(n: int) -> int:
    """Largest s >= 0 with s*s <= n.  Rejects negative input and non-ints."""
    _require_int(n, "isqrt")
    if n < 0:
        raise DomainError("isqrt: argument must be >= 0, got %d" % n)
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    """True when n is the square of an integer (0 counts).  Rejects non-ints."""
    _require_int(n, "is_perfect_square")
    if n < 0:
        return False
    s = math.isqrt(n)
    return s * s == n


# Trial divisors never exceed this, so a split makes at most ~700,000
# divisions; every n < 2**63 still splits, its cube root being below it.
_TRIAL_DIVISION_LIMIT = 1 << 21


# The magnitudes of one proportion share a field, so builds ask for the
# same few radicands over and over: the last 32 splits are remembered.
# typed=True keeps an equal bool, float or Fraction from reading an int's
# split.  Errors are not cached; __wrapped__ is the uncached split.
@functools.lru_cache(maxsize=32, typed=True)
def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*d with d squarefree; return (s, d).

    Trial division by 2, 3 and 6k +/- 1 runs only while f**3 <= n, about
    n**(1/3) / 3 divisions.  What is left then has no prime factor below
    its cube root, hence at most two prime factors: it is 1, p, p*q or
    p*p, and an integer square root tells p*p apart.  Divisors stop at
    _TRIAL_DIVISION_LIMIT: a radicand whose remaining cofactor is still
    at least the cube of the next divisor there raises DomainError.
    """
    _require_int(n, "square_free_split")
    if n < 1:
        raise DomainError("square_free_split: argument must be >= 1, got %d" % n)
    radicand = n
    s = 1
    d = 1
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    # remaining prime factors are of the form 6k +/- 1
    f = 5
    step = 2
    while f * f * f <= n:
        if f > _TRIAL_DIVISION_LIMIT:
            raise DomainError(
                "square_free_split: radicand %d cannot be split by trial division "
                "below %d" % (radicand, _TRIAL_DIVISION_LIMIT)
            )
        if n % f == 0:  # the exponent is sought only for a divisor
            n //= f
            e = 1
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += step
        step = 6 - step
    r = math.isqrt(n)
    if r * r == n:  # p*p (or 1)
        s *= r
    else:  # p or p*q with p != q
        d *= n
    return s, d


class QuadSurd(Frozen):
    """The real number (u + v*sqrt(d)) / w, normalized on construction.

    Normal form: w >= 1, gcd(u, v, w) == 1, d squarefree, and d == 1
    exactly when v == 0 (the rational case).  Because the normal form is
    unique, comparing and hashing the four components coincide with
    equality of the real numbers represented.

    The radicand a caller supplies is split here, by square_free_split,
    which remembers its last 32 radicands, so the values of one field
    built in a row factor it once.  Arithmetic results (``+ - * /``,
    ``inverse``, negation, and through them ``decimal``) inherit the
    operands' normalized radicand and are never factored again.
    ``sign``, ``floor`` and comparisons are integer arithmetic on the
    stored components and never factor either.

    A value is checked once, where it enters.  The public constructor
    checks the type of each component (one exact ``int`` test each, a
    full check only for anything else) and the radicand.  A value the
    library builds from values already checked goes through
    ``_in_field``, which only normalizes.  An operand of ``+ - * /``, a
    comparison or ``==`` that is a ``QuadSurd`` (or a subclass) is used
    as it is.  ``_foreign`` takes any other operand, the reflected
    ``-`` and ``/`` included: it coerces an int or a Fraction through
    ``_coerce`` and calls the operator again, and gives NotImplemented
    for anything else, a bool included (a comparison reads an int
    directly).  ``_coerce``, a module function, gives the operand as a
    ``QuadSurd`` or None; only ``_foreign``, ``as_surd`` and
    ``_rational`` call it.  Only operands of two different
    radicands (one of them rational, or two fields, which is an error)
    go through ``_join_field``.
    """

    __slots__ = _fields = ("u", "v", "w", "d")

    def __init__(self, u: int, v: int = 0, w: int = 1, d: int = 1) -> None:
        self.__post_init__(u, v, w, d)

    def __post_init__(self, u: int, v: int, w: int, d: int) -> None:
        """The public constructor's checks and its one factoring of d.

        A method of its own so that bench/tracer.py can count public
        constructions apart from arithmetic results.
        """
        if not (type(u) is int and type(v) is int and type(w) is int and type(d) is int):
            # an int subclass passes, a bool or anything else is refused
            for name, x in (("u", u), ("v", v), ("w", w), ("d", d)):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise DomainError("QuadSurd: component %s must be an int" % name)
        if v != 0 and w != 0:  # _settle refuses w == 0 before any radicand check
            if d <= 0:
                raise DomainError("QuadSurd: radicand d must be >= 1, got %d" % d)
            s, d = square_free_split(d)
            v *= s
            if d == 1:  # radicand was a perfect square: fold into u
                u += v
                v = 0
        _settle(self, u, v, w, d)

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    # -- field bookkeeping ----------------------------------------------

    def _join_field(self, other: "QuadSurd") -> int:
        """Common radicand of self and other, whose radicands differ.

        A rational value joins the other's field; two irrational values
        lie in distinct fields, a DomainError.
        """
        if self.v == 0:
            return other.d
        if other.v == 0:
            return self.d
        raise DomainError(
            "values lie in distinct quadratic fields (sqrt(%d) vs sqrt(%d))"
            % (self.d, other.d)
        )

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "QuadSurd":
        return _in_field(-self.u, -self.v, self.w, self.d)

    def __add__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__add__, self, other)
        d = self.d
        if d != other.d:
            d = self._join_field(other)
        return _in_field(
            self.u * other.w + other.u * self.w,
            self.v * other.w + other.v * self.w,
            self.w * other.w,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__sub__, self, other)
        d = self.d
        if d != other.d:
            d = self._join_field(other)
        return _in_field(
            self.u * other.w - other.u * self.w,
            self.v * other.w - other.v * self.w,
            self.w * other.w,
            d,
        )

    def __rsub__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__rsub__, self, other)
        return other.__sub__(self)

    def __mul__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__mul__, self, other)
        d = self.d
        if d != other.d:
            d = self._join_field(other)
        return _in_field(
            self.u * other.u + self.v * other.v * d,
            self.u * other.v + self.v * other.u,
            self.w * other.w,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        """Multiplicative inverse, 1 / self.  Zero has none."""
        return _ONE.__truediv__(self)

    def __truediv__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__truediv__, self, other)
        d = self.d
        if d != other.d:
            d = self._join_field(other)  # the field message comes before "zero"
        c, e = other.u, other.v
        if c == 0 and e == 0:
            raise DomainError("inverse: value is zero")
        # ((a + b*sqrt(d))/p) / ((c + e*sqrt(d))/q)
        #     = q*(a + b*sqrt(d))*(c - e*sqrt(d)) / (p*(c^2 - e^2*d)),
        # normalized once where self * other.inverse() normalizes twice; the
        # norm c^2 - e^2*d vanishes only at zero, d not being a square
        return _in_field(
            other.w * (self.u * c - self.v * e * d),
            other.w * (self.v * c - self.u * e),
            self.w * (c * c - e * e * d),
            d,
        )

    def __rtruediv__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__rtruediv__, self, other)
        return other.__truediv__(self)

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        """Sign of the represented real: -1, 0 or +1.  Integer-only."""
        return _sign(self.u, self.v, self.d)  # w > 0 cannot affect the sign

    def _cmp(self, other: QuadSurd | Fraction | int) -> int:
        """Sign of self - other, from the numerator of the difference alone."""
        if not isinstance(other, QuadSurd):
            if type(other) is int:  # x > 0, x > 1: nothing to coerce
                return _sign(self.u - other * self.w, self.v, self.d)
            return _foreign(QuadSurd._cmp, self, other)
        d = self.d
        if d != other.d:
            d = self._join_field(other)
        return _sign(self.u * other.w - other.u * self.w,
                     self.v * other.w - other.v * self.w, d)

    def __lt__(self, other: QuadSurd | Fraction | int) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other: QuadSurd | Fraction | int) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other: QuadSurd | Fraction | int) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other: QuadSurd | Fraction | int) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadSurd):
            return _foreign(QuadSurd.__eq__, self, other)
        return (self.u == other.u and self.v == other.v
                and self.w == other.w and self.d == other.d)

    def __hash__(self) -> int:
        if self.v == 0:  # the hash of the equal int or Fraction, by Python's recipe
            try:
                h = hash(hash(abs(self.u)) * pow(self.w, -1, sys.hash_info.modulus))
            except ValueError:  # w has no inverse modulo the hash modulus
                h = sys.hash_info.inf
            return h if self.u >= 0 else -h  # hash() turns a -1 into -2
        return hash((self.u, self.v, self.w, self.d))

    def floor(self) -> int:
        """Exact integer floor, read off one integer square root.

        For v != 0, d is squarefree and > 1, so v*v*d is not a square and
        |v|*sqrt(d) = r + t with r = isqrt(v*v*d) and 0 < t < 1.  Then
        floor((u + r + t)/w) = (u + r) // w and floor((u - r - t)/w) =
        (u - r - 1) // w: an integer plus a fraction in (0, 1) never
        reaches the next multiple of w >= 1.
        """
        if self.v == 0:
            return self.u // self.w
        r = math.isqrt(self.v * self.v * self.d)
        if self.v > 0:
            return (self.u + r) // self.w
        return (self.u - r - 1) // self.w

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self.v == 0:  # as str(Fraction) prints it
            return str(self.u) if self.w == 1 else "%d/%d" % (self.u, self.w)
        if self.v == 1:
            radical = "sqrt(%d)" % self.d
        elif self.v == -1:
            radical = "-sqrt(%d)" % self.d
        else:
            radical = "%d*sqrt(%d)" % (self.v, self.d)
        if self.u == 0:
            core = radical
        elif self.v > 0:
            core = "%d + %s" % (self.u, radical.lstrip("-"))
        else:
            core = "%d - %s" % (self.u, radical.lstrip("-"))
        if self.w == 1:
            return core
        return "(%s)/%d" % (core, self.w)

    def decimal(self) -> str:
        """The value rounded down to six decimals, for reports; display only."""
        n = (self * 1_000_000).floor()
        sign = "-" if n < 0 else ""
        q, r = divmod(abs(n), 1_000_000)
        return "%s%d.%06d" % (sign, q, r)


_gcd = math.gcd
_set_u, _set_v, _set_w, _set_d = QuadSurd._setters


def _settle(x: QuadSurd, u: int, v: int, w: int, d: int) -> None:
    """Store in x the normal form of (u + v*sqrt(d))/w, d squarefree."""
    if w == 0:
        raise DomainError("QuadSurd: denominator w must be nonzero")
    if v == 0:
        d = 1
    if w < 0:
        u, v, w = -u, -v, -w
    g = _gcd(u, v, w)  # w when u == v == 0, so zero is stored as 0/1
    if g > 1:
        u, v, w = u // g, v // g, w // g
    _set_u(x, u)
    _set_v(x, v)
    _set_w(x, w)
    _set_d(x, d)


def _in_field(u: int, v: int, w: int, d: int) -> QuadSurd:
    """(u + v*sqrt(d))/w in normal form, for a d that is already squarefree.

    Every normalization step of the public constructor (the shared
    _settle) but its type checks and the factoring of d: arithmetic on
    normalized operands stays in their field, and a coerced Fraction is
    rational (a coerced int skips it: n/1 is in normal form as it is).
    Its callers pass ints computed from checked values, so no component
    is checked again.
    """
    x = _new(QuadSurd)
    _settle(x, u, v, w, d)
    return x


_ONE = _in_field(1, 0, 1, 1)


def _coerce(x: object) -> QuadSurd | None:
    """x itself, an int or a Fraction as a rational QuadSurd, else None (a bool too)."""
    if isinstance(x, QuadSurd):
        return x
    if isinstance(x, int):
        if isinstance(x, bool):
            return None
        # n/1 is in normal form: _settle's checks would all do nothing
        r = _new(QuadSurd)
        _set_u(r, x)
        _set_v(r, 0)
        _set_w(r, 1)
        _set_d(r, 1)
        return r
    if _is_fraction(x):
        return _in_field(x.numerator, 0, x.denominator, 1)
    return None


def _foreign(op: Callable, x: QuadSurd, other: object) -> object:
    """op(x, other) for an operand other that is not a QuadSurd.

    The one place an operator coerces: an int or a Fraction becomes a
    rational QuadSurd through _coerce, anything else (a bool included)
    gives NotImplemented, so Python tries the other operand's method.
    """
    o = _coerce(other)
    return NotImplemented if o is None else op(x, o)


def _sign(u: int, v: int, d: int) -> int:
    """Sign of u + v*sqrt(d) for squarefree d (d > 1 when v != 0)."""
    if v == 0:
        return 0 if u == 0 else (1 if u > 0 else -1)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # opposite signs: compare u^2 with v^2*d, the sign of the larger wins
    lhs = u * u
    rhs = v * v * d
    if lhs == rhs:  # u^2 = v^2*d is impossible for squarefree d > 1
        raise InternalInvariantError("sign: normalized radicand is a square")
    if lhs > rhs:
        return 1 if u > 0 else -1
    return 1 if v > 0 else -1


def as_surd(x: QuadSurd | Fraction | int) -> QuadSurd:
    """Coerce an int, Fraction or QuadSurd into a QuadSurd."""
    out = _coerce(x)
    if out is None:
        raise DomainError("cannot interpret %r as an exact quadratic value" % (x,))
    return out


def _rational(x: QuadSurd | Fraction | int, caller: str) -> QuadSurd:
    """x as a rational QuadSurd; anything else is a DomainError naming caller."""
    r = _coerce(x)
    if r is None or r.v:
        raise DomainError("%s: argument must be an int, a Fraction or a rational "
                          "QuadSurd, got %r" % (caller, x))
    return r


def rational_sqrt(x: QuadSurd | Fraction | int) -> QuadSurd:
    """Exact square root of a nonnegative int, Fraction or rational QuadSurd."""
    r = _rational(x, "rational_sqrt")
    p, q = r.u, r.w
    if p < 0:
        raise DomainError("rational_sqrt: argument must be >= 0, got %s" % x)
    if p == 0:
        return QuadSurd(0)
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadSurd(0, 1, q, p * q)
