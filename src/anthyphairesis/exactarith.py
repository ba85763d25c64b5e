"""Exact arithmetic in real quadratic fields.

Every value is ``(u + v*sqrt(d)) / w`` with arbitrary-precision integers
``u, v, w`` and a squarefree radicand ``d``.  Rationals are the ``v == 0``
case.  Nothing in this module touches floating point: signs, floors and
comparisons are decided by integer case analysis only, so results stay
exact no matter how large the components grow.

Rationals stay integer pairs: ``__str__``, ``rational_sqrt`` and the
expansions of rational values read ``u`` and ``w`` and build no
Fraction, so importing the package loads neither ``fractions`` nor the
``decimal`` and ``numbers`` modules it pulls in.  A Fraction is still
accepted wherever an int is, and is recognized without an import: none
can exist before ``fractions`` is loaded, so ``_is_fraction`` looks the
class up in ``sys.modules`` and, once it is there, binds it for every
later test.  Only ``as_fraction``, ``engine.QuadraticForm.root_fraction``
and the hash of a rational value with ``w > 1`` build a Fraction; each
imports the module on first use, through ``_fraction``.
"""

from __future__ import annotations

import functools
import math
import sys

from ._value import Frozen
from .errors import DomainError, InternalInvariantError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions is not imported at run time
    from fractions import Fraction

# (Fraction,) once the fractions module is loaded and seen, () before:
# isinstance(x, ()) is False, as it must be while no Fraction exists
_fraction_types: tuple[type, ...] = ()


def _is_fraction(x: object) -> bool:
    """Whether x is a Fraction, read without importing fractions."""
    global _fraction_types
    if isinstance(x, _fraction_types):
        return True
    cls = getattr(sys.modules.get("fractions"), "Fraction", None)
    if cls is None or _fraction_types == (cls,):
        return False
    _fraction_types = (cls,)
    return isinstance(x, cls)


def _fraction() -> type[Fraction]:
    """The Fraction class, importing fractions on first use."""
    global _fraction_types
    if not _fraction_types:
        from fractions import Fraction

        _fraction_types = (Fraction,)
    return _fraction_types[0]


def isqrt(n: int) -> int:
    """Largest s >= 0 with s*s <= n.  Rejects negative input."""
    if n < 0:
        raise DomainError("isqrt: argument must be >= 0, got %d" % n)
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    """True when n is the square of an integer (0 counts)."""
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
        e = 0
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
    library builds from values already checked goes through ``_in_field``,
    which only normalizes.
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
        self._settle(u, v, w, d)

    @classmethod
    def _in_field(cls, u: int, v: int, w: int, d: int) -> "QuadSurd":
        """(u + v*sqrt(d))/w in normal form, for a d that is already squarefree.

        Every normalization step but the factoring of d: arithmetic on
        normalized operands stays in their field.
        """
        x = _new(cls)
        x._settle(u, v, w, d)
        return x

    def _settle(self, u: int, v: int, w: int, d: int) -> None:
        """Store the normal form of (u + v*sqrt(d))/w, d squarefree."""
        if w == 0:
            raise DomainError("QuadSurd: denominator w must be nonzero")
        if v == 0:
            d = 1
        if w < 0:
            u, v, w = -u, -v, -w
        g = math.gcd(u, v, w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        if u == 0 and v == 0:
            w = 1
        _set_u(self, u)
        _set_v(self, v)
        _set_w(self, w)
        _set_d(self, d)

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError("as_fraction: value is irrational")
        return _fraction()(self.u, self.w)

    # -- field bookkeeping ----------------------------------------------

    def _join_field(self, other: "QuadSurd") -> int:
        """Common radicand for self and other, or DomainError."""
        if self.v == 0:
            return other.d
        if other.v == 0:
            return self.d
        if self.d != other.d:
            raise DomainError(
                "values lie in distinct quadratic fields (sqrt(%d) vs sqrt(%d))"
                % (self.d, other.d)
            )
        return self.d

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x: QuadSurd | Fraction | int) -> QuadSurd:
        if isinstance(x, QuadSurd):
            return x
        if isinstance(x, int):
            if isinstance(x, bool):
                return NotImplemented  # type: ignore[return-value]
            return QuadSurd._in_field(x, 0, 1, 1)
        # the bound class first: verify coerces a Fraction on every op
        if isinstance(x, _fraction_types) or _is_fraction(x):
            return QuadSurd._in_field(x.numerator, 0, x.denominator, 1)
        return NotImplemented  # type: ignore[return-value]

    def __neg__(self) -> "QuadSurd":
        return QuadSurd._in_field(-self.u, -self.v, self.w, self.d)

    def __add__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_field(o)
        return QuadSurd._in_field(
            self.u * o.w + o.u * self.w,
            self.v * o.w + o.v * self.w,
            self.w * o.w,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_field(o)
        return QuadSurd._in_field(
            self.u * o.u + self.v * o.v * d,
            self.u * o.v + self.v * o.u,
            self.w * o.w,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        """Multiplicative inverse.  Zero has none."""
        if self.is_zero:
            raise DomainError("inverse: value is zero")
        # 1/((u + v*sqrt(d))/w) = w*(u - v*sqrt(d)) / (u^2 - v^2*d);
        # the norm vanishes only at zero because d is not a square.
        norm = self.u * self.u - self.v * self.v * self.d
        return QuadSurd._in_field(self.w * self.u, -self.w * self.v, norm, self.d)

    def __truediv__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_field(o)  # the field message comes before "zero"
        c, e = o.u, o.v
        if c == 0 and e == 0:
            raise DomainError("inverse: value is zero")
        # ((a + b*sqrt(d))/p) / ((c + e*sqrt(d))/q)
        #     = q*(a + b*sqrt(d))*(c - e*sqrt(d)) / (p*(c^2 - e^2*d)),
        # normalized once where self * o.inverse() normalizes twice; the
        # norm c^2 - e^2*d vanishes only at zero, d not being a square
        return QuadSurd._in_field(
            o.w * (self.u * c - self.v * e * d),
            o.w * (self.v * c - self.u * e),
            self.w * (c * c - e * e * d),
            d,
        )

    def __rtruediv__(self, other: QuadSurd | Fraction | int) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        """Sign of the represented real: -1, 0 or +1.  Integer-only."""
        return _sign(self.u, self.v, self.d)  # w > 0 cannot affect the sign

    def _cmp(self, other: QuadSurd | Fraction | int) -> int:
        """Sign of self - other, from the numerator of the difference alone."""
        if type(other) is int:  # x > 0, x > 1: nothing to coerce
            return _sign(self.u - other * self.w, self.v, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        d = self._join_field(o)
        return _sign(self.u * o.w - o.u * self.w, self.v * o.w - o.v * self.w, d)

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
        o = self._coerce(other)  # type: ignore[arg-type]
        if o is NotImplemented:
            return NotImplemented
        return (self.u, self.v, self.w, self.d) == (o.u, o.v, o.w, o.d)

    def __hash__(self) -> int:
        if self.v == 0:  # the hash of the equal int or Fraction
            return hash(self.u) if self.w == 1 else hash(_fraction()(self.u, self.w))
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
        r = isqrt(self.v * self.v * self.d)
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

    def decimal(self, places: int = 6) -> str:
        """Approximate decimal rendering for reports; display only."""
        scale = 10**places
        n = (self * scale).floor()
        sign = "-" if n < 0 else ""
        q, r = divmod(abs(n), scale)
        return "%s%d.%0*d" % (sign, q, places, r)


_new = object.__new__
# the slots' own setters store a field past the refusing __setattr__, and
# are quicker than object.__setattr__ on the arithmetic path
_set_u, _set_v, _set_w, _set_d = (QuadSurd.__dict__[n].__set__ for n in QuadSurd._fields)


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
    out = QuadSurd._coerce(x)
    if out is NotImplemented:
        raise DomainError("cannot interpret %r as an exact quadratic value" % (x,))
    return out


def rational_sqrt(x: Fraction | int) -> QuadSurd:
    """Exact square root of a nonnegative int or Fraction, as a QuadSurd."""
    if isinstance(x, int) and not isinstance(x, bool):
        p, q = x, 1
    elif _is_fraction(x):
        p, q = x.numerator, x.denominator
    else:
        raise DomainError(
            "rational_sqrt: argument must be an int or a Fraction, got %r" % (x,)
        )
    if p < 0:
        raise DomainError("rational_sqrt: argument must be >= 0, got %s" % x)
    if p == 0:
        return QuadSurd(0)
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadSurd(0, 1, q, p * q)
