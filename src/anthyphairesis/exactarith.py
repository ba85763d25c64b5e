"""Exact arithmetic in real quadratic fields.

Every value is ``(u + v*sqrt(d)) / w`` with arbitrary-precision integers
``u, v, w`` and a squarefree radicand ``d``.  Rationals are the ``v == 0``
case.  Nothing in this module touches floating point: signs, floors and
comparisons are decided by integer case analysis only, so results stay
exact no matter how large the components grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, InternalInvariantError

Numeric = Union["QuadSurd", Fraction, int]


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


@dataclass(frozen=True)
class QuadSurd:
    """The real number (u + v*sqrt(d)) / w, normalized on construction.

    Normal form: w >= 1, gcd(u, v, w) == 1, d squarefree, and d == 1
    exactly when v == 0 (the rational case).  Because the normal form is
    unique, dataclass equality and hashing coincide with equality of the
    real numbers represented.

    The radicand a caller supplies is factored once, here.  Arithmetic
    results (``+ - * /``, ``inverse``, negation, and through them
    ``floor``, comparisons and ``decimal``) inherit the operands'
    normalized radicand and are never factored again.
    """

    u: int
    v: int = 0
    w: int = 1
    d: int = 1

    def __post_init__(self) -> None:
        u, v, w, d = self.u, self.v, self.w, self.d
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
        x = object.__new__(cls)
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
        g = math.gcd(math.gcd(u, v), w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        if u == 0 and v == 0:
            w = 1
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "d", d)

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
        return Fraction(self.u, self.w)

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
    def _coerce(x: Numeric) -> "QuadSurd":
        if isinstance(x, QuadSurd):
            return x
        if isinstance(x, bool):
            return NotImplemented  # type: ignore[return-value]
        if isinstance(x, int):
            return QuadSurd._in_field(x, 0, 1, 1)
        if isinstance(x, Fraction):
            return QuadSurd._in_field(x.numerator, 0, x.denominator, 1)
        return NotImplemented  # type: ignore[return-value]

    def __neg__(self) -> "QuadSurd":
        return QuadSurd._in_field(-self.u, -self.v, self.w, self.d)

    def __add__(self, other: Numeric) -> "QuadSurd":
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

    def __sub__(self, other: Numeric) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other: Numeric) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other: Numeric) -> "QuadSurd":
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

    def __truediv__(self, other: Numeric) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self._join_field(o)  # fail early with the field message, not "zero"
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other: Numeric) -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        """Sign of the represented real: -1, 0 or +1.  Integer-only."""
        return _sign(self.u, self.v, self.d)  # w > 0 cannot affect the sign

    def _cmp(self, other: Numeric) -> int:
        """Sign of self - other, from the numerator of the difference alone."""
        if type(other) is int:  # x > 0, x > 1: nothing to coerce
            return _sign(self.u - other * self.w, self.v, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        d = self._join_field(o)
        return _sign(self.u * o.w - o.u * self.w, self.v * o.w - o.v * self.w, d)

    def __lt__(self, other: Numeric) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other: Numeric) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other: Numeric) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other: Numeric) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            o = self._coerce(other)
            return (self.u, self.v, self.w, self.d) == (o.u, o.v, o.w, o.d)
        if isinstance(other, QuadSurd):
            return (self.u, self.v, self.w, self.d) == (
                other.u,
                other.v,
                other.w,
                other.d,
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(Fraction(self.u, self.w))
        return hash((self.u, self.v, self.w, self.d))

    def floor(self) -> int:
        """Exact integer floor, via verified candidate adjustment.

        A candidate is read off from an integer square root, then moved
        until both defining inequalities f <= x < f + 1 are certified by
        exact sign tests.  The loop runs at most a couple of times.
        """
        if self.v == 0:
            return self.u // self.w
        # first guess: floor((u + v*floor-ish(sqrt(d)))/w)
        root = isqrt(self.v * self.v * self.d)
        if self.v < 0:
            root = -(root + 1)
        f = (self.u + root) // self.w
        while self._cmp(f) < 0:
            f -= 1
        while self._cmp(f + 1) >= 0:
            f += 1
        return f

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return str(Fraction(self.u, self.w))
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


def as_surd(x: Numeric) -> QuadSurd:
    """Coerce an int, Fraction or QuadSurd into a QuadSurd."""
    out = QuadSurd._coerce(x)
    if out is NotImplemented:
        raise DomainError("cannot interpret %r as an exact quadratic value" % (x,))
    return out


def rational_sqrt(x: Union[Fraction, int]) -> QuadSurd:
    """Exact square root of a nonnegative rational, as a QuadSurd."""
    fr = Fraction(x)
    if fr < 0:
        raise DomainError("rational_sqrt: argument must be >= 0, got %s" % fr)
    if fr == 0:
        return QuadSurd(0)
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadSurd(0, 1, fr.denominator, fr.numerator * fr.denominator)


def surd_sign(x: Numeric) -> int:
    """Sign of an exact value: -1, 0 or +1."""
    return as_surd(x).sign()


def surd_floor(x: Numeric) -> int:
    """Exact floor of an exact value."""
    return as_surd(x).floor()
