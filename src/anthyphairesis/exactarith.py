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


# The primes below 1000, written out so that importing builds no sieve;
# one gcd with their product finds which of them divide a radicand.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463,
    467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569,
    571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647,
    653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743,
    751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839,
    853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941,
    947, 953, 967, 971, 977, 983, 991, 997,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# a cofactor free of the primes above has no prime factor below 1009
_SQUARE_1009 = 1009 * 1009
_CUBE_1009 = 1009 * 1009 * 1009

# Miller-Rabin bases in order, each with psi_t, the least composite that is
# a strong probable prime to it and to every base before it (Jaeschke 1993;
# Sorenson & Webster 2015): below that bound the bases so far decide.
_MILLER_RABIN = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751),
    (11, 2152302898747), (13, 3474749660383), (17, 341550071728321),
    (19, 341550071728321), (23, 3825123056546413051),
    (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)

# The steps that one split may take over all its cofactors; a split past
# them raises DomainError, so no radicand runs on.  A rho step counts once
# per 128 bits of its cofactor begun, as its arithmetic costs more, and an
# exponentiation as its squarings at that rate, bits * ceil(bits/128)
# steps.  A cofactor with a prime factor p takes some 1.25*sqrt(p) rho
# steps: a smaller prime near 10**9 always splits within them, one near
# 10**10 about half the time, one near 10**11 never.  A prime pays for
# fifteen exponentiations: every prime below 2**1456 (up to 438 digits)
# is found within the budget, a larger one raises.  On CPython 3.11 a
# failing split takes 0.1 s at 31 digits and at most about 0.45 s, near
# 1,700 digits; past 5,760 bits the first exponentiation overdraws it.
_RHO_STEPS = 1 << 18
_RHO_BATCH = 128  # steps whose differences share one gcd


def _countdown(radicand: int) -> Callable[[int], None]:
    """spend(steps) for one split of radicand: past _RHO_STEPS, DomainError."""
    left = _RHO_STEPS

    def spend(steps: int) -> None:
        nonlocal left
        left -= steps
        if left < 0:
            raise DomainError(
                "square_free_split: radicand %d has a factor that %d Pollard rho "
                "steps do not split" % (radicand, _RHO_STEPS)
            )

    return spend


def _pow_steps(n: int) -> int:
    """The steps charged for one exponentiation modulo n, as rho pays its squarings."""
    bits = n.bit_length()
    return bits * ((bits + 127) >> 7)


def _is_probable_prime(n: int, spend: Callable[[int], None] | None = None) -> bool:
    """Whether n, odd and above 1009**2 and not a square, is prime.

    Miller-Rabin to the prime bases 2 to 41 decides every n below
    psi_13 = 3317044064679887385961981, stopping at the first base whose
    psi_t exceeds n.  From psi_13 up a strong Lucas test follows, which
    makes the test Baillie-PSW: no composite is known to pass it, but its
    answer there is probable, not proven.  Each base is charged to spend
    before its exponentiation runs, and the Lucas test as two; without a
    spend the test has a split's budget of its own.
    """
    if spend is None:
        spend = _countdown(n)
    cost = _pow_steps(n)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in _MILLER_RABIN:
        spend(cost)
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    spend(2 * cost)
    return _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd n > 1009 not a square.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  Writing n + 1 = k * 2**s with k odd, n
    passes when U_k = 0 or V_(k*2**r) = 0 (mod n) for some 0 <= r < s.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U_1 = 1, V_1 = P = 1; double for each bit of k below its top one,
    # then step by one for a set bit
    u, v, qk = 1, 1, Q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = (u >> 1) % n, (v >> 1) % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _rho_divisor(n: int, spend: Callable[[int], None]) -> int:
    """A proper divisor of the composite n, odd and not a square.

    A prime power p**k goes first: p - 1 divides n - 1, so 2**(n-1) = 1
    modulo p by Fermat, but not modulo p*p unless p is a Wieferich prime
    to base 2, so one gcd of 2**(n-1) - 1 with n splits it.  (Only 1093
    and 3511 are known; their squares are below 1009**3, and their higher
    powers are not 1 modulo p**3.)  Then
    Pollard's rho in Brent's form (Pollard 1975; Brent 1980): y walks
    y -> y*y + c from y = 2, and the gcd of the product of _RHO_BATCH
    differences x - y with n catches a cycle modulo an unknown prime
    factor.  A walk that meets n itself goes back one step at a time, and
    past that tries the next c: c = 1, 2, 3, ..., so a split is the same
    on every run.  The exponentiation and every step are charged to spend
    before they run, a step once per 128 bits of n begun, so a walk that
    finds no divisor ends in the DomainError that spend raises.
    """
    spend(_pow_steps(n))
    g = _gcd(pow(2, n - 1, n) - 1, n)
    if 1 < g < n:
        return g
    cost = (n.bit_length() + 127) >> 7
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r * cost)
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - done)
                spend(batch * cost)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = _gcd(q, n)
                done += batch
            r *= 2
        if g == n:  # the batch met n: find the first step that did
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = _gcd(x - ys, n)
        if g != n:
            return g


# The magnitudes of one proportion share a field, so builds ask for the
# same few radicands over and over: the last 32 splits are remembered.
# typed=True keeps an equal bool, float or Fraction from reading an int's
# split.  Errors are not cached; __wrapped__ is the uncached split.
@functools.lru_cache(maxsize=32, typed=True)
def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*d with d squarefree; return (s, d).

    One gcd with the product of the primes below 1000 finds which of them
    divide n, and only those are divided out.  What is left, m, has no
    prime factor below 1009.  Below 1009**3 it is 1, p, p*q or p*p, and an
    integer square root tells p*p apart.  A larger m is taken apart into
    primes: squares by isqrt, primes by Miller-Rabin (Baillie-PSW, a
    probable answer, from 3.3*10**24 up), prime powers and other
    composites by _rho_divisor.  Every test, exponentiation and rho step
    is charged to one countdown of _RHO_STEPS, so the cost follows the
    second largest prime factor of m and, past a few hundred digits, the
    size of m; a radicand the budget does not split raises DomainError.
    """
    _require_int(n, "square_free_split")
    if n < 1:
        raise DomainError("square_free_split: argument must be >= 1, got %d" % n)
    m = n
    s = d = 1
    g = _gcd(m, _SMALL_PRODUCT)
    if g > 1:
        for p in _SMALL_PRIMES:
            if p * p > g:  # g is squarefree: what is left of it is 1 or a prime
                break
            if g % p == 0:
                g //= p
                m, s, d = _divide_out(m, s, d, p)
        if g > 1:
            m, s, d = _divide_out(m, s, d, g)
    if m < _CUBE_1009:
        r = math.isqrt(m)
        if r * r == m:  # p*p (or 1)
            s *= r
        else:  # p or p*q with p != q
            d *= m
        return s, d
    spend = _countdown(n)
    powers: dict[int, int] = {}
    todo = [(m, 1)]
    while todo:
        m, k = todo.pop()
        r = math.isqrt(m)
        if r * r == m:
            todo.append((r, 2 * k))
        elif m < _SQUARE_1009 or _is_probable_prime(m, spend):
            powers[m] = powers.get(m, 0) + k
        else:
            f = _rho_divisor(m, spend)
            todo.append((f, k))
            todo.append((m // f, k))
    for p, e in powers.items():
        s *= p ** (e >> 1)
        if e & 1:
            d *= p
    return s, d


def _divide_out(m: int, s: int, d: int, p: int) -> tuple[int, int, int]:
    """m without its factors p, which divides it, and s and d with them counted."""
    m //= p
    e = 1
    while m % p == 0:
        m //= p
        e += 1
    s *= p ** (e >> 1)
    if e & 1:
        d *= p
    return m, s, d


class QuadSurd(Frozen):
    """The real number (u + v*sqrt(d)) / w, normalized on construction.

    Normal form: w >= 1, gcd(u, v, w) == 1, d squarefree, and d == 1
    exactly when v == 0 (the rational case).  Because the normal form is
    unique, comparing and hashing the four components coincide with
    equality of the real numbers represented.

    The radicand a caller supplies is split here, by square_free_split,
    which remembers its last 32 radicands, so the values of one field
    built in a row factor it once.  A split strips the primes below 1000
    with one gcd; past that its cost follows the radicand's second
    largest prime factor, and a radicand that outruns the split's one
    budget raises DomainError.  Arithmetic results (``+ - * /``,
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
