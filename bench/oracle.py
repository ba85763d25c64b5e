"""Independent expansion oracle for the benchmark.

A plain integer PQa recurrence for (P + sqrt(D)) / Q and Euclid's
algorithm for rationals.  It shares no code with the package under
test: the benchmark uses it, outside every timed region, to produce the
answer each operation must return.

An expansion is a pair ``(preperiod, period)`` of int tuples, with
``period`` None for a finite expansion.  The recurrence stops at the
first repeated state (P, Q); since distinct states are distinct
complete quotients, that gives the shortest preperiod and the primitive
period, which is the canonical form the package reports.
"""

from __future__ import annotations

import math

Expansion = tuple  # (preperiod: tuple[int, ...], period: tuple[int, ...] | None)


class TooLong(Exception):
    """The expansion has more quotients than the caller allowed."""


def expand_rational(m: int, n: int) -> Expansion:
    """Finite expansion of m : n (m >= 0, n >= 1) by Euclid's algorithm."""
    if m < 0 or n < 1:
        raise ValueError("expand_rational needs m >= 0 and n >= 1")
    qs = []
    while n:
        k, r = divmod(m, n)
        qs.append(k)
        m, n = n, r
    return tuple(qs), None


def expand_pqd(p: int, q: int, d: int, limit: int = 10**6) -> Expansion:
    """Expansion of (p + sqrt(d)) / q for a non-square d >= 2, q != 0.

    Raises TooLong when more than ``limit`` quotients would be needed.
    """
    if q == 0 or d < 2 or math.isqrt(d) ** 2 == d:
        raise ValueError("expand_pqd needs q != 0 and a non-square d")
    if (d - p * p) % q:
        # scale so that q divides d - p^2, as the recurrence requires
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    r = math.isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    qs: list[int] = []
    while (p, q) not in seen:
        if len(qs) >= limit:
            raise TooLong(limit)
        seen[(p, q)] = len(qs)
        a = (p + r + (1 if q < 0 else 0)) // q
        qs.append(a)
        p = a * q - p
        q = (d - p * p) // q
    i = seen[(p, q)]
    return tuple(qs[:i]), tuple(qs[i:])


def expand_surd(u: int, v: int, w: int, d: int, limit: int = 10**6) -> Expansion:
    """Expansion of the positive value (u + v*sqrt(d)) / w.

    d must be squarefree and > 1 when v != 0; v == 0 is the rational case.
    """
    if w < 0:
        u, v, w = -u, -v, -w
    if v == 0:
        if u <= 0:
            raise ValueError("expand_surd needs a positive value")
        g = math.gcd(u, w)
        return expand_rational(u // g, w // g)
    if v < 0:
        # (u - |v| sqrt d) / w  ==  (-u + |v| sqrt d) / (-w)
        return expand_pqd(-u, -w, v * v * d, limit)
    return expand_pqd(u, w, v * v * d, limit)


def expand_sqrt(n: int, limit: int = 10**6) -> Expansion:
    """Expansion of sqrt(n) : 1.

    The classical shortcut: sqrt(n) = [r; (k1, ..., 2r)], and the period
    closes at the first return of the denominator Q to 1.
    """
    r = math.isqrt(n)
    if r * r == n:
        return (r,), None
    p, q, qs = r, n - r * r, []
    while True:
        if len(qs) + 1 >= limit:
            raise TooLong(limit)
        a = (p + r) // q
        qs.append(a)
        if q == 1:
            return (r,), tuple(qs)
        p = a * q - p
        q = (n - p * p) // q


def sqrt_prefix(n: int, count: int) -> tuple[int, ...]:
    """First ``count`` quotients of sqrt(n) for a non-square n, no period search."""
    r = math.isqrt(n)
    p, q, qs = 0, 1, []
    while len(qs) < count:
        a = (p + r) // q
        qs.append(a)
        p = a * q - p
        q = (n - p * p) // q
    return tuple(qs)


def expand_form(kind: str, a: int, b: int, c: int, limit: int = 10**6) -> Expansion:
    """Expansion of the designated root of an excess or (larger-root) defect form."""
    if kind == "excess":
        return expand_pqd(b, 2 * a, b * b + 4 * a * c, limit)
    if kind == "defect":
        return expand_pqd(b, 2 * a, b * b - 4 * a * c, limit)
    raise ValueError("unknown form kind %r" % (kind,))


def length(exp: Expansion) -> int:
    pre, per = exp
    return len(pre) + (len(per) if per else 0)


def head(exp: Expansion, n: int) -> tuple[int, ...]:
    """First n quotients, unrolling the period."""
    pre, per = exp
    out = list(pre[:n])
    i = 0
    while len(out) < n and per:
        out.append(per[i % len(per)])
        i += 1
    return tuple(out)


def render(exp: Expansion) -> str:
    """The package's printed form of an expansion, e.g. ``[1; (2)]``."""
    pre, per = exp
    head_text = ", ".join(str(k) for k in pre)
    if per is None:
        return "[%s]" % head_text
    per_text = ", ".join(str(k) for k in per)
    if pre:
        return "[%s; (%s)]" % (head_text, per_text)
    return "[(%s)]" % per_text


def convergent_rows(quotients, count: int) -> list[tuple[int, int]]:
    """Rows (p_n, q_n), n = 0..count, seeded p0 = 0, p1 = 1, q0 = 1, q1 = k0."""
    p = [0, 1]
    q = [1, quotients[0]]
    for i in range(2, count + 1):
        p.append(quotients[i - 1] * p[-1] + p[-2])
        q.append(quotients[i - 1] * q[-1] + q[-2])
    return list(zip(p[: count + 1], q[: count + 1]))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- exact values (u + v*sqrt(d)) / w of one field, as plain int tuples ------


def s_gt_one(x, d) -> bool:
    """(u + v*sqrt(d)) / w > 1 for w > 0 and v >= 0."""
    u, v, w = x
    return w - u < 0 or v * v * d > (w - u) ** 2


def s_mul(x, y, d):
    (u1, v1, w1), (u2, v2, w2) = x, y
    u, v, w = u1 * u2 + v1 * v2 * d, u1 * v2 + u2 * v1, w1 * w2
    return (-u, -v, -w) if w < 0 else (u, v, w)


def s_div(x, y, d):
    u2, v2, w2 = y
    norm = u2 * u2 - v2 * v2 * d
    return s_mul(x, (w2 * u2, -w2 * v2, norm), d)


def s_add(x, y):
    (u1, v1, w1), (u2, v2, w2) = x, y
    u, v, w = u1 * w2 + u2 * w1, v1 * w2 + v2 * w1, w1 * w2
    return (-u, -v, -w) if w < 0 else (u, v, w)


def s_eq(x, y):
    (u1, v1, w1), (u2, v2, w2) = x, y
    return u1 * w2 == u2 * w1 and v1 * w2 == v2 * w1


def ratio_expansion(x, y, d, limit: int = 10**6) -> Expansion:
    """Expansion of x : y for positive x, y of the field of sqrt(d)."""
    u, v, w = s_div(x, y, d)
    return expand_surd(u, v, w, d, limit)
