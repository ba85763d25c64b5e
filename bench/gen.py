"""Seeded input generation for the four workloads.

``generate(workload, seed)`` returns plain JSON data: the operations the
program is asked to perform (``ops``) and, for each, the answer the
benchmark's own oracle expects (``expect``).  The same seed gives
byte-identical data.

Every workload is built from fixed-composition blocks: each block holds
one operation per cost stratum (expansion-length band, field band,
orientation, command form), in a seeded order, with seeded values.  A
run covers many blocks, so the mix of cheap and expensive operations is
the same on every seed and the run-to-run spread comes from the program,
not from the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import oracle as orc

WORKLOADS = ("sqrt_expand", "ratio_verdicts", "verify_suites", "cli_session")

# Step budget handed to the engine in sqrt_expand: above every accepted length.
SQRT_MAX_STEPS = 50_000
# Expansion-length bands of sqrt_expand: 14 equal log-width bands over [2, 19000).
SQRT_BANDS = [2 * (9500 ** (i / 14)) for i in range(15)]
SQRT_DEFECT_SLOTS = 2  # slots per block given a defect form instead of sqrt(N)
SQRT_BLOCKS = 112

# ratio_verdicts: six half-decade bands of prime radicands over [10^4, 10^7).
RATIO_D_BANDS = [(10 ** (4 + i / 2), 10 ** (4.5 + i / 2)) for i in range(6)]
RATIO_LEN = (64, 192)  # accepted expansion length of every ratio used
RATIO_BLOCKS = 56
RATIO_PROPOSITIONS = ("alternando", "plus_unit")

# verify_suites: every property of the three suites, one trial per op.
PROPERTIES = [
    ("engine", n) for n in (
        "disc_invariance", "pigeonhole_recurrence", "quotients_positive",
        "defect_reaches_excess", "determinant_alternates", "remainder_recurrence",
        "oracle_agreement", "period_roundtrip", "pell_identity", "rational_fallback",
    )
] + [
    ("ratio", n) for n in (
        "fundamental_equivalence", "scaling_invariance", "equivalence_relation",
        "mixed_ratio", "commensurable_routes",
        "check_transitivity", "check_fundamental", "check_v9_cancel",
        "check_alternando", "check_ex_aequali", "check_perturbed",
        "check_componendo_pairs", "check_separando_pairs", "check_plus_unit",
        "check_minus_unit", "check_topics_scaling", "check_area_v9",
        "check_area_alternando", "check_area_ex_aequali",
        "check_area_mixed_ex_aequali", "check_area_perturbed",
        "check_area_mixed_perturbed",
    )
] + [
    ("areas", n) for n in (
        "square_of_sum", "gnomon_within", "gnomon_beyond", "defect_application",
        "excess_application", "mean_proportional_roundtrip", "distributivity",
        "pythagorean_construction",
    )
]
VERIFY_ROUNDS = 640

CLI_BLOCKS = 24
CLI_DEFAULT_STEPS = 10_000  # the CLI's default --max-steps


def digest(pre, per) -> str:
    """Short fingerprint of an expansion, identical on both sides of a check."""
    text = repr((tuple(pre), None if per is None else tuple(per)))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def generate(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    ops, expect, block = globals()["_gen_" + workload](rng)
    return {"workload": workload, "seed": seed, "block": block, "ops": ops, "expect": expect}


def canonical_bytes(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# -- sqrt_expand -------------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _in_band(exp_fn, lo: float, hi: float):
    """Oracle expansion when its length lies in [lo, hi), else None."""
    try:
        exp = exp_fn(int(hi))
    except orc.TooLong:
        return None
    return exp if orc.length(exp) >= lo else None


def _sqrt_slot(rng: random.Random, lo: float, hi: float):
    while True:
        n = _log_uniform(rng, 1e2, 1e10)
        if math.isqrt(n) ** 2 == n:
            continue
        exp = _in_band(lambda lim: orc.expand_sqrt(n, lim), lo, hi)
        if exp is not None:
            return ["sqrt", n], exp


def _defect_slot(rng: random.Random, lo: float, hi: float):
    while True:
        a = rng.randint(1, 30)
        b = _log_uniform(rng, 3, 2e5)
        cmax = (b * b - 1) // (4 * a)
        if cmax < 1:
            continue
        c = rng.randint(1, cmax)
        disc = b * b - 4 * a * c
        if math.isqrt(disc) ** 2 == disc:
            continue
        t = 2 * a - b
        if not (t <= 0 or disc > t * t):  # designated root must exceed 1
            continue
        exp = _in_band(lambda lim: orc.expand_form("defect", a, b, c, lim), lo, hi)
        if exp is not None:
            return ["defect", a, b, c], exp


def _gen_sqrt_expand(rng: random.Random):
    ops, expect = [], []
    nb = len(SQRT_BANDS) - 1
    for _ in range(SQRT_BLOCKS):
        defect = set(rng.sample(range(nb), SQRT_DEFECT_SLOTS))
        for band in rng.sample(range(nb), nb):
            lo, hi = SQRT_BANDS[band], SQRT_BANDS[band + 1]
            slot = _defect_slot if band in defect else _sqrt_slot
            op, exp = slot(rng, lo, hi)
            ops.append(op)
            expect.append(digest(*exp))
    return ops, expect, nb


# -- ratio_verdicts ----------------------------------------------------------


def _prime_in(rng: random.Random, lo: float, hi: float) -> int:
    while True:
        d = _log_uniform(rng, lo, hi)
        if orc.is_prime(d):
            return d


def _small_value(rng: random.Random, d: int, rational_share: float = 0.0):
    """Positive (u, v, w) with small components; irrational unless drawn rational."""
    if rng.random() < rational_share:
        return (rng.randint(1, 9), 0, rng.randint(1, 4))
    return (rng.randint(0, 4), rng.randint(1, 3), rng.randint(1, 3))


def _ratio_value(rng: random.Random, d: int, lens, tries: int = 400):
    """An irrational x > 1 of the field whose expansion length is in lens.

    None when no draw fits: expansion lengths follow the field's
    regulator, so a field either has many short expansions or almost none.
    """
    lo, hi = lens
    for _ in range(tries):
        u, v, w = rng.randint(0, 6), rng.randint(1, 3), rng.randint(1, 4)
        if not orc.s_gt_one((u, v, w), d):
            continue
        exp = _in_band(lambda lim: orc.expand_surd(u, v, w, d, lim), lo, hi)
        if exp is not None:
            return (u, v, w)
    return None


def _field(rng: random.Random, dband, lens) -> int:
    """A prime radicand from dband whose field has expansions of length in lens."""
    while True:
        d = _prime_in(rng, *dband)
        if _ratio_value(rng, d, lens, tries=12) is not None:
            return d


def _mag(x, d):
    return [x[0], x[1], x[2], d]


def _orient(x, gt: bool, d: int):
    """x itself for a > b, else 1/x, so that a = b * ratio."""
    return x if gt else orc.s_div((1, 0, 1), x, d)


def _ratio_op(rng: random.Random, kind: str, d: int, gt: bool, equal: bool,
              lens=RATIO_LEN):
    """One verdict op in the field of sqrt(d), and its expected answer.

    Built so that a = b * x and c = e * x (equal) or c = e * y (unequal),
    then checked against the oracle's expansions; a draw whose oracle
    verdict disagrees with the construction is redrawn.
    """
    while True:
        b = _small_value(rng, d)
        e = _small_value(rng, d, rational_share=0.5)
        x = _ratio_value(rng, d, lens)
        y = x if equal else _ratio_value(rng, d, lens)
        if x is None or y is None:
            raise RuntimeError("field sqrt(%d) has no expansion of length %r" % (d, lens))
        if kind == "mixed":
            m, n = sorted(rng.sample(range(1, 40), 2), reverse=gt)
            a = orc.s_mul(b, (m, 0, n) if equal else _orient(x, gt, d), d)
            truth = orc.ratio_expansion(a, b, d) == orc.expand_rational(m, n)
            op, want = ["mixed", _mag(a, d), _mag(b, d), m, n], truth
        else:
            a = orc.s_mul(b, _orient(x, gt, d), d)
            c = orc.s_mul(e, _orient(y, gt, d), d)
            truth = orc.ratio_expansion(a, b, d) == orc.ratio_expansion(c, e, d)
            mags = [_mag(a, d), _mag(b, d), _mag(c, d), _mag(e, d)]
            if kind == "cross":
                # cross products decide the same proportion exactly
                if truth != orc.s_eq(orc.s_mul(a, e, d), orc.s_mul(b, c, d)):
                    raise AssertionError("oracle and cross products disagree")
                op, want = ["cross"] + mags, truth
            elif kind == "eq":
                op, want = ["eq"] + mags, truth
            else:
                # the conclusion is only evaluated under the hypotheses; its
                # ratios (b : e for alternando) must also stay short, within
                # the package's default step budget and the cost band
                if truth and kind == "alternando":
                    pairs = [(a, c), (b, e)]
                elif truth:  # plus_unit
                    pairs = [(orc.s_add(a, b), b), (orc.s_add(c, e), e)]
                else:
                    pairs = []
                try:
                    sides = [orc.ratio_expansion(p, q, d, 2 * lens[1]) for p, q in pairs]
                except orc.TooLong:
                    continue
                concl = bool(sides) and sides[0] == sides[1]
                if truth and not concl:
                    raise AssertionError("oracle refutes %s" % kind)
                op, want = ["prop", kind] + mags, [truth, concl]
        if truth == equal:  # an accidental coincidence is redrawn
            return op, want


def _gen_ratio_verdicts(rng: random.Random):
    ops, expect = [], []
    nd = len(RATIO_D_BANDS)
    for blk in range(RATIO_BLOCKS):
        slots = []
        for band in range(nd):
            for gt in (True, False):
                parity = (blk + band + gt) % 2 == 0
                slots.append(("eq", band, gt, parity))
                slots.append(("mixed", band, gt, not parity))
            slots.append(("cross", band, (blk + band) % 2 == 0, (blk + band) % 2 == 1))
        for i, name in enumerate(RATIO_PROPOSITIONS):
            slots.append((name, i, (blk + i) % 2 == 0, blk % 2 == 0))
        # one field per band and block: all of its ops share it
        fields = [_field(rng, dband, RATIO_LEN) for dband in RATIO_D_BANDS]
        for kind, band, gt, equal in rng.sample(slots, len(slots)):
            op, want = _ratio_op(rng, kind, fields[band], gt, equal)
            ops.append(op)
            expect.append(want)
    return ops, expect, len(slots)


# -- verify_suites -----------------------------------------------------------


def _gen_verify_suites(rng: random.Random):
    ops, expect = [], []
    for _ in range(VERIFY_ROUNDS):
        round_seed = rng.randrange(2**31)
        for suite, name in rng.sample(PROPERTIES, len(PROPERTIES)):
            ops.append([suite, name, round_seed])
            expect.append("ok")
    return ops, expect, len(PROPERTIES)


# -- cli_session -------------------------------------------------------------


def _nonsquare(rng: random.Random, lo: float, hi: float) -> int:
    while True:
        n = _log_uniform(rng, lo, hi)
        if math.isqrt(n) ** 2 != n:
            return n


def _lit(x, d) -> str:
    u, v, w = x
    if v == 0:
        g = math.gcd(u, w)
        return "%d/%d" % (u // g, w // g)
    return "%d,%d,%d,%d" % (u, v, w, d)


def _cli_cmd(rng: random.Random, form: str):
    """argv after the module name, and what the run must show."""
    if form == "sqrt_text":
        n = _nonsquare(rng, 1e2, 1e6)
        return ["anth", "sqrt", str(n)], {"exit": 0, "expansion": orc.render(orc.expand_sqrt(n))}
    if form == "sqrt_json_trace":
        n = _nonsquare(rng, 1e2, 1e5)
        exp = orc.expand_sqrt(n)
        return (["anth", "sqrt", str(n), "--json", "--trace"],
                {"exit": 0, "json_cf": [list(exp[0]), list(exp[1])]})
    if form == "defect_form":
        while True:
            a, b = rng.randint(1, 12), rng.randint(5, 400)
            c = rng.randint(1, max(1, (b * b - 1) // (4 * a)))
            disc = b * b - 4 * a * c
            t = 2 * a - b
            if disc > 0 and math.isqrt(disc) ** 2 != disc and (t <= 0 or disc > t * t):
                break
        exp = orc.expand_form("defect", a, b, c)
        return (["anth", "form", str(a), str(b), str(c), "--kind", "defect"],
                {"exit": 0, "expansion": orc.render(exp)})
    if form == "surd_json":
        while True:
            d = _prime_in(rng, 2, 1e4)
            u, v, w = rng.randint(-5, 9), rng.randint(1, 4), rng.randint(1, 9)
            if u >= 0 or v * v * d > u * u:  # a positive value
                break
        exp = orc.expand_surd(u, v, w, d)
        return (["anth", "surd", str(u), str(v), str(w), str(d), "--json"],
                {"exit": 0, "json_cf": [list(exp[0]), None if exp[1] is None else list(exp[1])]})
    if form == "rational":
        m, n = rng.randint(1, 10**9), rng.randint(1, 10**9)
        return (["anth", "rational", str(m), str(n)],
                {"exit": 0, "expansion": orc.render(orc.expand_rational(m, n))})
    if form == "convergents":
        n = _nonsquare(rng, 2, 1e6)
        rows = orc.convergent_rows(orc.head(orc.expand_sqrt(n), 5), 5)
        return (["convergents", "sqrt", str(n), "--json"],
                {"exit": 0, "rows": [[str(p), str(q)] for p, q in rows]})
    if form == "theodorus":
        m = rng.randint(200, 260)
        cfs = {}
        for n in range(2, m + 1):
            pre, per = orc.expand_sqrt(n)
            cfs[str(n)] = [list(pre), None if per is None else list(per)]
        return ["theodorus", "--max", str(m), "--json"], {"exit": 0, "theodorus": cfs}
    if form in ("ratio_eq", "ratio_cross", "ratio_mixed"):
        kind = {"ratio_eq": "eq", "ratio_cross": "cross", "ratio_mixed": "mixed"}[form]
        while True:
            d = _field(rng, (2, 1e3), (1, 64))
            op, want = _ratio_op(rng, kind, d, rng.random() < 0.5, rng.random() < 0.5,
                                 lens=(1, 64))
            mags = [_lit(m[:3], d) for m in op[1:3 if kind == "mixed" else 5]]
            if not any(m.startswith("-") for m in mags):  # would parse as an option
                break
        nums = [str(op[3]), str(op[4])] if kind == "mixed" else []
        verdict = "equal" if want else "unequal"
        return ["ratio", kind] + mags + nums, {"exit": 0, "verdict": verdict}
    if form == "verify":
        return (["verify", "--suite", "engine", "--trials", "2",
                 "--seed", str(rng.randrange(10**6))], {"exit": 0, "verify": True})
    if form == "prime_sqrt":
        # 13-digit prime radicand at the default budget: the period is far
        # longer than the budget, so the CLI must report a truncated expansion
        while True:
            p = _log_uniform(rng, 1e12, 1.1e12)
            if not orc.is_prime(p):
                continue
            try:
                orc.expand_sqrt(p, CLI_DEFAULT_STEPS + 1)
            except orc.TooLong:
                break
        qs = orc.sqrt_prefix(p, CLI_DEFAULT_STEPS)
        return ["anth", "sqrt", str(p)], {"exit": 3, "truncated_digest": digest(qs, None)}
    raise ValueError(form)


# One prime_sqrt per block (1 op in 12, below 10%): p90 then falls among the
# short commands, not on the edge of the prime band, whose cost swings with
# the host far more than interpreter start does.
CLI_FORMS = (
    "sqrt_text", "sqrt_json_trace", "defect_form", "surd_json", "rational",
    "convergents", "theodorus", "ratio_eq", "ratio_cross", "ratio_mixed",
    "verify", "prime_sqrt",
)


def _gen_cli_session(rng: random.Random):
    ops, expect = [], []
    for _ in range(CLI_BLOCKS):
        for form in rng.sample(CLI_FORMS, len(CLI_FORMS)):
            argv, want = _cli_cmd(rng, form)
            ops.append(argv)
            expect.append(want)
    return ops, expect, len(CLI_FORMS)
