"""Congruence checkers: each catalog entry computes both sides in the stated
ring and reports whether they agree.

Layout of a check: build the series spec, evaluate the left side twice (the
capped-p-adic fast path and the exact rational oracle, compared on every
single call), build the right side from gamma values or eta coefficients,
compare, and wrap the outcome in a CongruenceReport.  A violated congruence
is a result, not an exception; only internal inconsistencies (the two left
side routes disagreeing) abort, because those mean the evaluator is broken.

Both sides of a residue check are plain ints in [0, p^N).  Right sides of
the form p^t * (product of gamma values) mod p^N evaluate the gamma factors
at precision N - t and lift: the explicit p^t prefactor supplies the
missing digits.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random

from .arith import (
    CycloElem,
    _zw_mul,
    check_odd_prime,
    cyclo_reduce,
    reduce_mod,
    vp,
)
from .errors import (
    AlphaOutOfRange,
    NonUnitDenominator,
    OracleMismatch,
    PoleInRange,
)
from .eta import a_p, eta_product_qexp
from .gamma import GammaBatch, gamma_p
from .hyper import (
    GSParams,
    PfqSpec,
    alpha_window_residue,
    ff1_build,
    ff_point,
    gs_lhs,
    gs_rhs,
    pfq_exact,
    pfq_mod,
    pochhammer,
)

#: Fast-vs-exact comparisons performed in this process (see _series_class).
oracle_comparisons = 0


@dataclass(frozen=True)
class CongruenceReport:
    id: str
    p: int
    params: dict
    k: int  # modulus exponent; 0 means the comparison was exact
    lhs: str
    rhs: str
    holds: bool
    elapsed_ms: float

    @property
    def modulus(self) -> str:
        return str(self.p**self.k) if self.k else "exact"

    def record(self) -> dict:
        """JSON-ready row with the documented key order."""
        return {
            "id": self.id,
            "p": self.p,
            "params": dict(self.params),
            "modulus": self.modulus,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "elapsed_ms": self.elapsed_ms,
        }


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


@contextmanager
def _unlimited_int_str():
    """Lift CPython's 4300-digit int-to-str cap, which exact ff-3.1 values
    pass near p = 3301, inside the block; the caller's cap comes back."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _report(
    cid: str, p: int, params: dict, k: int, lhs, rhs, t0: float, holds=None
) -> CongruenceReport:
    """Wrap one comparison started at t0; holds defaults to lhs == rhs."""
    if holds is None:
        holds = lhs == rhs
    with _unlimited_int_str():  # in library calls and pool workers alike
        lhs, rhs = str(lhs), str(rhs)
    return CongruenceReport(cid, p, params, k, lhs, rhs, holds, _ms(t0))


def _require_p5(p: int) -> int:
    check_odd_prime(p)
    if p < 5:
        raise ValueError(f"this check needs p >= 5, got {p}")
    return p


def _series_class(
    spec: PfqSpec, p: int, k: int, exact: Fraction | None = None
) -> int:
    """Left-side evaluator used by every residue check, dual-route; the
    class mod p^k as an int in [0, p^k).

    The capped-p-adic route is the answer; the exact rational route is the
    oracle, evaluated here unless the caller already holds pfq_exact(spec).
    Disagreement is an implementation bug by definition and raises
    OracleMismatch rather than poisoning a report.
    """
    global oracle_comparisons
    fast = pfq_mod(spec, p, k)
    exact = reduce_mod(pfq_exact(spec) if exact is None else exact, p, k).value
    if fast != exact:
        raise OracleMismatch(
            f"modular evaluator gave {fast}, exact oracle {exact} mod {p}^{k}"
        )
    oracle_comparisons += 1
    return fast


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

#: The randomized ids' least counts, as (SweepConfig field, minimum).  Their
#: checkers and SweepConfig.normalized() both read them from here.
_MIN_COUNTS = {
    "gs-2.6": ("samples", 1),
    "ff-3.2": ("pairs", 1),
    "gamma-laws": ("samples", 3),
}


def _check_count(cid: str, n: int) -> None:
    field, least = _MIN_COUNTS[cid]
    if n < least:
        raise ValueError(f"{cid} needs {field} >= {least}, got {n}")


def verify_kilbourn(p: int) -> CongruenceReport:
    """Central fourth-power series against the eta-product coefficient."""
    t0 = time.perf_counter()
    check_odd_prime(p)
    spec = PfqSpec((_HALF,) * 4, (1, 1, 1), 1, (p - 1) // 2)
    lhs = _series_class(spec, p, 3)
    rhs = reduce_mod(a_p(p, eta_product_qexp(p)), p, 3).value
    return _report("kilbourn-1.1", p, {}, 3, lhs, rhs, t0)


def verify_zudilin(p: int) -> CongruenceReport:
    """Alternating (4k+1) cubes series against a signed p."""
    t0 = time.perf_counter()
    check_odd_prime(p)
    spec = PfqSpec(
        (_HALF, _HALF, _HALF, Fraction(5, 4)), (1, 1, _QUARTER), -1, (p - 1) // 2
    )
    lhs = _series_class(spec, p, 3)
    sign = -1 if (p - 1) // 2 % 2 else 1
    rhs = reduce_mod(sign * p, p, 3).value
    return _report("zudilin-1.2", p, {}, 3, lhs, rhs, t0)


def verify_mccarthy_osburn(p: int) -> CongruenceReport:
    """Alternating (4k+1) fifth-power series; gamma value on one class."""
    t0 = time.perf_counter()
    _require_p5(p)
    spec = PfqSpec(
        (_HALF,) * 5 + (Fraction(5, 4),), (1, 1, 1, 1, _QUARTER), -1, (p - 1) // 2
    )
    lhs = _series_class(spec, p, 3)
    rhs = _gamma_product_rhs(p, -1, ((Fraction(3, 4), -4),))
    return _report("mccarthy-osburn-1.3", p, {}, 3, lhs, rhs, t0)


def verify_long_ramakrishna(p: int) -> CongruenceReport:
    """The one-third-parameter series mod p^6, both residue classes mod 6."""
    t0 = time.perf_counter()
    _require_p5(p)
    third = Fraction(1, 3)
    spec = PfqSpec(
        (third,) * 6 + (Fraction(7, 6),), (1,) * 5 + (Fraction(1, 6),), 1, p - 1
    )
    lhs = _series_class(spec, p, 6)
    if p % 6 == 1:
        lift, unit = p, pow(gamma_p(third, p, 5), 9, p**5)
    else:
        g9 = pow(gamma_p(third, p, 2), 9, p**2)
        lift, unit = p**4, reduce_mod(Fraction(10, 27), p, 2).value * g9
    rhs = -lift * unit % p**6
    return _report("long-ramakrishna-p6", p, {}, 6, lhs, rhs, t0)


def _main_spec(p: int, alpha: Fraction) -> PfqSpec:
    return PfqSpec(
        (
            _HALF,
            _HALF,
            _HALF,
            _QUARTER,
            Fraction(7, 6),
            _HALF + alpha,
            _QUARTER - alpha,
        ),
        (1, 1, 1, Fraction(1, 6), 1 + 2 * alpha, _HALF - 2 * alpha),
        1,
        (p - 1) // 2,
    )


def _main_rhs_args(alpha: Fraction) -> tuple:
    """(gamma argument, exponent) pairs of the shifted right side."""
    return (
        (_HALF, 1),
        (_QUARTER, 2),
        (1 + alpha, 1),
        (Fraction(3, 4) - alpha, 1),
        (_HALF + alpha, 3),
        (_QUARTER - alpha, 3),
    )


def _gamma_product_rhs(p: int, sign: int, factors) -> int:
    """sign * p * prod Gamma_p(a)^e over the (a, e) factors, as an int in
    [0, p^3).

    Zero unless p = 1 (mod 4).  Gamma factors are read at precision 2; the
    leading p supplies the third digit.
    """
    if p % 4 != 1:
        return 0
    batch = GammaBatch(p, 2).add_all(a for a, _ in factors).run()
    p2 = p * p
    unit = 1
    for a, e in factors:
        unit = unit * pow(batch.value(a), e, p2) % p2
    return sign * p * unit % p**3


def _quarter_sign(p: int) -> int:
    """The sign of the main and 1/4-argument right sides."""
    return -1 if (p + 3) // 4 % 2 else 1


def _main_rhs(p: int, alpha: Fraction) -> int:
    """Signed p times the eight-factor gamma product, as an int in [0, p^3)."""
    return _gamma_product_rhs(p, _quarter_sign(p), _main_rhs_args(alpha))


def verify_main(p: int, alpha) -> CongruenceReport:
    """The shifted-parameter series mod p^3, over the admissible alpha window."""
    t0 = time.perf_counter()
    _require_p5(p)
    alpha = Fraction(alpha)
    alpha_window_residue(alpha, p)
    lhs = _series_class(_main_spec(p, alpha), p, 3)
    rhs = _main_rhs(p, alpha)
    return _report("main-1.4", p, {"alpha": str(alpha)}, 3, lhs, rhs, t0)


def verify_cor_quarter(p: int) -> CongruenceReport:
    """The five-parameter series at argument 1/4, mod p^3."""
    t0 = time.perf_counter()
    _require_p5(p)
    spec = PfqSpec(
        (_HALF, _HALF, _HALF, _QUARTER, Fraction(7, 6)),
        (1, 1, 1, Fraction(1, 6)),
        _QUARTER,
        (p - 1) // 2,
    )
    lhs = _series_class(spec, p, 3)
    rhs = _gamma_product_rhs(p, _quarter_sign(p), ((_HALF, 1), (_QUARTER, 2)))
    return _report("cor-1.5", p, {}, 3, lhs, rhs, t0)


def verify_cor_6f5(p: int) -> CongruenceReport:
    """The six-parameter series at argument 1, mod p^3.

    Besides the direct comparison, the right side is re-derived from the
    alpha = 0 case of the main right side; the two must agree in Z/p^3, so
    holds is the conjunction of both equalities.
    """
    t0 = time.perf_counter()
    _require_p5(p)
    spec = PfqSpec(
        (_HALF, _HALF, _HALF, _QUARTER, _QUARTER, Fraction(7, 6)),
        (1, 1, 1, 1, Fraction(1, 6)),
        1,
        (p - 1) // 2,
    )
    lhs = _series_class(spec, p, 3)
    rhs = _gamma_product_rhs(p, -1, ((_QUARTER, 4),))
    rederived = _main_rhs(p, Fraction(0))
    return _report("cor-1.6", p, {}, 3, lhs, rhs, t0, lhs == rhs == rederived)


def verify_gs(samples: int = 100, seed: int = 0) -> CongruenceReport:
    """Randomized exact check of the terminating identity.

    Draws pole-free (a, b, d) with small numerators and denominators and
    n <= 10, plus pinned cases: the (1/4, 1/2, 1/4, 2) instance with value
    5/4, an n = 0 instance (both sides 1), and an odd-n instance (both
    sides 0).  Prime-independent, so the report carries p = 0.
    """
    t0 = time.perf_counter()
    _check_count("gs-2.6", samples)
    rng = Random(seed)
    ok = True
    pinned = GSParams(_QUARTER, _HALF, _QUARTER, 2)
    pinned_lhs, pinned_rhs = gs_lhs(pinned), gs_rhs(pinned)
    ok &= pinned_lhs == pinned_rhs == Fraction(5, 4)
    for g in (
        GSParams(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), 0),
        GSParams(_QUARTER, _HALF, _QUARTER, 3),
    ):
        ok &= gs_lhs(g) == gs_rhs(g)
    done = 0
    while done < samples:
        a = _draw_rational(rng)
        b = _draw_rational(rng)
        d = _draw_rational(rng)
        n = rng.randint(0, 10)
        try:
            g = GSParams(a, b, d, n)
            lhs, rhs = gs_lhs(g), gs_rhs(g)
        except PoleInRange:
            continue  # pole screening: the identity is only claimed where finite
        ok &= lhs == rhs
        done += 1
    params = {"samples": str(samples), "seed": str(seed)}
    return _report("gs-2.6", 0, params, 0, pinned_lhs, pinned_rhs, t0, ok)


def verify_ff1(p: int, alpha) -> CongruenceReport:
    """Exact equality of the specialized identity in the cyclotomic field."""
    t0 = time.perf_counter()
    alpha = Fraction(alpha)
    lhs, rhs = ff1_build(p, alpha)
    return _report("ff-3.1", p, {"alpha": str(alpha)}, 0, lhs, rhs, t0)


def verify_ff2(p: int, u, v, kmax: int) -> CongruenceReport:
    """Triple-product congruence in Z[w], carried on int pairs mod p^3.

    Checks (u+vp)_k (u+vpw)_k (u+vpw^2)_k against (u)_k^3 mod p^3 for every
    k up to kmax.  x = u and y = vp are p-integral and reduced once; step j
    multiplies the pair (a, b) = a + b*w by x+j+y*w^i, written out as int
    pairs, through arith's product rule, and reduces mod p^3 after each
    product.  The right side is plain ints, so a Z[w] product fault reads
    holds=false; the sides agree as (x + y)(x + yw)(x + yw^2) = x^3 + y^3
    and (vp)^3 = 0 mod p^3.
    """
    t0 = time.perf_counter()
    check_odd_prime(p)
    u, v = Fraction(u), Fraction(v)
    for name, val in (("u", u), ("v", v)):
        if vp(val, p) < 0:
            raise NonUnitDenominator(f"{name} = {val} has {p} in its denominator")
    if not 0 <= kmax <= (p - 1) // 2:
        raise ValueError(f"kmax must lie in 0..{(p - 1) // 2}, got {kmax}")
    m = p**3
    x = reduce_mod(u, p, 3).value
    y = reduce_mod(v * p, p, 3).value
    a, b, plain, cube = 1, 0, 1, 1  # k = 0
    ok = True
    for j in range(kmax):
        s = x + j
        for c, d in ((s + y, 0), (s, y), (s - y, -y)):
            a, b = _zw_mul(a, b, c, d)
            a, b = a % m, b % m
        plain = plain * s % m
        cube = pow(plain, 3, m)
        ok &= (a, b) == (cube, 0)
    lhs, rhs = CycloElem(a, b), CycloElem(cube, 0)
    params = {"u": str(u), "v": str(v), "kmax": str(kmax)}
    return _report("ff-3.2", p, params, 3, lhs, rhs, t0, ok)


def verify_ff3(p: int, alpha) -> CongruenceReport:
    """ff-3.1's closed form reduced mod p^3, against the shifted right side.

    gs_rhs at ff_point(p, alpha) is a quotient of eight Pochhammers of
    length (p - 1)/4, computed exactly in the cyclotomic field; its
    representative mod p^3 is compared with the gamma product embedded on
    the rational axis.  Only defined for p = 1 mod 4.  The four
    alpha-dependent Pochhammers never vanish mod p on the alpha window:
    with least residue a <= r = (p - 1)/4 their factors reduce into
    [1, 3r].
    """
    t0 = time.perf_counter()
    _require_p5(p)
    if p % 4 != 1:
        raise ValueError(f"this identity needs p = 1 (mod 4), got {p}")
    alpha = Fraction(alpha)
    alpha_window_residue(alpha, p)
    lhs = cyclo_reduce(gs_rhs(ff_point(p, alpha)), p, 3)
    rhs = CycloElem(_main_rhs(p, alpha), 0)
    return _report("ff-3.3", p, {"alpha": str(alpha)}, 3, lhs, rhs, t0)


def _gamma_law_draws(p: int, samples: int, seed: int) -> tuple:
    """The seeded draws of verify_gamma_laws, each reduced once mod p^3.

    Returns the reflection arguments, the shift arguments (units, then
    p-divisible ones), the rising-factorial triples (a, rep of a, n) with
    (a)_n a p-unit, and the 20 third-difference bases, all as
    representatives in [0, p^3) except the exact a.
    """
    rng = Random(seed * 1_000_003 + p)
    pk = p**3

    def draw() -> Fraction:
        return _draw_rational(rng, p, pk, 48)

    def rep(x: Fraction) -> int:  # the draw's denominator is a p-unit
        return x.numerator * pow(x.denominator, -1, pk) % pk

    def rand_unit() -> int:
        x = rep(draw())
        while x % p == 0:
            x = rep(draw())
        return x

    n_refl = samples - 2 * (samples // 3)
    n_shift = samples // 3
    n_poch = samples // 3
    refl = [rep(draw()) for _ in range(n_refl)]
    shift = [rand_unit() for _ in range(n_shift - n_shift // 2)]
    shift += [p * rand_unit() % pk for _ in range(n_shift // 2)]
    poch = []
    while len(poch) < n_poch:
        a = draw()
        n = rng.randint(0, 6)
        x = rep(a)
        if -x % p >= n:  # (a)_n is a p-unit
            poch.append((a, x, n))
    diffs = [rep(draw()) for _ in range(20)]
    return refl, shift, poch, diffs


def verify_gamma_laws(p: int, samples: int = 100, seed: int = 0) -> CongruenceReport:
    """Property suite for the gamma implementation at precision 3.

    Covers the two constants, reflection, the shift quotient (unit and
    p-divisible arguments), the rising-factorial formula, the vanishing
    third difference of m -> gamma(a + m p), and the two sign identities
    used downstream.  All queries share one set of digit tables.  Each law
    is checked as a congruence mod p^3 between integer representatives;
    the rising factorial's direct side is the exact product, reduced.
    """
    t0 = time.perf_counter()
    _require_p5(p)
    _check_count("gamma-laws", samples)
    k = 3
    pk = p**k
    refl, shift, poch, diffs = _gamma_law_draws(p, samples, seed)
    half = (pk + 1) // 2
    quarter = p * pow(4, -1, pk) % pk

    batch = GammaBatch(p, k).add_all((0, 1, half, quarter, quarter + 1))
    for x in refl:
        batch.add(x).add(1 - x)
    for x in shift:
        batch.add(x).add(x + 1)
    for _, x, n in poch:
        batch.add(x).add(x + n)
    for x in diffs:
        batch.add_all(x + m * p for m in range(4))
    g = batch.run().value

    minus_one = pk - 1
    ok = g(1) == minus_one and g(0) == 1
    for x in refl:
        sign = -1 if (x % p or p) % 2 else 1
        ok &= (g(x) * g(1 - x) - sign) % pk == 0
    for x in shift:  # G(x + 1) = -x G(x) for a unit x, -G(x) for p | x
        ok &= (g(x + 1) + (x if x % p else 1) * g(x)) % pk == 0
    for a, x, n in poch:
        direct = reduce_mod(pochhammer(a, n), p, k).value
        ok &= direct == (-1) ** n * g(x + n) * pow(g(x), -1, pk) % pk
    for x in diffs:
        v0, v1, v2, v3 = (g(x + m * p) for m in range(4))
        ok &= (v0 - 3 * v1 + 3 * v2 - v3) % pk == 0
    ok &= g(quarter) * pow(g(quarter + 1), -1, pk) % pk == minus_one
    ok &= g(half) ** 2 % pk == (minus_one if (p + 1) // 2 % 2 else 1)

    params = {"samples": str(samples), "seed": str(seed)}
    return _report("gamma-laws", p, params, k, g(1), minus_one, t0, ok)


# ---------------------------------------------------------------------------
# sweep orchestration


def _guarded(fn, cid: str, p: int, params: dict) -> CongruenceReport:
    """Failure is data: any checker error becomes a holds=false report whose
    params name the exception type, so one failing cell costs one row.

    The one exception is OracleMismatch, which means the evaluator itself
    is wrong; that must halt the sweep, not masquerade as a violation.
    """
    t0 = time.perf_counter()
    try:
        return fn()
    except OracleMismatch:
        raise
    except Exception as e:
        params = {**params, "error": type(e).__name__}
        return _report(cid, p, params, 0, "error", str(e)[:200], t0, False)


def _alphas_for(p: int, policy) -> tuple:
    """Admissible shift parameters for one prime under the sweep policy.

    The "all" policy walks every integer in the window.  An explicit list
    keeps only entries admissible at this p, so one list can serve a whole
    prime range.
    """
    if policy == "all":
        return tuple(Fraction(i) for i in range(p // 4 + 1))
    out = []
    for a in policy:
        try:
            alpha_window_residue(Fraction(a), p)
        except (AlphaOutOfRange, NonUnitDenominator):
            continue
        out.append(Fraction(a))
    return tuple(out)


# Cell expansions.  Each takes (id, p, cfg) and returns the cell's reports
# in deterministic order.  Checkers are called through lambdas so that the
# module-level name is looked up at call time, where callers may wrap it.


def _per_prime(check):
    """One report per prime: check(p, cfg)."""

    def expand(cid: str, p: int, cfg: "SweepConfig") -> list[CongruenceReport]:
        return [_guarded(lambda: check(p, cfg), cid, p, {})]

    return expand


def _per_alpha(check):
    """One report per admissible alpha: check(p, alpha)."""

    def expand(cid: str, p: int, cfg: "SweepConfig") -> list[CongruenceReport]:
        return [
            _guarded(lambda a=a: check(p, a), cid, p, {"alpha": str(a)})
            for a in _alphas_for(p, cfg.alphas)
        ]

    return expand


def _ff2_draws(cid: str, p: int, cfg: "SweepConfig") -> list[CongruenceReport]:
    """cfg.pairs seeded (u, v) draws, every k up to (p - 1) / 2."""
    rng = Random(cfg.seed * 1_000_003 + p)
    out = []
    kmax = (p - 1) // 2
    for _ in range(cfg.pairs):
        u = _draw_rational(rng, p)
        v = _draw_rational(rng, p)
        params = {"u": str(u), "v": str(v)}
        out.append(_guarded(lambda u=u, v=v: verify_ff2(p, u, v, kmax), cid, p, params))
    return out


def _draw_rational(
    rng: Random, p: int | None = None, num_max: int = 12, den_max: int = 12
) -> Fraction:
    """num/den with |num| <= num_max and 1 <= den <= den_max; given p, a
    p-divisible denominator is drawn again."""
    num = rng.randint(-num_max, num_max)
    den = rng.randint(1, den_max)
    while p is not None and den % p == 0:
        den = rng.randint(1, den_max)
    return Fraction(num, den)


@dataclass(frozen=True)
class _Entry:
    """One catalog id: its prime domain and cell expansion."""

    expand: object  # (id, p, cfg) -> the cell's reports
    min_p: int | None = 5  # None: one prime-free cell, reported as p = 0
    max_p: int | None = None
    mod4: int | None = None  # residue p must have mod 4, if any

    def admits(self, p: int) -> bool:
        return (
            p >= self.min_p
            and (self.max_p is None or p <= self.max_p)
            and (self.mod4 is None or p % 4 == self.mod4)
        )


#: The catalog, in report order.
_REGISTRY = {
    "kilbourn-1.1": _Entry(_per_prime(lambda p, cfg: verify_kilbourn(p)), min_p=3),
    "zudilin-1.2": _Entry(_per_prime(lambda p, cfg: verify_zudilin(p)), min_p=3),
    "mccarthy-osburn-1.3": _Entry(_per_prime(lambda p, cfg: verify_mccarthy_osburn(p))),
    # The catalog's domain for this id is 5..23; bench/golden.json pins it.
    "long-ramakrishna-p6": _Entry(
        _per_prime(lambda p, cfg: verify_long_ramakrishna(p)), max_p=23
    ),
    "main-1.4": _Entry(_per_alpha(lambda p, alpha: verify_main(p, alpha))),
    "cor-1.5": _Entry(_per_prime(lambda p, cfg: verify_cor_quarter(p))),
    "cor-1.6": _Entry(_per_prime(lambda p, cfg: verify_cor_6f5(p))),
    "gs-2.6": _Entry(
        _per_prime(lambda p, cfg: verify_gs(cfg.samples, cfg.seed)), min_p=None
    ),
    "ff-3.1": _Entry(_per_alpha(lambda p, alpha: verify_ff1(p, alpha))),
    "ff-3.2": _Entry(_ff2_draws),
    "ff-3.3": _Entry(_per_alpha(lambda p, alpha: verify_ff3(p, alpha)), mod4=1),
    "gamma-laws": _Entry(
        _per_prime(lambda p, cfg: verify_gamma_laws(p, cfg.samples, cfg.seed))
    ),
}

CATALOG = tuple(_REGISTRY)


@dataclass(frozen=True)
class SweepConfig:
    """What to verify: which congruences, which primes, which parameters."""

    ids: tuple = CATALOG
    primes: tuple = ()
    alphas: object = "all"  # "all" or an iterable of rationals
    seed: int = 0
    samples: int = 100  # randomized-suite size (gs-2.6, gamma-laws)
    pairs: int = 50  # (u, v) draws per prime for ff-3.2
    jobs: int = 1

    def normalized(self) -> "SweepConfig":
        ids = tuple(i for i in CATALOG if i in set(self.ids))
        unknown = set(self.ids) - set(CATALOG)
        if unknown:
            raise ValueError(f"unknown congruence ids: {sorted(unknown)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        for cid in [i for i in ids if i in _MIN_COUNTS]:
            _check_count(cid, getattr(self, _MIN_COUNTS[cid][0]))
        primes = tuple(sorted(set(self.primes)))
        for p in primes:
            check_odd_prime(p)
        alphas = self.alphas
        if alphas != "all":  # drop repeats, keeping first-seen order
            alphas = tuple(dict.fromkeys(Fraction(a) for a in alphas))
        return replace(self, ids=ids, primes=primes, alphas=alphas)


def _run_cell(cid: str, p: int, cfg: SweepConfig) -> list[CongruenceReport]:
    """All reports for one (id, prime) cell, in deterministic order."""
    return _REGISTRY[cid].expand(cid, p, cfg)


def _cells(cfg: SweepConfig) -> list[tuple[str, int]]:
    cells = []
    for cid in cfg.ids:
        entry = _REGISTRY[cid]
        if entry.min_p is None:
            cells.append((cid, 0))
        else:
            cells += [(cid, p) for p in cfg.primes if entry.admits(p)]
    return cells


def sweep(cfg: SweepConfig) -> Iterator[CongruenceReport]:
    """Run every selected (id, prime) cell; yield the reports in cell order.

    The config is checked and the cells listed at the call, so a bad config
    raises before any cell runs; the cells run as the generator is read, and
    nothing collects their reports.  Cells are ordered by catalog position
    then prime; parameterized cells expand in parameter order.  A process
    pool of min(jobs, cells, CPUs) workers runs them when that is above one.
    """
    cfg = cfg.normalized()
    cells = _cells(cfg)
    workers = min(cfg.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        return _pooled(cells, cfg, workers)
    return (report for cid, p in cells for report in _run_cell(cid, p, cfg))


def _pooled(cells: list, cfg: SweepConfig, workers: int) -> Iterator[CongruenceReport]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        for chunk in pool.map(_run_cell, *zip(*cells), [cfg] * len(cells)):
            yield from chunk
