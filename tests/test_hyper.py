"""Series evaluators: exact, modular, the terminating identity, the omega build."""

from fractions import Fraction
from math import prod
from random import Random
from types import SimpleNamespace

import pytest

import supercon.congruences as congruences
from supercon.arith import (
    OMEGA,
    CycloElem,
    PadicCapped,
    check_odd_prime,
    is_prime,
    primes_in,
    reduce_mod,
    vp,
    _check_precision,
)
from supercon.congruences import SweepConfig, sweep
from supercon.errors import (
    AlphaOutOfRange,
    NonUnitDenominator,
    PoleInRange,
    PrecisionExhausted,
)
from supercon.hyper import (
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
    _integer_in_window,
    _split,
)

F = Fraction


def test_pochhammer_values():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(-3), 5) == 0
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(2, 4) == 2 * 3 * 4 * 5


def test_split_gives_int_coordinates_over_a_positive_int():
    assert _split(F(-3, 4)) == (-3, 4) and _split(5) == (5, 1)
    r, s = _split(CycloElem(F(1, 2), F(-1, 3)))
    assert (r, s) == (CycloElem(3, -2), 6)
    assert (type(r.c0), type(r.c1)) == (int, int)
    r, s = _split(CycloElem(F(7), 2))
    assert (r, s) == (CycloElem(7, 2), 1) and type(r.c0) is int


def scanned_integer_in_window(x, n):
    """Reference: the former window test, one equality per integer."""
    return any(x == -j for j in range(n))


def test_integer_in_window_matches_scan():
    seen = set()
    for n in range(5):
        xs = [True, False]
        for c in (0, -(n - 1), -n, 1, F(-1, 2)):
            xs += [c, F(c), CycloElem(c, 0), CycloElem(F(c), 0),
                   CycloElem(c, 1), CycloElem(c, F(1, 2)), CycloElem(0, c)]
        for x in xs:
            got = _integer_in_window(x, n)
            assert got is scanned_integer_in_window(x, n), (x, n)
            seen.add(got)
    assert seen == {True, False}


def fraction_pochhammer(x, n):
    """Reference: the former pochhammer, one Fraction accumulator."""
    out = Fraction(1)
    for j in range(n):
        out = out * (x + j)
    return out


def test_pochhammer_matches_fraction_accumulator():
    rng = Random(1717)
    for _ in range(300):
        c = F(rng.randint(-20, 20), rng.randint(1, 9))
        x = rng.choice((c, CycloElem(c, F(rng.randint(-9, 9), rng.randint(1, 9)))))
        n = rng.randint(0, 12)
        got, want = pochhammer(x, n), fraction_pochhammer(x, n)
        assert (got, type(got), str(got)) == (want, type(want), str(want)), (x, n)


def test_pochhammer_cyclo_matches_rational_embedding():
    x = F(2, 3)
    embedded = CycloElem(x, F(0))
    got = pochhammer(embedded, 4)
    assert got == CycloElem(pochhammer(x, 4), F(0))


def test_pfq_exact_known_sums():
    # the alternating 4F3 at p=5 truncation
    spec = PfqSpec((F(1, 2), F(1, 2), F(1, 2), F(5, 4)), (1, 1, F(1, 4)), -1, 2)
    assert pfq_exact(spec) == F(435, 512)
    # the central 4F3 at p=3 truncation
    spec = PfqSpec((F(1, 2),) * 4, (1, 1, 1), 1, 1)
    assert pfq_exact(spec) == F(17, 16)


def test_pfq_exact_n_zero_is_one():
    spec = PfqSpec((F(1, 3), F(2, 5)), (F(1, 7),), F(9, 4), 0)
    assert pfq_exact(spec) == 1


def test_pfq_exact_terminating_upper():
    # upper -2 kills every term past k=2 no matter how large n is
    spec = PfqSpec((F(-2), F(1, 2)), (F(1, 3),), 1, 50)
    expected = pfq_exact(PfqSpec((F(-2), F(1, 2)), (F(1, 3),), 1, 2))
    assert pfq_exact(spec) == expected


def test_pfq_dead_series_shields_later_pole():
    # the lower parameter hits zero at k=3, but the upper -2 has already
    # terminated the series by then, so no pole is reported
    spec = PfqSpec((F(-2), 1), (F(-3),), 1, 10)
    pfq_exact(spec)
    pfq_mod(spec, 7, 2)


def test_pfq_pole_in_live_range_raises():
    spec = PfqSpec((F(1, 2), 1), (F(-3),), 1, 10)
    with pytest.raises(PoleInRange):
        pfq_exact(spec)
    with pytest.raises(PoleInRange):
        pfq_mod(spec, 7, 2)


def fraction_pfq_exact(spec):
    """Reference: the former exact route, a reduced Fraction per factor."""
    total = term = Fraction(1)
    for k in range(spec.n):
        dead = False
        num = Fraction(1)
        for a in spec.upper:
            f = a + k
            if f == 0:
                dead = True
                break
            num = num * f
        if dead:
            break
        den = Fraction(k + 1)
        for b in spec.lower:
            f = b + k
            if f == 0:
                raise PoleInRange(
                    f"lower parameter {b} vanishes at k={k} inside a live series"
                )
            den = den * f
        term = term * num / den * spec.z
        total = total + term
    return total


def _exact_outcome(fn, spec):
    """(value, type, str) of fn(spec), or (exception type, message)."""
    try:
        value = fn(spec)
    except PoleInRange as e:
        return type(e), str(e)
    return value, type(value), str(value)


def _assert_same_as_fraction_route(spec):
    """pfq_exact(spec) matches the reference; returns its outcome."""
    outcome = _exact_outcome(pfq_exact, spec)
    assert outcome == _exact_outcome(fraction_pfq_exact, spec), spec
    return outcome


def test_pfq_exact_matches_fraction_route_on_random_specs():
    rng = Random(14)

    def entry():
        kind = rng.randrange(5)
        if kind < 2:
            return rng.randint(-6, 4)
        c = F(rng.randint(-12, 12), rng.randint(1, 6))
        if kind < 4:
            return c
        return CycloElem(c, rng.choice((0, F(rng.randint(-3, 3), rng.randint(1, 3)))))

    terminated = poles = shielded = 0
    for _ in range(20_000):
        upper = [entry() for _ in range(rng.randint(0, 3))]
        lower = [entry() for _ in range(rng.randint(0, 3))]
        z = 0 if rng.random() < 0.05 else entry()
        spec = PfqSpec(upper, lower, z, rng.randint(0, 12))
        outcome = _assert_same_as_fraction_route(spec)
        if any(_integer_in_window(a, spec.n) for a in spec.upper):
            terminated += 1
        if outcome[0] is PoleInRange:
            poles += 1
        elif any(_integer_in_window(b, spec.n) for b in spec.lower):
            shielded += 1  # a lower zero beyond the support
    assert min(terminated, poles, shielded) >= 200, (terminated, poles, shielded)


def test_pfq_exact_matches_fraction_route_on_catalog_specs(monkeypatch):
    """Every series spec the catalog sums for p <= 97, main-1.4 at every
    admissible alpha."""
    specs = []

    def recording_pfq_exact(spec):
        specs.append(spec)
        return pfq_exact(spec)

    monkeypatch.setattr(congruences, "pfq_exact", recording_pfq_exact)
    ids = ("kilbourn-1.1", "zudilin-1.2", "mccarthy-osburn-1.3",
           "long-ramakrishna-p6", "main-1.4", "cor-1.5", "cor-1.6")
    primes = tuple(p for p in range(3, 98) if is_prime(p))
    reports = sweep(SweepConfig(ids=ids, primes=primes).normalized())
    assert all(r.holds for r in reports)
    assert len(specs) == len(reports) == 399
    for spec in specs:
        _assert_same_as_fraction_route(spec)


def test_pfq_exact_matches_fraction_route_on_q_omega_points():
    for p in range(5, 62):
        if is_prime(p):
            for alpha in range(p // 4 + 1):
                _assert_same_as_fraction_route(ff_point(p, F(alpha)).series())


def cyclo_elem_pfq_exact(spec):
    """Reference: the former pfq_exact, whose Q(w) factors, term, sum and
    shared denominator were CycloElems, divided once at the end."""
    upper = [_split(a) for a in spec.upper]
    lower = [_split(b) for b in spec.lower]
    z_num, z_den = _split(spec.z)
    num0 = z_num * prod(s for _, s in lower)
    den0 = z_den * prod(s for _, s in upper)
    term = total = shared = 1  # the term and the sum, both over shared
    for k in range(spec.n):
        nums = [r + k * s for r, s in upper]
        if 0 in nums:
            break
        dens = [r + k * s for r, s in lower]
        if 0 in dens:
            b = spec.lower[dens.index(0)]
            raise PoleInRange(
                f"lower parameter {b} vanishes at k={k} inside a live series"
            )
        term = term * prod(nums, start=num0)
        den = prod(dens, start=den0 * (k + 1))
        total = total * den + term
        shared = shared * den
    return Fraction(1) * total / shared


def test_pfq_exact_matches_cyclo_elem_route():
    """Value, kind and text against the CycloElem-valued loop: at every
    ff_point for p <= 101, and on the edge cases of the pair route."""
    specs = [ff_point(p, F(a)).series() for p in primes_in(5, 101)
             for a in range(p // 4 + 1)]
    w = CycloElem(F(1, 3), F(-2, 5))
    specs += [
        PfqSpec((F(1, 2),), (F(1, 3),), w, 0),  # n = 0, z in Q(w)
        PfqSpec((F(0), w), (w,), w, 4),  # an upper zero at k = 0
        PfqSpec((F(-1), w), (F(1, 3),), 1, 4),  # ... and one at k = 1
        PfqSpec((w, F(1, 2)), (F(1, 3), 1), F(-2, 7), 6),  # Q(w) only upper
        PfqSpec((F(1, 2), F(3, 4)), (w,), F(2, 3), 6),  # only lower
        PfqSpec((F(1, 2),), (F(1, 3),), w, 6),  # only z
        PfqSpec((CycloElem(F(1, 2), 0),), (F(1, 3),), 1, 6),  # c1 = 0
        PfqSpec((CycloElem(F(-3), 0), F(1, 2)), (F(1, 3),), 1, 9),
        PfqSpec((w,), (), 0, 1),  # a live term that sums to 1
        PfqSpec((w,), (CycloElem(F(-2), 0),), F(1, 2), 6),  # a Q(w) lower pole
        PfqSpec((w,), (F(-2),), F(1, 2), 6),  # a rational pole in a Q(w) spec
    ]
    seen = set()  # result kinds and pole messages
    for spec in specs:
        outcome = _exact_outcome(pfq_exact, spec)
        assert outcome == _exact_outcome(cyclo_elem_pfq_exact, spec), spec
        seen.add(outcome[1] if outcome[0] is PoleInRange else outcome[1])
    assert seen == {CycloElem, Fraction,
                    "lower parameter -2 + 0*w vanishes at k=2 inside a live series",
                    "lower parameter -2 vanishes at k=2 inside a live series"}


def test_pfq_exact_matches_fraction_route_on_long_central_series():
    _assert_same_as_fraction_route(PfqSpec((F(1, 2), F(1, 2)), (1,), 1, 2000))


def test_pfq_mod_equals_reduced_exact_on_random_specs():
    """The two evaluation routes agree whenever the reduction is legal, and
    the capped route refuses a sum that is not a p-adic integer."""
    rng = Random(31337)
    p, k = 7, 3
    agreed = 0
    while agreed < 120:
        ln_up = rng.randint(1, 4)
        ln_lo = rng.randint(0, 3)
        denoms = [1, 2, 3, 4, 5, 6]
        upper = tuple(F(rng.randint(-8, 8), rng.choice(denoms)) for _ in range(ln_up))
        lower = tuple(F(rng.randint(-8, 8), rng.choice(denoms)) for _ in range(ln_lo))
        z = F(rng.randint(-4, 4), rng.choice(denoms))
        spec = PfqSpec(upper, lower, z, rng.randint(0, 8))
        try:
            exact = pfq_exact(spec)
        except PoleInRange:
            continue
        if vp(exact, p) < 0:
            with pytest.raises(PrecisionExhausted):
                pfq_mod(spec, p, k)
            continue
        try:
            fast = pfq_mod(spec, p, k)
        except PrecisionExhausted:
            continue
        assert fast == reduce_mod(exact, p, k).value, spec
        assert type(fast) is int and 0 <= fast < p**k, spec
        agreed += 1


def test_pfq_mod_never_certifies_a_wrong_residue():
    """Differential sweep of the capped route against the exact one.

    pfq_mod may refuse (PrecisionExhausted), but any class it returns is the
    exact sum's, and it always refuses a sum that is not a p-adic integer.
    Small primes and small k make cancellation past the known digits common.
    """
    rng = Random(1)

    def draw(num, den):
        return F(rng.randint(-num, num), rng.randint(1, den))

    for _ in range(5000):
        p = rng.choice((3, 5, 7))
        k = rng.randint(1, 4)
        upper = tuple(draw(12, 6) for _ in range(rng.randint(1, 3)))
        lower = tuple(draw(12, 6) for _ in range(rng.randint(0, 2)))
        spec = PfqSpec(upper, lower, draw(9, 4), rng.randint(0, 12))
        try:
            exact = pfq_exact(spec)
        except PoleInRange:
            with pytest.raises(PoleInRange):
                pfq_mod(spec, p, k)
            continue
        try:
            fast = pfq_mod(spec, p, k)
        except PrecisionExhausted:
            continue
        assert vp(exact, p) >= 0, (spec, p, k)
        assert fast == reduce_mod(exact, p, k).value, (spec, p, k)
        assert type(fast) is int and 0 <= fast < p**k, (spec, p, k)


def test_pfq_mod_rejects_cyclo_flavor():
    on_axis = CycloElem(F(1, 2), 0)  # rational in value, Q(w) in kind
    for n in (0, 3):
        for spec in (
            PfqSpec((OMEGA, F(1, 2)), (F(1),), 1, n),
            PfqSpec((F(1, 2),), (on_axis,), 1, n),
            PfqSpec((F(1, 2),), (F(1),), on_axis, n),
        ):
            with pytest.raises(TypeError):
                pfq_mod(spec, 5, 2)


def factor_pfq_mod(spec, p, k):
    """Reference: the former capped route, one PadicCapped per factor."""
    check_odd_prime(p)
    _check_precision(k)
    if any(isinstance(x, CycloElem) for x in (*spec.upper, *spec.lower, spec.z)):
        raise TypeError("modular evaluation is defined for rational parameters only")

    def emb(x) -> PadicCapped:
        return PadicCapped.from_rational(x, p, k)

    z = emb(spec.z)
    total = emb(1)
    term = emb(1)
    for j in range(spec.n):
        dead = False
        num = emb(1)
        for a in spec.upper:
            f = a + j
            if f == 0:
                dead = True
                break
            num = num * emb(f)
        if dead:
            break
        den = emb(j + 1)
        for b in spec.lower:
            f = b + j
            if f == 0:
                raise PoleInRange(
                    f"lower parameter {b} vanishes at k={j} inside a live series"
                )
            den = den * emb(f)
        term = term * num / den * z
        total = total + term
    return total.residue(k)


def _mod_outcome(fn, spec, p, k):
    """("residue", the int) of fn(spec, p, k), or (exception type, message)."""
    try:
        return "residue", fn(spec, p, k)
    except (PoleInRange, PrecisionExhausted) as e:
        return type(e), str(e)


def test_pfq_mod_matches_factor_route_on_random_specs():
    rng = Random(19)

    def entry():
        if rng.random() < 0.3:
            return rng.randint(-6, 4)
        return F(rng.randint(-12, 12), rng.randint(1, 6))

    seen = {"residue": 0, PrecisionExhausted: 0, PoleInRange: 0}
    for _ in range(20_000):
        p = rng.choice((3, 5, 7))
        k = rng.randint(1, 4)
        upper = [entry() for _ in range(rng.randint(0, 3))]
        lower = [entry() for _ in range(rng.randint(0, 3))]
        z = 0 if rng.random() < 0.05 else entry()
        spec = PfqSpec(upper, lower, z, rng.randint(0, 14))
        outcome = _mod_outcome(pfq_mod, spec, p, k)
        assert outcome == _mod_outcome(factor_pfq_mod, spec, p, k), (spec, p, k)
        seen[outcome[0]] += 1
    assert min(seen.values()) >= 1000, seen


def test_pfq_mod_matches_factor_route_on_catalog_specs(monkeypatch):
    """Every (spec, p, k) the seven series ids sum over 5..199 at seed 0."""
    calls = []
    series_class = congruences._series_class

    def recording_series_class(spec, p, k, exact=None):
        fast = series_class(spec, p, k, exact)  # pfq_mod's class
        calls.append(((spec, p, k), ("residue", fast)))
        return fast

    monkeypatch.setattr(congruences, "_series_class", recording_series_class)
    ids = ("kilbourn-1.1", "zudilin-1.2", "mccarthy-osburn-1.3",
           "long-ramakrishna-p6", "main-1.4", "cor-1.5", "cor-1.6")
    primes = tuple(p for p in range(5, 200) if is_prime(p))
    reports = sweep(SweepConfig(ids=ids, primes=primes, seed=0).normalized())
    assert all(r.holds for r in reports)
    assert len(calls) == 1304
    for call, outcome in calls:
        assert _mod_outcome(factor_pfq_mod, *call) == outcome, call


def test_pfq_mod_zero_z_still_meets_a_later_pole():
    """z = 0 makes every term after the first zero, but the series stays
    live: a lower entry that vanishes at k = 2 is still a pole."""
    spec = PfqSpec((F(1, 2),), (F(-2),), 0, 5)
    message = "lower parameter -2 vanishes at k=2 inside a live series"
    for fn in (pfq_mod, factor_pfq_mod):
        with pytest.raises(PoleInRange) as e:
            fn(spec, 5, 3)
        assert str(e.value) == message
    with pytest.raises(PoleInRange):
        pfq_exact(spec)
    short = PfqSpec((F(1, 2),), (F(-2),), 0, 2)  # stops before the pole
    assert pfq_mod(short, 5, 3) == 1


def test_pfq_spec_promotes_flavor():
    # ints become Fractions; Fractions and CycloElems keep their kinds
    spec = PfqSpec((OMEGA, F(1, 2), 3), (1,), F(1, 3), 2)
    assert spec.upper == (OMEGA, F(1, 2), F(3))
    assert [type(u) for u in spec.upper] == [CycloElem, F, F]
    assert type(spec.lower[0]) is F and type(spec.z) is F
    assert type(PfqSpec((), (), OMEGA, 0).z) is CycloElem
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            PfqSpec((bad,), (), 1, 1)
        with pytest.raises(TypeError):
            GSParams(F(1, 4), F(1, 2), bad, 2)


def _cyclo(x):
    return x if isinstance(x, CycloElem) else CycloElem(x, 0)


def promoted_pfq_exact(spec):
    """Reference: the former Q(w) route, every entry promoted to CycloElem."""
    upper = [_cyclo(a) for a in spec.upper]
    lower = [_cyclo(b) for b in spec.lower]
    z = _cyclo(spec.z)
    one = CycloElem(1, 0)
    total = term = one
    for k in range(spec.n):
        num = one
        for a in upper:
            f = a + k
            if (f.c0, f.c1) == (0, 0):
                return total
            num = num * f
        den = one * (k + 1)
        for b in lower:
            f = b + k
            if (f.c0, f.c1) == (0, 0):
                raise PoleInRange(f"{b} at k={k}")
            den = den * f
        term = term * num / den * z
        total = total + term
    return total


def promoted_gs_rhs(g):
    """Reference: the former Q(w) closed form, every entry promoted."""
    one = CycloElem(1, 0)
    if g.n % 2:
        return one - one
    r = g.n // 2
    a, b, d = _cyclo(g.a), _cyclo(g.b), _cyclo(g.d)
    half = F(1, 2)

    def poch(x):
        out = one
        for j in range(r):
            out = out * (x + j)
        return out

    num = poch(one * half) * poch(b + d) * poch(d - b + a + half) * poch(a + 1)
    den = one
    for f in (b + half, a + d + half, d, a - b + 1):
        pf = poch(f)
        if (pf.c0, pf.c1) == (0, 0):
            raise PoleInRange(f"({f})_{r}")
        den = den * pf
    return num / den


def _mixed_entry(rng):
    """A small rational as an int, a Fraction, or a CycloElem (maybe off-axis)."""
    c = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
    kind = rng.randrange(4)
    if kind == 0:
        return c.numerator if c.denominator == 1 else c
    if kind == 1:
        return c
    return CycloElem(c, 0 if kind == 2 else F(rng.randint(-3, 3), rng.randint(1, 3)))


def _same_outcome(fn, ref, arg):
    """fn(arg) equals ref(arg), or both raise PoleInRange; True if a value."""
    try:
        expected = ref(arg)
    except PoleInRange:
        with pytest.raises(PoleInRange):
            fn(arg)
        return False
    got = fn(arg)
    assert got == expected and expected == got, arg
    if isinstance(got, CycloElem) or isinstance(expected, CycloElem):
        assert _cyclo(got) == _cyclo(expected)
    return True


def test_mixed_kinds_match_promoting_every_entry():
    rng = Random(2024)
    values = cyclo_results = 0
    for _ in range(300):
        spec = PfqSpec(
            tuple(_mixed_entry(rng) for _ in range(rng.randint(1, 4))),
            tuple(_mixed_entry(rng) for _ in range(rng.randint(0, 3))),
            _mixed_entry(rng),
            rng.randint(0, 7),
        )
        if _same_outcome(pfq_exact, promoted_pfq_exact, spec):
            values += 1
            cyclo_results += isinstance(pfq_exact(spec), CycloElem)
    assert values > 200 and cyclo_results > 100


def test_mixed_kind_identity_matches_promoting_every_entry():
    rng = Random(4048)
    checked = 0
    for _ in range(200):
        entries = [_mixed_entry(rng) for _ in range(3)]
        try:
            g = GSParams(*entries, rng.randint(0, 8))
        except PoleInRange:
            continue
        assert _exact_outcome(gs_rhs, g) == _exact_outcome(divided_gs_rhs, g), g
        if _same_outcome(gs_rhs, promoted_gs_rhs, g):
            assert gs_lhs(g) == promoted_pfq_exact(g.series()) == gs_rhs(g)
            checked += 1
    assert checked > 100


def test_gs_params_screen_every_closed_form_pole():
    """gs_rhs's PoleInRange check is unreachable through GSParams: every
    mixed-kind point at even n <= 10 that constructs evaluates, and every
    point aimed at a vanishing lower closed-form Pochhammer is refused."""
    rng = Random(2506)
    built = aimed = 0
    for _ in range(4000):
        n = rng.randrange(0, 11, 2)
        a, b, d = (_mixed_entry(rng) for _ in range(3))
        aim = n and rng.random() < 0.5
        if aim:  # one of b + 1/2, a + d + 1/2, d, a - b + 1 at -j, j < n/2
            j = rng.randrange(n // 2)
            which = rng.randrange(4)
            if which == 0:
                b = F(-1, 2) - j
            elif which == 1:
                d = F(-1, 2) - j - a
            elif which == 2:
                d = CycloElem(-j, 0) if rng.random() < 0.5 else -j
            else:
                b = a + 1 + j
        try:
            g = GSParams(a, b, d, n)
        except PoleInRange:
            aimed += aim
            continue
        assert not aim, (a, b, d, n)
        gs_rhs(g)
        built += 1
    assert built > 1000 and aimed > 1000, (built, aimed)


class TestGSIdentity:
    def test_pinned_case(self):
        g = GSParams(F(1, 4), F(1, 2), F(1, 4), 2)
        assert gs_lhs(g) == F(5, 4)
        assert gs_rhs(g) == F(5, 4)

    def test_n_zero_both_sides_one(self):
        g = GSParams(F(1, 3), F(1, 5), F(1, 7), 0)
        assert gs_lhs(g) == 1
        assert gs_rhs(g) == 1

    def test_odd_n_both_sides_zero(self):
        g = GSParams(F(1, 4), F(1, 2), F(1, 4), 3)
        assert gs_lhs(g) == 0
        assert gs_rhs(g) == 0

    def test_parameter_shapes(self):
        g = GSParams(F(1, 4), F(1, 2), F(1, 4), 2)
        assert len(g.upper) == 7
        assert len(g.lower) == 6
        assert g.series().n == 2
        assert g.upper[-1] == F(-2)  # the terminating parameter is -n

    def test_construction_screens_poles(self):
        # b = -1/2 puts 2b = -1 inside the pole window for n >= 2
        with pytest.raises(PoleInRange):
            GSParams(F(1, 4), F(-1, 2), F(1, 7), 4)
        # past the screen, gs_rhs meets (b + 1/2)_2 = (0)_2 and raises as
        # the divided route does; an unscreened stand-in gets it there
        for b in (F(-1, 2), CycloElem(F(-1, 2), 0)):
            g = SimpleNamespace(a=F(1, 4), b=b, d=F(1, 7), n=4)
            outcome = _exact_outcome(gs_rhs, g)
            assert outcome[0] is PoleInRange
            assert outcome == _exact_outcome(divided_gs_rhs, g)

    def test_vanishing_numerator_factor(self):
        # (a+1)_r = 0 for a = -2, r = 2: the closed form collapses to zero
        # and the truncated sum must follow it there
        g = GSParams(F(-2), F(1, 3), F(1, 5), 4)
        assert gs_rhs(g) == 0
        assert gs_lhs(g) == 0

    def test_randomized_identity(self):
        rng = Random(777)
        checked = 0
        while checked < 150:
            a = F(rng.randint(-12, 12), rng.randint(1, 12))
            b = F(rng.randint(-12, 12), rng.randint(1, 12))
            d = F(rng.randint(-12, 12), rng.randint(1, 12))
            n = rng.randint(0, 10)
            try:
                g = GSParams(a, b, d, n)
                lhs, rhs = gs_lhs(g), gs_rhs(g)
            except PoleInRange:
                continue
            assert lhs == rhs, (a, b, d, n)
            checked += 1

    def test_cyclo_parameters_work_exactly(self):
        # the identity also runs inside Q(omega); spot-check an instance
        # whose d has an omega part, against the rational closed form route
        p = 5
        d = (CycloElem(F(1), F(0)) + OMEGA.conjugate() * p) * F(1, 4)
        g = GSParams(F(1, 4), F(1, 2), d, 2)
        assert gs_lhs(g) == gs_rhs(g)


def test_alpha_window():
    assert alpha_window_residue(F(0), 13) == 0
    assert alpha_window_residue(F(3), 13) == 3
    assert alpha_window_residue(F(1, 7), 13) == 2
    assert alpha_window_residue(F(6, 11), 5) == 1  # 11 = 1 mod 5, so this is 6 = 1
    with pytest.raises(AlphaOutOfRange):
        alpha_window_residue(F(4), 13)
    with pytest.raises(AlphaOutOfRange):
        alpha_window_residue(F(2, 3), 5)  # inverse of 3 is 2, so 2/3 = 4 > 1
    with pytest.raises(NonUnitDenominator):
        alpha_window_residue(F(1, 5), 5)


class TestFF1Build:
    def test_exact_equality_small_primes(self):
        for p in (5, 13):
            for alpha in range(p // 4 + 1):
                lhs, rhs = ff1_build(p, F(alpha))
                assert lhs == rhs, (p, alpha)

    def test_point(self):
        g = ff_point(13, F(2))
        assert (type(g.a), type(g.b), type(g.d)) == (F, F, CycloElem)
        assert (g.a, g.b, g.n) == (F(1, 4), F(5, 2), 6)
        assert g.d == (OMEGA.conjugate() * 13 + 1) * F(1, 4)
        assert g.d == CycloElem(F(-3), F(-13, 4))
        assert ff1_build(13, F(2)) == (gs_lhs(g), gs_rhs(g))

    def test_three_mod_four_gives_zero(self):
        lhs, rhs = ff1_build(7, F(1))
        assert rhs == CycloElem(F(0), F(0))
        assert str(rhs) == "0 + 0*w"  # odd n: a Q(w) zero, not a rational one
        assert lhs == rhs

    def test_rational_alpha(self):
        lhs, rhs = ff1_build(13, F(1, 7))  # residue 2, inside the window
        assert lhs == rhs

    def test_window_enforced(self):
        with pytest.raises(AlphaOutOfRange):
            ff1_build(5, F(2))

    def test_needs_admissible_prime(self):
        with pytest.raises(ValueError):
            ff1_build(4, F(0))
        with pytest.raises(ValueError):
            ff1_build(3, F(0))


def wrapped_ff_point(p, alpha):
    """Reference: the former ff_point, with a and b wrapped as CycloElem."""
    a = CycloElem(F(1, 4), 0)
    b = CycloElem(F(1, 2) + alpha, 0)
    d = (OMEGA.conjugate() * p + 1) * F(1, 4)
    return GSParams(a, b, d, (p - 1) // 2)


def divided_gs_rhs(g):
    """Reference: the former gs_rhs, eight Pochhammers each divided out on
    its own (over fraction_pochhammer), then one quotient of the products."""
    if g.n % 2:
        return (g.a + g.b + g.d) * 0
    r = g.n // 2
    a, b, d = g.a, g.b, g.d
    half = F(1, 2)
    num = (
        fraction_pochhammer(half, r)
        * fraction_pochhammer(b + d, r)
        * fraction_pochhammer(d - b + a + half, r)
        * fraction_pochhammer(a + 1, r)
    )
    den = F(1)
    for f in (b + half, a + d + half, d, a - b + 1):
        pf = fraction_pochhammer(f, r)
        if pf == 0:
            raise PoleInRange(f"closed-form denominator ({f})_{r} vanishes")
        den = den * pf
    return num / den


def cyclo_elem_rising(x, n):
    """Reference: the former _rising, the r + j*s of _split(x) = (r, s)
    multiplied by math.prod, so a Q(w) x builds a CycloElem per factor and
    per product."""
    r, s = _split(x)
    return prod(r + j * s for j in range(n)), s**n


def cyclo_elem_pochhammer(x, n):
    """Reference: the former pochhammer, cyclo_elem_rising's one quotient."""
    top, bottom = cyclo_elem_rising(x, n)
    return Fraction(1) * top / bottom


def cyclo_elem_gs_rhs(g):
    """Reference: the former gs_rhs, the eight cyclo_elem_rising products
    multiplied crosswise and divided once."""
    if g.n % 2:
        return (g.a + g.b + g.d) * 0
    r = g.n // 2
    a, b, d = g.a, g.b, g.d
    half = F(1, 2)
    num = den = 1
    for f in (half, b + d, d - b + a + half, a + 1):
        top, bottom = cyclo_elem_rising(f, r)
        num, den = num * top, den * bottom
    for f in (b + half, a + d + half, d, a - b + 1):
        top, bottom = cyclo_elem_rising(f, r)
        if top == 0:
            raise PoleInRange(f"closed-form denominator ({f})_{r} vanishes")
        num, den = num * bottom, den * top
    return Fraction(1) * num / den


def test_pochhammer_matches_cyclo_elem_route():
    for x in (CycloElem(F(1, 3), F(-2, 5)), CycloElem(F(-3, 2), 0),
              CycloElem(-4, 7), CycloElem(0, 0)):
        for n in (0, 1, 5):
            got, want = pochhammer(x, n), cyclo_elem_pochhammer(x, n)
            assert (got, type(got), str(got)) == (want, type(want), str(want)), (x, n)


def test_gs_rhs_matches_cyclo_elem_route():
    """Value, kind and text, or the PoleInRange message, against the
    CycloElem-valued route: at every ff_point for p <= 101, on mixed-kind
    draws at even n <= 10, and on the kind and pole edge cases."""
    points = [ff_point(p, F(a)) for p in primes_in(5, 101) for a in range(p // 4 + 1)]
    rng = Random(2626)
    for _ in range(600):
        try:
            points.append(GSParams(*(_mixed_entry(rng) for _ in range(3)),
                                   rng.randrange(0, 11, 2)))
        except PoleInRange:
            pass
    w = CycloElem(F(1, 3), F(-2, 5))
    points += [
        GSParams(F(1, 4), F(1, 2), w, 0),  # r = 0 with d in Q(w)
        GSParams(F(1, 4), F(1, 2), w, 5),  # odd n
        GSParams(F(1, 4), F(1, 2), F(1, 7), 3),
        GSParams(CycloElem(F(1, 4), 0), F(1, 2), F(1, 7), 4),  # c1 = 0
        GSParams(F(1, 4), CycloElem(2, 0), F(1, 7), 6),
    ]
    # past GSParams' screen, (b + 1/2)_2 = (0)_2 is a lower pole
    points += [SimpleNamespace(a=F(1, 4), b=b, d=d, n=4)
               for b in (F(-1, 2), CycloElem(F(-1, 2), 0)) for d in (F(1, 7), w)]
    kinds = []
    for g in points:
        outcome = _exact_outcome(gs_rhs, g)
        assert outcome == _exact_outcome(cyclo_elem_gs_rhs, g), g
        kinds.append(outcome[1])
    assert kinds.count(CycloElem) > 450 and kinds.count(Fraction) > 100
    assert set(kinds) == {CycloElem, Fraction,
                          "closed-form denominator (0)_2 vanishes",
                          "closed-form denominator (0 + 0*w)_2 vanishes"}


def test_gs_sides_match_former_routes_at_every_admissible_alpha():
    """gs_lhs and gs_rhs at ff_point, where a and b are rationals and the
    closed form divides once, against the wrapped point with divided_gs_rhs:
    value, kind and text, at every admissible integer alpha for p <= 101."""
    points = [(p, F(a)) for p in primes_in(5, 101) for a in range(p // 4 + 1)]
    for p, alpha in points:
        g, wrapped = ff_point(p, alpha), wrapped_ff_point(p, alpha)
        assert (type(g.a), type(g.b)) == (F, F)
        lhs, rhs = gs_lhs(wrapped), divided_gs_rhs(wrapped)
        got_lhs, got_rhs = gs_lhs(g), gs_rhs(g)
        assert (got_lhs, type(got_lhs), str(got_lhs)) == (lhs, type(lhs), str(lhs))
        assert (got_rhs, type(got_rhs), str(got_rhs)) == (rhs, type(rhs), str(rhs))
        assert got_lhs == got_rhs, (p, alpha)
