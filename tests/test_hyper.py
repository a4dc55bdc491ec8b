"""Series evaluators: exact, modular, the terminating identity, the omega build."""

from fractions import Fraction
from random import Random

import pytest

from supercon.arith import OMEGA, CycloElem, reduce_mod, vp
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
)

F = Fraction


def test_pochhammer_values():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(-3), 5) == 0
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(2, 4) == 2 * 3 * 4 * 5


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
        assert fast == reduce_mod(exact, p, k), spec
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
        assert fast == reduce_mod(exact, p, k), (spec, p, k)


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
        if _same_outcome(gs_rhs, promoted_gs_rhs, g):
            assert gs_lhs(g) == promoted_pfq_exact(g.series()) == gs_rhs(g)
            checked += 1
    assert checked > 100


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
        assert all(isinstance(x, CycloElem) for x in (g.a, g.b, g.d))
        assert (g.a, g.b, g.n) == (CycloElem(F(1, 4), F(0)), CycloElem(F(5, 2), F(0)), 6)
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
