"""Checkers and the sweep: reports, domains, error handling, determinism."""

import concurrent.futures
import re
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

import pytest

import supercon.congruences as congruences
from supercon.arith import (
    OMEGA,
    CycloElem,
    PrimePowerResidue,
    cyclo_reduce,
    least_residue,
    primes_in,
    reduce_mod,
    vp,
)
from supercon.congruences import (
    _HALF,
    CATALOG,
    CongruenceReport,
    SweepConfig,
    _check_count,
    _draw_rational,
    _report,
    _require_p5,
    sweep,
    verify_cor_6f5,
    verify_cor_quarter,
    verify_ff1,
    verify_ff2,
    verify_ff3,
    verify_gamma_laws,
    verify_gs,
    verify_kilbourn,
    verify_long_ramakrishna,
    verify_main,
    verify_mccarthy_osburn,
    verify_zudilin,
)
from supercon.errors import (
    AlphaOutOfRange,
    NonUnitDenominator,
    OracleMismatch,
    PrecisionExhausted,
)
from supercon.gamma import GammaBatch, gamma_p
from supercon.hyper import pfq_exact, pochhammer
from test_gamma import residue_rep

F = Fraction


def strip(reports):
    """Everything except the timing, which is the one nondeterministic field."""
    return [(r.id, r.p, r.params, r.k, r.lhs, r.rhs, r.holds) for r in reports]


def test_catalog_is_fixed():
    assert len(CATALOG) == 12
    assert CATALOG[0] == "kilbourn-1.1"
    assert "gamma-laws" in CATALOG


def test_readme_id_table_lists_the_catalog():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    ids = re.findall(r"^\| ([a-z0-9.]+-[a-z0-9.-]+) +\|", readme.read_text(), re.M)
    assert ids == list(CATALOG)


def test_report_record_shape():
    r = verify_zudilin(5)
    rec = r.record()
    assert list(rec) == ["id", "p", "params", "modulus", "lhs", "rhs", "holds", "elapsed_ms"]
    assert rec["modulus"] == "125"
    assert r.modulus == "125"
    exact = verify_gs(samples=5, seed=1)
    assert exact.modulus == "exact"


def test_kilbourn_small_primes():
    r3 = verify_kilbourn(3)
    assert r3.holds and r3.lhs == "23"
    for p in (5, 7, 11, 13):
        assert verify_kilbourn(p).holds


def test_zudilin_both_sign_classes():
    r5 = verify_zudilin(5)
    assert r5.holds and r5.rhs == "5"  # p = 1 (mod 4): +p
    r7 = verify_zudilin(7)
    assert r7.holds and r7.rhs == str(7**3 - 7)  # p = 3 (mod 4): -p


def test_mccarthy_osburn_zero_and_nonzero():
    assert verify_mccarthy_osburn(5).holds
    r7 = verify_mccarthy_osburn(7)
    assert r7.holds and r7.rhs == "0"
    with pytest.raises(ValueError):
        verify_mccarthy_osburn(3)


def test_mccarthy_osburn_rhs_needs_gamma_mod_p2_only():
    """-p * Gamma_p(3/4)^-4 mod p^3 is unchanged when Gamma is read mod p^2."""
    for p in primes_in(5, 97):
        if p % 4 == 1:
            old = -p * pow(gamma_p(F(3, 4), p, 3).value, -4, p**3) % p**3
            assert verify_mccarthy_osburn(p).rhs == str(old), p


def test_long_ramakrishna_both_classes():
    assert verify_long_ramakrishna(7).holds   # 1 mod 6
    assert verify_long_ramakrishna(11).holds  # 5 mod 6
    assert verify_long_ramakrishna(29).holds  # 5 mod 6, past the catalog's 23
    assert verify_long_ramakrishna(31).holds  # 1 mod 6: precision-5 gamma


def test_main_branches():
    r = verify_main(13, 3)
    assert r.holds and r.params == {"alpha": "3"}
    assert verify_main(13, F(1, 7)).holds  # rational alpha, residue 2
    r7 = verify_main(7, 1)
    assert r7.holds and r7.rhs == "0"
    with pytest.raises(AlphaOutOfRange):
        verify_main(5, 2)
    with pytest.raises(NonUnitDenominator):
        verify_main(5, F(1, 5))


def test_corollaries():
    for p in (5, 7, 13):
        assert verify_cor_quarter(p).holds
        assert verify_cor_6f5(p).holds


def test_gs_randomized_is_clean():
    for seed in (0, 42):
        r = verify_gs(samples=40, seed=seed)
        assert r.holds
        assert r.p == 0 and r.k == 0
        assert r.lhs == "5/4"


def test_ff1_exact():
    assert verify_ff1(5, 1).holds
    assert verify_ff1(7, 0).holds
    r = verify_ff1(13, 2)
    assert r.holds and r.modulus == "exact"


def test_ff2_inputs():
    assert verify_ff2(5, F(1, 2), F(-1, 3), 2).holds
    assert verify_ff2(7, F(0), F(1), 3).holds
    with pytest.raises(NonUnitDenominator):
        verify_ff2(5, F(1, 5), F(1), 2)
    with pytest.raises(ValueError):
        verify_ff2(5, F(1), F(1), 3)  # kmax beyond (p-1)/2


def test_ff3_domain():
    assert verify_ff3(13, 0).holds
    assert verify_ff3(13, 3).holds
    with pytest.raises(ValueError):
        verify_ff3(7, 0)  # wrong class mod 4


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def hand_built_quotient(p, alpha):
    """ff-3.3's former left side: the eight Pochhammers written out by hand."""
    r = (p - 1) // 4
    w2p = OMEGA.conjugate() * p
    num = (
        pochhammer(_HALF, r)
        * pochhammer(Fraction(5, 4), r)
        * pochhammer((4 * alpha + 3 + w2p) * _QUARTER, r)
        * pochhammer((2 - 4 * alpha + w2p) * _QUARTER, r)
    )
    den = (
        pochhammer((1 + w2p) * _QUARTER, r)
        * pochhammer((4 + w2p) * _QUARTER, r)
        * pochhammer(1 + alpha, r)
        * pochhammer(Fraction(3, 4) - alpha, r)
    )
    return num / den


def ff3_hypothesis_scan(p, alpha):
    """ff-3.3's former hypothesis check: walk the four alpha-dependent
    Pochhammers of length (p - 1)/4 factor by factor, j-major.  Returns the
    message for the first factor divisible by p, or None."""
    for j in range((p - 1) // 4):
        for factor in (
            alpha + F(3, 4) + j,
            _HALF - alpha + j,
            1 + alpha + j,
            F(3, 4) - alpha + j,
        ):
            if least_residue(factor, p) == 0:
                return f"Pochhammer factor {factor} vanishes mod {p}"
    return None


def test_ff3_hypothesis_matches_scan():
    """ff-3.3's non-vanishing hypothesis holds on the whole alpha window.

    An admissible alpha, least residue a in [0, r] with r = (p - 1)/4,
    never breaks it: its four Pochhammers reduce to factors in [1, 3r] mod
    p.  So verify_ff3 makes no check of its own; the scan confirms, at
    every integer alpha in the window and three seeded rationals per prime.
    """
    rng = Random(55)

    def draw(p):
        den = rng.randint(2, 12)
        while den % p == 0:
            den = rng.randint(2, 12)
        return F(rng.randint(-60, 60), den)

    primes = [p for p in primes_in(5, 199) if p % 4 == 1]
    admissible = 0
    for p in primes:
        alphas = [F(a) for a in range(p // 4 + 1)]
        while len(alphas) < p // 4 + 4:  # three seeded rationals in the window
            alpha = draw(p)
            if least_residue(alpha, p) <= p // 4:
                alphas.append(alpha)
        for alpha in alphas:
            assert ff3_hypothesis_scan(p, alpha) is None, (p, alpha)
            admissible += 1
    assert admissible == sum(p // 4 + 4 for p in primes)


def test_pochhammer_p_unit_closed_form_matches_scan():
    """(x)_n has a factor x + j divisible by p, j < n, exactly when
    -x mod p < n; ff-3.3 and gamma-laws test p-units this way."""
    rng = Random(66)
    primes = primes_in(3, 61)
    hits = 0
    for _ in range(3000):
        p = rng.choice(primes)
        den = rng.randint(1, 40)
        while den % p == 0:
            den = rng.randint(1, 40)
        x = F(rng.randint(-500, 500), den)
        n = rng.randint(0, p + 3)
        scan = any(least_residue(x + j, p) == 0 for j in range(n))
        assert (least_residue(-x, p) < n) == scan, (x, n, p)
        hits += scan
    assert 500 < hits < 2500


def test_draw_rational_reproduces_both_streams():
    """One seeded draw serves ff-3.2 and gs-2.6 (the 12/12 defaults) and
    gamma-laws (|num| <= p^3, den <= 48), call for call."""

    def former_gamma_laws_draw(rng, p):
        num = rng.randint(-(p**3), p**3)
        den = rng.randint(1, 48)
        while den % p == 0:
            den = rng.randint(1, 48)
        return F(num, den)

    def former_small_draw(rng, p):
        num = rng.randint(-12, 12)
        den = rng.randint(1, 12)
        while p is not None and den % p == 0:
            den = rng.randint(1, 12)
        return F(num, den)

    for p in (None, 5, 7, 11, 13):
        one, two = Random(p or 1), Random(p or 1)
        for _ in range(300):
            assert congruences._draw_rational(one, p) == former_small_draw(two, p)
        assert one.random() == two.random()
    for p in (5, 7, 11, 13, 47):
        one, two = Random(p), Random(p)
        for _ in range(300):
            drawn = congruences._draw_rational(one, p, p**3, 48)
            assert drawn == former_gamma_laws_draw(two, p)
        assert one.random() == two.random()


def test_ff3_matches_hand_built_quotient():
    rng = Random(33)
    checked = 0
    for p in primes_in(5, 101):
        if p % 4 != 1:
            continue
        alphas = [F(a) for a in range(p // 4 + 1)]
        while len(alphas) < p // 4 + 4:  # a few admissible non-integers
            alpha = F(rng.randint(-30, 30), rng.randint(2, 9))
            if alpha.denominator % p and reduce_mod(alpha, p, 1).value <= p // 4:
                alphas.append(alpha)
        for alpha in alphas:
            r = verify_ff3(p, alpha)
            expected = cyclo_reduce(hand_built_quotient(p, alpha), p, 3)
            assert r.lhs == str(expected), (p, alpha)
            assert r.holds, (p, alpha)
            checked += 1
    assert checked > 120


def exact_triple_loop(p, u, v, kmax):
    """ff-3.2's former loop: the exact triple product, reduced at every k."""
    factors = tuple(u + (OMEGA**j) * (v * p) for j in range(3))
    triple = CycloElem(1, 0)
    plain = Fraction(1)
    lhs_k = cyclo_reduce(triple, p, 3)
    rhs_k = cyclo_reduce(CycloElem(plain**3, 0), p, 3)
    ok = lhs_k == rhs_k
    for k in range(1, kmax + 1):
        j = k - 1
        for f in factors:
            triple = triple * (f + j)
        plain = plain * (u + j)
        lhs_k = cyclo_reduce(triple, p, 3)
        rhs_k = cyclo_reduce(CycloElem(plain**3, 0), p, 3)
        ok &= lhs_k == rhs_k
    return ok, str(lhs_k), str(rhs_k)


def test_ff2_matches_exact_triple_loop():
    rng = Random(44)

    def draw(p):
        den = rng.randint(1, 12)
        while den % p == 0:
            den = rng.randint(1, 12)
        return F(rng.randint(-12, 12), den)

    for p in (5, 7, 13, 31):
        pairs = [(draw(p), draw(p)) for _ in range(8)]
        pairs += [(draw(p), F(0)), (F(0), draw(p)), (F(0), F(0))]
        pairs += [(p * draw(p), draw(p)), (p**2 * draw(p), draw(p))]
        pairs += [(F(-p, 2), draw(p)), (F(p**3, 7 if p != 7 else 5), F(0))]
        for u, v in pairs:
            for kmax in sorted({0, 1, (p - 1) // 2}):
                r = verify_ff2(p, u, v, kmax)
                assert (r.holds, r.lhs, r.rhs) == exact_triple_loop(p, u, v, kmax), (
                    p, u, v, kmax
                )


def test_gamma_laws_checker():
    r = verify_gamma_laws(13, samples=60, seed=5)
    assert r.holds
    assert r.params["samples"] == "60"


def reference_gamma_laws(p: int, samples: int = 100, seed: int = 0) -> CongruenceReport:
    """The gamma-laws checker on PrimePowerResidue objects, as it was before
    its laws moved to integer representatives; kept as the reference.  Each
    quotient G(b) / G(a) = c is checked as G(b) == c * G(a) (Gamma_p values
    are units), and the third difference on the values' ints.
    """
    t0 = time.perf_counter()
    _require_p5(p)
    _check_count("gamma-laws", samples)
    rng = Random(seed * 1_000_003 + p)
    k = 3
    draw = partial(_draw_rational, rng, p, p**k, 48)

    def rand_unit() -> Fraction:
        x = draw()
        while least_residue(x, p) == 0:
            x = draw()
        return x

    n_refl = samples - 2 * (samples // 3)
    n_shift = samples // 3
    n_poch = samples // 3
    refl = [draw() for _ in range(n_refl)]
    shift = [rand_unit() for _ in range(n_shift - n_shift // 2)]
    shift += [p * rand_unit() for _ in range(n_shift // 2)]
    poch = []
    while len(poch) < n_poch:
        a = draw()
        n = rng.randint(0, 6)
        if least_residue(-a, p) >= n:  # (a)_n is a p-unit
            poch.append((a, n))
    diffs = [draw() for _ in range(20)]

    batch = GammaBatch(p, k)
    batch.add_all((0, 1, _HALF, Fraction(p, 4), 1 + Fraction(p, 4)))
    for x in refl:
        batch.add(x).add(1 - x)
    for x in shift:
        batch.add(x).add(x + 1)
    for a, n in poch:
        batch.add(a).add(a + n)
    for a in diffs:
        for m in range(4):
            batch.add(a + m * p)
    batch.run()

    def g(x) -> PrimePowerResidue:
        return PrimePowerResidue(p, k, batch.value(x))

    minus_one = PrimePowerResidue(p, k, -1)
    one = PrimePowerResidue(p, k, 1)
    ok = g(1) == minus_one and g(0) == one
    for x in refl:
        expect = minus_one if residue_rep(x, p) % 2 else one
        ok &= g(x) * g(1 - x) == expect
    for x in shift:
        if vp(x, p) == 0:
            ok &= g(x + 1) == minus_one * reduce_mod(x, p, k) * g(x)
        else:
            ok &= g(x + 1) == minus_one * g(x)
    for a, n in poch:  # (a)_n = (-1)^n G(a + n) / G(a), G(a) a unit
        direct = reduce_mod(pochhammer(a, n), p, k)
        ok &= direct * g(a) == minus_one**n * g(a + n)
    for a in diffs:
        vals = [g(a + m * p).value for m in range(4)]
        ok &= (vals[0] - 3 * vals[1] + 3 * vals[2] - vals[3]) % p**k == 0
    ok &= g(Fraction(p, 4)) == minus_one * g(1 + Fraction(p, 4))
    ok &= g(_HALF) ** 2 == (minus_one if (p + 1) // 2 % 2 else one)

    params = {"samples": str(samples), "seed": str(seed)}
    return _report("gamma-laws", p, params, 3, g(1), minus_one, t0, ok)


def _gamma_laws_outcome(monkeypatch, checker, p, samples, seed):
    """(params, lhs, rhs, holds) of one run, and the (p, k, sorted reps) of
    each GammaBatch job it ran."""
    jobs = []
    run = GammaBatch.run

    def recording_run(self):
        if self._values is None:
            jobs.append((self.p, self.k, sorted(self._reps)))
        return run(self)

    with monkeypatch.context() as m:
        m.setattr(GammaBatch, "run", recording_run)
        r = checker(p, samples, seed)
    return (r.params, r.lhs, r.rhs, r.holds), jobs


def test_gamma_laws_match_reference(monkeypatch):
    """Same report and same GammaBatch job as the residue-object checker at
    every prime 5..173, seeds 0..3, the smallest and two usual sample sizes."""
    for p in primes_in(5, 173):
        for seed in range(4):
            for samples in (3, 60, 100):
                args = (p, samples, seed)
                new = _gamma_laws_outcome(monkeypatch, verify_gamma_laws, *args)
                ref = _gamma_laws_outcome(monkeypatch, reference_gamma_laws, *args)
                assert new == ref, args
                assert new[0][3] and len(new[1]) == 1, args


def _gamma_law_sites(p: int, samples: int, seed: int) -> dict:
    """One representative mod p^3 read by each law family, by name."""
    pk = p**3
    refl, shift, poch, diffs = congruences._gamma_law_draws(p, samples, seed)
    assert shift[0] % p and not shift[-1] % p  # a unit first, a p-multiple last
    _, x, n = poch[0]
    quarter = p * pow(4, -1, pk) % pk
    return {
        "constant G(0)": 0,
        "constant G(1)": 1,
        "reflection": refl[0],
        "unit shift": (shift[0] + 1) % pk,
        "p-divisible shift": (shift[-1] + 1) % pk,
        "Pochhammer quotient": (x + n) % pk,
        "third difference": diffs[0],
        "quarter sign": quarter,
        "half-square sign": (pk + 1) // 2,
    }


@pytest.mark.parametrize("p, seed", [(5, 0), (13, 1), (101, 2), (173, 3)])
def test_gamma_laws_catch_a_planted_value(monkeypatch, p, seed):
    """A Gamma_p value one off mod p^3, planted where one law family reads
    it, fails both checkers; unplanted, both hold."""
    samples = 60
    sites = _gamma_law_sites(p, samples, seed)
    for checker in (verify_gamma_laws, reference_gamma_laws):
        assert checker(p, samples, seed).holds, checker.__name__
    run = GammaBatch.run
    for family, rep in sites.items():

        def planted_run(self, rep=rep):
            fresh = self._values is None
            run(self)
            if fresh:
                self._values[rep] = (self._values[rep] + 1) % self.p**self.k
            return self

        with monkeypatch.context() as m:
            m.setattr(GammaBatch, "run", planted_run)
            new, ref = (
                strip([checker(p, samples, seed)])
                for checker in (verify_gamma_laws, reference_gamma_laws)
            )
        assert new == ref and not new[0][-1], (family, rep)


def test_sample_minimums_guard_the_checkers():
    assert verify_gs(samples=1).holds
    assert verify_gamma_laws(5, samples=3).holds
    with pytest.raises(ValueError, match="gs-2.6 needs samples >= 1"):
        verify_gs(samples=0)
    with pytest.raises(ValueError, match="gamma-laws needs samples >= 3"):
        verify_gamma_laws(5, samples=2)


def test_oracle_counter_moves():
    before = congruences.oracle_comparisons
    verify_zudilin(5)
    verify_main(5, 0)
    assert congruences.oracle_comparisons == before + 2


def test_oracle_mismatch_is_raised(monkeypatch):
    """A broken fast path must abort loudly, not mark the report failed."""

    def wrong_pfq_mod(spec, p, k):
        return PrimePowerResidue(p, k, reduce_mod(pfq_exact(spec), p, k).value + 1)

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    with pytest.raises(OracleMismatch):
        verify_zudilin(5)


def test_oracle_mismatch_escapes_sweep(monkeypatch):
    def wrong_pfq_mod(spec, p, k):
        return PrimePowerResidue(p, k, reduce_mod(pfq_exact(spec), p, k).value + 1)

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    with pytest.raises(OracleMismatch):
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,)))


class TestSweep:
    def test_deterministic_and_ordered(self):
        cfg = SweepConfig(ids=("main-1.4", "kilbourn-1.1"), primes=(7, 5), seed=3)
        a = sweep(cfg)
        b = sweep(cfg)
        assert strip(a) == strip(b)
        # catalog order first, then prime order, regardless of input order
        assert [(r.id, r.p) for r in a[:2]] == [("kilbourn-1.1", 5), ("kilbourn-1.1", 7)]
        assert a[2].id == "main-1.4" and a[2].p == 5

    def test_alpha_all_counts(self):
        reports = sweep(SweepConfig(ids=("main-1.4",), primes=(5, 7, 11, 13)))
        assert len(reports) == 11  # floor(p/4)+1 summed: 2+2+3+4
        assert all(r.holds for r in reports)

    def test_alpha_list_skips_inadmissible(self):
        reports = sweep(
            SweepConfig(ids=("main-1.4",), primes=(5, 13), alphas=(F(3), F(1, 7)))
        )
        assert [(r.p, r.params["alpha"]) for r in reports] == [(13, "3"), (13, "1/7")]

    def test_domain_filtering(self):
        reports = sweep(SweepConfig(ids=("long-ramakrishna-p6", "ff-3.3"), primes=(7, 11, 13, 29)))
        pairs = [(r.id, r.p) for r in reports]
        assert ("long-ramakrishna-p6", 29) not in pairs
        assert all(p % 4 == 1 for i, p in pairs if i == "ff-3.3")
        assert all(r.holds for r in reports)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            sweep(SweepConfig(ids=("no-such-id",), primes=(5,)))

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            sweep(SweepConfig(ids=("zudilin-1.2",), primes=(2, 5)))

    def test_parallel_matches_serial(self):
        base = dict(ids=("kilbourn-1.1", "gamma-laws", "ff-3.2"), primes=(5, 7), pairs=4, samples=20)
        serial = sweep(SweepConfig(**base, jobs=1))
        parallel = sweep(SweepConfig(**base, jobs=3))
        assert strip(serial) == strip(parallel)

    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch):
        pools = []

        class FakePool:
            def __init__(self, max_workers, initializer=None):
                assert initializer is congruences._unlimited_int_str
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(congruences.os, "cpu_count", lambda: 4)
        three = dict(ids=("zudilin-1.2",), primes=(5, 7, 11))
        serial = sweep(SweepConfig(**three))
        assert pools == []
        assert strip(sweep(SweepConfig(**three, jobs=1000))) == strip(serial)
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=primes_in(5, 31), jobs=1000))
        sweep(SweepConfig(**three, jobs=2))
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,), jobs=8))
        assert pools == [3, 4, 2]  # one cell ran serially
        monkeypatch.setattr(congruences.os, "cpu_count", lambda: None)
        sweep(SweepConfig(**three, jobs=8))
        assert pools == [3, 4, 2]

    def test_ff2_cells_are_seeded(self):
        one = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=9))
        two = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=9))
        other = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=10))
        assert strip(one) == strip(two)
        assert strip(one) != strip(other)
        assert len(one) == 6

    def test_checker_error_becomes_failed_report(self, monkeypatch):
        def always_raises(p):
            raise PrecisionExhausted("forced for the test")

        monkeypatch.setattr(congruences, "verify_zudilin", always_raises)
        reports = sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,)))
        assert len(reports) == 1
        r = reports[0]
        assert not r.holds
        assert r.params["error"] == "PrecisionExhausted"
        assert r.lhs == "error"

    def test_gs_cell_ignores_primes(self):
        reports = sweep(SweepConfig(ids=("gs-2.6",), primes=(5, 7), samples=10))
        assert len(reports) == 1
        assert reports[0].p == 0
