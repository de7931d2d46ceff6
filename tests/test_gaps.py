import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apgaps.arith as arith
import apgaps.gaps as gaps
from apgaps.arith import DEFAULT_SEGMENT, is_prime, primes_in_range
from apgaps.variational import CertificateCapExceeded, VariationalCertificate, mk_lower_bound


def test_level_values():
    assert gaps.level_L_exact(Fraction(1, 3)) == Fraction(1, 6)
    assert gaps.level_L_exact(Fraction(41, 100)) == Fraction(1, 25)
    assert gaps.level_L_exact(Fraction(1, 3), Fraction(1, 1000)) == Fraction(1, 2) - Fraction(1, 3) - Fraction(
        1, 1000
    )


def test_level_branch_boundary_uses_second_branch():
    eps = Fraction(1, 100)
    theta = Fraction(2, 5) - eps
    assert gaps.level_L_exact(theta, eps) == Fraction(9, 20) - theta - eps
    # strictly below the boundary the first branch applies
    theta2 = theta - Fraction(1, 1000)
    assert gaps.level_L_exact(theta2, eps) == Fraction(1, 2) - theta2 - eps


def test_level_domain():
    with pytest.raises(ValueError, match="theta"):
        gaps.level_L_exact(Fraction(43, 100), Fraction(1, 1000))
    with pytest.raises(ValueError, match="eps"):
        gaps.level_L_exact(Fraction(3, 10), Fraction(6, 100))
    # gap's eps must be positive as well: validate_config says so, with the other constraint errors
    for eps, error in ((0.0, "need 0 < eps < 1/20"), (0.05, "need 0 < eps < 1/20"), (math.nan, "need finite eps")):
        cfg = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=2, eta=1 / 12, eps=eps)
        assert gaps.validate_config(cfg) == [error]
        with pytest.raises(ValueError, match=error):
            gaps.gap_bound(cfg, _fake_table([(1, 1.0)]))


def test_abstract_rate_identity():
    assert gaps.exponent_rate_exact(Fraction(2, 5)) == 40
    assert gaps.abstract_B_consistency(Fraction(2, 5))
    assert gaps.abstract_B_consistency(0.42)
    assert 2 / (Fraction(9, 20) - Fraction(21, 50)) == Fraction(200, 3)
    for num in range(40, 45):
        assert gaps.abstract_B_consistency(Fraction(num, 100))


def test_D0_guard_and_monotonicity():
    with pytest.raises(ValueError):
        gaps.D0(2 * math.exp(math.exp(math.e)))
    xs = [2 * math.exp(math.exp(math.exp(1.1 + 0.2 * i))) for i in range(4)]
    vals = [gaps.D0(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0


def test_validate_config():
    cfg = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=2, eta=1 / 12)
    assert gaps.validate_config(cfg) == []
    bad = gaps.GapConfig(x=1e10, q=9973, a=1, t=2)
    errs = gaps.validate_config(bad)
    assert any("radical" in e for e in errs)
    noncoprime = gaps.GapConfig(x=2.0**60, q=2**20, a=2, t=1, eta=1 / 12)
    assert any("gcd" in e for e in errs + gaps.validate_config(noncoprime))


def test_validate_config_decides_the_radical_cap_by_trial_division():
    # q = p1 p2 >= 2**64 with both primes above (log x)^2: refused without splitting q
    q = 8589934609 * 8589935597
    errs = gaps.validate_config(gaps.GapConfig(x=1e60, q=q, a=1, t=1))
    assert errs == [f"radical(q) exceeds (log x)^C = {math.log(1e60) ** 2:.6g}: q has a prime factor above it"]
    # a radical found on the way keeps its value in the message
    errs = gaps.validate_config(gaps.GapConfig(x=1e10, q=9973, a=1, t=1, C=1))
    assert errs == ["radical(q) = 9973 exceeds (log x)^C = 23.0259"]
    assert gaps.validate_config(gaps.GapConfig(x=1e200, q=2**40 * 3**20 * 7, a=1, t=1)) == []
    # a cofactor >= 2**64 left by trial division to the cap decides at once: no root or primality test
    start = time.perf_counter()
    errs = gaps.validate_config(gaps.GapConfig(x=1e300, q=10**4000 + 7, a=1, t=1))
    assert time.perf_counter() - start < 1
    assert errs[-1] == f"radical(q) exceeds (log x)^C = {math.log(1e300) ** 2:.6g}: q has a prime factor above it"
    # above the trial cap it takes the cofactor's root, and still no primality test
    start = time.perf_counter()
    errs = gaps.validate_config(gaps.GapConfig(x=1e300, q=10**4000 + 7, a=1, t=1, C=3))
    assert time.perf_counter() - start < 1
    assert errs[-1].endswith("no prime factor up to 1000000, not a perfect power, so radical(q) > 1 * 1000000**2")
    # so does a prime-power cofactor >= 2**64 of a prime below 2**64
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=(2**61 - 1) ** 2, a=1, t=1))
    assert errs == [f"radical(q) exceeds (log x)^C = {math.log(1e200) ** 2:.6g}: q has a prime factor above it"]


def test_validate_config_bounds_the_radical_check_above_the_trial_cap():
    # (log 1e200)^3 ~ 9.8e7 > RADICAL_TRIAL_CAP: trial division to 1e6, then an exact
    # root test of the cofactor, which decides below RADICAL_TRIAL_CAP**2 without rho
    cap = math.log(1e200) ** 3
    assert gaps.RADICAL_TRIAL_CAP < cap < gaps.RADICAL_TRIAL_CAP**2
    q = (10**9 + 7) * (10**11 + 3)
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=q, a=1, t=1, C=3))
    assert errs == [
        f"radical(q) exceeds (log x)^C = {cap:.6g}: q has a factor above 2**64 with no prime factor "
        f"up to {gaps.RADICAL_TRIAL_CAP}, not a perfect power, so radical(q) > 1 * {gaps.RADICAL_TRIAL_CAP}**2"
    ]
    # a prime-power cofactor gives the radical exactly
    assert gaps.validate_config(gaps.GapConfig(x=1e200, q=2**5 * 9999991**3, a=1, t=1, C=3)) == []
    # two 21-digit primes: no prime power, so radical(q) > RADICAL_TRIAL_CAP**2 > cap
    big = 30000000000000000017000000000000000002067
    assert gaps.validate_config(gaps.GapConfig(x=1e200, q=big, a=1, t=1, C=3)) == errs
    # so does a prime cofactor above 2**64, with no primality test
    p = 100000000000000000039
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=6 * p, a=1, t=1, C=3))
    assert errs == [
        f"radical(q) exceeds (log x)^C = {cap:.6g}: q has a factor above 2**64 with no prime factor "
        f"up to {gaps.RADICAL_TRIAL_CAP}, not a perfect power, so radical(q) > 6 * {gaps.RADICAL_TRIAL_CAP}**2"
    ]
    # the primes divided out times the cap reach (log x)^C: no root or primality test
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=2310 * q, a=1, t=1, C=3))
    assert errs == [
        f"radical(q) exceeds (log x)^C = {cap:.6g}: q has a prime factor above "
        f"{gaps.RADICAL_TRIAL_CAP}, so radical(q) > 2310 * {gaps.RADICAL_TRIAL_CAP}"
    ]
    # (log 1e200)^5 ~ 2.1e13 > RADICAL_TRIAL_CAP**2: rho within its step budget decides both ways
    cap = math.log(1e200) ** 5
    assert cap > gaps.RADICAL_TRIAL_CAP**2
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=q, a=1, t=1, C=5))
    assert errs == [f"radical(q) = {q} exceeds (log x)^C = {cap:.6g}"]
    assert gaps.validate_config(gaps.GapConfig(x=1e200, q=(1000003 * 1000033) ** 2, a=1, t=1, C=5)) == []
    # rho does not split two 21-digit primes: the question stays open, an error
    errs = gaps.validate_config(gaps.GapConfig(x=1e200, q=big, a=1, t=1, C=5))
    assert errs == [
        f"radical(q) <= (log x)^C = {cap:.6g} is undecided: q has a factor above 2**64 with no prime factor "
        f"up to {gaps.RADICAL_TRIAL_CAP} that rho did not split in {gaps.RADICAL_RHO_STEPS} steps"
    ]
    # radical(q) <= q, so a q below the cap needs no factoring
    assert gaps.validate_config(gaps.GapConfig(x=1e10, q=3, a=1, t=1, C=1e300)) == []


def test_admissible_construction_examples():
    assert gaps.admissible_primes_past_k(1).shifts == (0,)
    assert gaps.admissible_primes_past_k(2).shifts == (0, 2)
    assert gaps.admissible_primes_past_k(3).shifts == (0, 2, 6)


@settings(max_examples=25)
@given(st.integers(1, 60))
def test_admissible_construction_roundtrip(k):
    tup = gaps.admissible_primes_past_k(k)
    assert len(tup.shifts) == k and tup.shifts[0] == 0
    res = gaps.is_admissible(tup.shifts)
    assert res.admissible
    for p, avoided in tup.certificate.items():
        assert all(h % p != avoided for h in tup.shifts)


def test_admissible_construction_certificate_is_the_checked_one():
    for k in range(1, 61):
        tup = gaps.admissible_primes_past_k(k)
        assert tup.certificate == gaps.is_admissible(tup.shifts).certificate, k


def test_is_admissible_examples():
    assert gaps.is_admissible((0, 2)).admissible
    r = gaps.is_admissible((0, 1))
    assert not r.admissible and r.violating_prime == 2
    r = gaps.is_admissible((0, 2, 4))
    assert not r.admissible and r.violating_prime == 3
    with pytest.raises(ValueError):
        gaps.is_admissible((2, 0))


def _fake_table(pairs):
    return [
        VariationalCertificate(
            k=k, degree=1, basis=((),), coefficients=(1.0,), exact_bound=Fraction(lb)
        )
        for k, lb in pairs
    ]


def test_gap_bound_reports():
    table = [mk_lower_bound(k, 2) for k in range(1, 5)]
    cfg = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=1, eta=1 / 12)
    rep = gaps.gap_bound(cfg, table)
    assert rep.k == 1
    assert rep.tuple_diameter == 0 and rep.scaled_diameter == 0
    assert rep.bound == pytest.approx(2**20 * math.exp(2 / rep.L), rel=1e-12)
    assert rep.threshold == 0.0


def test_gap_bound_reports_fits_D0():
    table = _fake_table([(1, 1.0)])
    # log log log(x/2) < 1 at x = 1e5: D0's domain guard fails, so the tuple does not fit
    small = gaps.gap_bound(gaps.GapConfig(x=1e5, q=2, a=1, t=1), table)
    assert not small.fits_D0
    with pytest.raises(ValueError, match="domain guard"):
        gaps.D0(1e5)
    large = gaps.gap_bound(gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=1, eta=1 / 12), table)
    assert large.fits_D0 and large.tuple_diameter < gaps.D0(2.0**60)


def test_gap_bound_monotone_in_t():
    table = _fake_table([(1, 1.0), (2, 13.0), (4, 25.0), (8, 37.0), (16, 50.0)])
    cfg0 = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=1, eta=1 / 12)
    reports = []
    for t in (1, 2, 3, 4):
        cfg = gaps.GapConfig(x=cfg0.x, q=cfg0.q, a=1, t=t, eta=1 / 12)
        reports.append(gaps.gap_bound(cfg, table))
    ks = [r.k for r in reports]
    bounds = [r.bound for r in reports]
    assert ks == sorted(ks)
    assert bounds == sorted(bounds)


def test_gap_bound_selects_k_from_exact_threshold():
    cfg = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=2, eta=1 / 12)
    L_exact = gaps.level_L_exact(Fraction(cfg.theta), Fraction(cfg.eps)) + Fraction(cfg.eps) / 2
    threshold = 2 / L_exact
    delta = Fraction(1, 10**40)
    above, below = threshold * (1 + delta), threshold * (1 - delta)
    # the float renderings cannot tell the two apart; the exact values can
    assert float(above) == float(below)
    chosen = [gaps.gap_bound(cfg, _fake_table([(2, bound), (3, 2 * threshold)])).k for bound in (above, below)]
    assert chosen == [2, 3]


def test_gap_bound_propagates_cap():
    table = [mk_lower_bound(k, 1) for k in range(1, 5)]
    cfg = gaps.GapConfig(x=2.0**60, q=2**20, a=1, t=40, eta=1 / 12)
    with pytest.raises(CertificateCapExceeded):
        gaps.gap_bound(cfg, table)


def test_gap_bound_rejects_invalid_config():
    table = [mk_lower_bound(k, 1) for k in range(1, 3)]
    with pytest.raises(ValueError):
        gaps.gap_bound(gaps.GapConfig(x=1e10, q=9973, a=1, t=1), table)


def naive_constellation(x, q, a, t):
    ps = [n for n in range(int(x / 2) + 1, int(x) + 1) if is_prime(n) and (q == 1 or n % q == a)]
    if len(ps) < t:
        return None
    return min(ps[i + t - 1] - ps[i] for i in range(len(ps) - t + 1))


def loop_constellation(x, q, a, t):
    """Oracle: the scan over a list of primes that constellation_search replaced."""
    ps = [p for p in primes_in_range(int(math.floor(x / 2)), int(math.floor(x))).tolist() if p % q == a % q]
    if len(ps) < t:
        return gaps.ConstellationResult(False, len(ps), None, ())
    best_i = 0
    best = ps[t - 1] - ps[0]
    for i in range(1, len(ps) - t + 1):
        g = ps[i + t - 1] - ps[i]
        if g < best:
            best, best_i = g, i
    return gaps.ConstellationResult(True, len(ps), best, tuple(ps[best_i : best_i + t]))


def test_constellation_matches_loop_oracle():
    cases = [(1, 0), (2, 1), (4, 1), (4, 3), (5, 2), (7, 3), (12, 11), (30, 7)]
    # (x/2, x] of the last x spans three sieve segments
    for x in (30.0, 1000.0, 123457.5, 5 * DEFAULT_SEGMENT + 4321.5):
        for q, a in cases:
            for t in (1, 2, 3, 4):
                got = gaps.constellation_search(x, q, a, t)
                assert got == loop_constellation(x, q, a, t)
                assert all(type(p) is int for p in got.primes) and type(got.count) is int
    # (15, 30] holds only 17, 23 and 29 from the class 2 mod 3: fewer than t = 4 primes
    got = gaps.constellation_search(30.0, 3, 2, 4)
    assert got == loop_constellation(30.0, 3, 2, 4)
    assert not got.found and got.count == 3


def test_constellation_streams_across_segments():
    # (x/2, x] spans three sieve segments at q = 1, two at q = 4; the class is walked one at a time
    x = 5 * DEFAULT_SEGMENT + 4321.5
    lo = int(math.floor(x / 2))
    boundaries = (lo + DEFAULT_SEGMENT, lo + 2 * DEFAULT_SEGMENT)
    for q, a in ((1, 0), (4, 3), (30, 7)):
        for t in (1, 2, 3, 5):
            assert gaps.constellation_search(x, q, a, t) == loop_constellation(x, q, a, t)
    # the only minimal window straddles lo + DEFAULT_SEGMENT or lo + 2 DEFAULT_SEGMENT, a segment boundary
    # of the odd numbers; the class sieve's own boundaries are in test_constellation_streams_class_segments
    for q, a, t, boundary in ((30011, 3, 2, boundaries[0]), (3001, 5, 5, boundaries[1])):
        got = gaps.constellation_search(x, q, a, t)
        assert got == loop_constellation(x, q, a, t)
        assert got.primes[0] <= boundary < got.primes[-1]
    # twin primes tie in every segment: the first window wins
    got = gaps.constellation_search(x, 1, 0, 2)
    assert got == loop_constellation(x, 1, 0, 2) and got.gap == 2
    assert got.primes[-1] <= boundaries[0]
    later = primes_in_range(boundaries[1], int(math.floor(x)))
    assert (later[1:] - later[:-1] == 2).any()
    # a class that holds one prime (3000017) or none in all three segments
    q = 10**7 + 19
    for a, count in ((3000017, 1), (3000019, 0)):
        got = gaps.constellation_search(x, q, a, 2)
        assert got == loop_constellation(x, q, a, 2)
        assert not got.found and got.count == count
        assert gaps.constellation_search(x, q, a, 1) == loop_constellation(x, q, a, 1)


def test_constellation_streams_class_segments(monkeypatch):
    # the class is sieved in segments of DEFAULT_SEGMENT * q (odd q) or DEFAULT_SEGMENT * q / 2 (even q)
    # numbers; small segments make windows straddle many of them, also in classes that share wheel primes with q
    x = 20000.5
    want = {
        (q, a, t): loop_constellation(x, q, a, t)
        for q, a in ((1, 0), (3, 2), (4, 1), (15, 2), (16, 7), (30, 7), (30030, 1))
        for t in (1, 2, 3, 5)
    }
    for segment in (3, 64, 1000):
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT", segment)
        for (q, a, t), result in want.items():
            assert gaps.constellation_search(x, q, a, t) == result, (segment, q, a, t)


def test_constellation_rejects_non_finite_x():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="need finite x"):
            gaps.constellation_search(x, 4, 1, 2)


def test_constellation_examples():
    res = gaps.constellation_search(100, 1, 0, 2)
    assert res.found and res.gap == 2 and res.primes == (59, 61)
    assert gaps.constellation_search(100, 1, 0, 1).gap == 0
    res = gaps.constellation_search(1e6, 5, 2, 3)
    assert res.gap == naive_constellation(1e6, 5, 2, 3)


def test_constellation_not_enough_primes():
    res = gaps.constellation_search(30, 15, 1, 3)
    assert not res.found and res.gap is None and res.count < 3


def test_constellation_deterministic():
    a = gaps.constellation_search(2e5, 7, 3, 4)
    b = gaps.constellation_search(2e5, 7, 3, 4)
    assert a == b


@settings(max_examples=20)
@given(st.data())
def test_constellation_matches_naive(data):
    q = data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 12]))
    units = [a for a in range(q)] if q == 1 else [a for a in range(1, q) if math.gcd(a, q) == 1]
    a = data.draw(st.sampled_from(units)) if q > 1 else 0
    x = data.draw(st.integers(50, 20000))
    t = data.draw(st.integers(1, 4))
    res = gaps.constellation_search(float(x), q, a, t)
    want = naive_constellation(float(x), q, a, t)
    assert (res.gap if res.found else None) == want
