import math
import random
import time
import weakref
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apgaps.arith as arith


@lru_cache(maxsize=2)
def cached_prime_power_arrays(limit):
    """arith.prime_power_arrays, kept for oracles that read many classes or moduli at one x (read only)."""
    return arith.prime_power_arrays(limit)


def chebyshev_psi(x, q=1, a=0):
    """Oracle: math.fsum of the von Mangoldt weights over n <= x with n = a (mod q)."""
    P, W = cached_prime_power_arrays(int(x))
    return math.fsum(W[P % q == a % q])


def mobius(n):
    """Oracle: mu(n) from the factorization of n."""
    factors = arith.factorize(n).factors
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def tau(m, d):
    """Oracle: the number of ordered m-tuples of positive integers with product d,
    from the factorization of d: tau(m, p**e) = C(e + m - 1, m - 1)."""
    return math.prod(math.comb(e + m - 1, m - 1) for _, e in arith.factorize(d).factors)


def trial_division_oracle(n):
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_examples():
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(1).factors == ()
    assert arith.factorize(9991).factors == trial_division_oracle(9991) == ((97, 1), (103, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_factorize_large_semiprime():
    n = (10**9 + 7) * (10**9 + 9)
    assert arith.factorize(n).factors == ((10**9 + 7, 1), (10**9 + 9, 1))


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip(n):
    f = arith.factorize(n)
    prod = 1
    for p, e in f.factors:
        assert arith.is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert list(f.primes) == sorted(f.primes)


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=2000))
def test_trial_division_and_least_root_give_the_radical(n, bound):
    rad, m = arith.trial_divide(n, bound)
    root = arith.least_root(m, bound)
    j = 1
    while root**j < m:
        j += 1
    assert root**j == m
    assert rad * arith.radical(root) == arith.radical(n)


def test_least_root_leaves_two_large_primes_unfactored():
    p, q = 100000000000000000039, 300000000000000000053
    assert arith.is_prime(p) and arith.is_prime(q)
    # two primes above the bound: no perfect power, or a power of their product
    assert arith.trial_divide(6 * p * q, 1000) == (6, p * q)
    assert arith.least_root(p * q, 1000) == p * q
    assert arith.least_root((p * q) ** 2, 1000) == p * q
    assert arith.least_root(p**2 * q, 1000) == p**2 * q
    # a prime power, however large, gives its prime
    assert arith.trial_divide(12 * p**5, 1000) == (6, p**5)
    assert arith.least_root(p**5, 1000) == p
    assert arith.least_root(p * p, 10) == p
    assert arith.least_root(1000003**7, 10**6) == 1000003
    assert arith.least_root(1, 1000) == 1


def test_rho_radical_splits_within_a_step_budget():
    p, q = 100000000000000000039, 300000000000000000053
    # factors rho finds in few steps are split; two 21-digit primes are not
    assert arith.rho_radical((10**9 + 7) * (10**11 + 3), 1 << 20) == (10**9 + 7) * (10**11 + 3)
    assert arith.rho_radical((10**9 + 7) ** 3 * (10**11 + 3), 1 << 20) == (10**9 + 7) * (10**11 + 3)
    assert arith.rho_radical(p, 0) == p  # a prime takes no split
    assert arith.rho_radical(p * q, 1 << 12) is None
    assert arith.rho_radical((10**9 + 7) * (10**11 + 3), 0) is None
    assert arith._brent_rho(p * q, 1 << 12) is None


def _miller_rabin(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
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


def test_strong_lucas_pseudoprimes_below_1e5():
    # OEIS A217255: the odd composites below 1e5 that pass the strong Lucas
    # test with Selfridge's parameters
    slpsp = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    odd = range(3, 100_000, 2)
    assert [n for n in odd if arith._strong_lucas(n) and not arith.is_prime(n)] == slpsp
    assert all(arith._strong_lucas(n) for n in odd if arith.is_prime(n))


def test_is_prime_above_2_64_is_baillie_psw():
    p, q = 399165290221, 798330580441
    n = p * q
    assert n == 318665857834031151167461 > 2**64
    # a strong pseudoprime to all twelve witness bases, which the Lucas test splits
    assert _miller_rabin(n, arith._MR_WITNESSES) and not arith._strong_lucas(n)
    assert not arith.is_prime(n)
    assert arith.factorize(n).factors == ((p, 1), (q, 1))
    assert arith.euler_phi(n) == (p - 1) * (q - 1)
    assert arith.radical(n) == n
    for prime in (2**64 + 13, 100000000000000000039, 2**89 - 1, 2**127 - 1):
        assert arith.is_prime(prime)
    assert not arith.is_prime((2**61 - 1) * (2**89 - 1))
    assert not arith.is_prime((2**64 + 13) ** 2)
    # against Miller-Rabin with the first 60 prime bases, probabilistic but
    # fooled by no composite here
    bases = [int(b) for b in arith.primes_in_range(0, 281)]
    assert len(bases) == 60
    for m in range(2**64, 2**64 + 3000):
        assert arith.is_prime(m) == (m % 2 == 1 and _miller_rabin(m, bases)), m


def test_multiplicative_function_examples():
    assert arith.radical(360) == 30
    assert arith.radical(1) == 1
    assert arith.euler_phi(12) == 4
    assert arith.mobius_table(30)[12] == 0
    assert arith.euler_phi(97) == 96
    assert arith.mobius_table(30)[30] == -1


def test_phi_divisor_sum_exhaustive():
    n = 10**4
    phi = np.array([0] + [arith.euler_phi(m) for m in range(1, n + 1)], dtype=np.int64)
    acc = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        acc[d::d] += phi[d]
    assert np.array_equal(acc[1:], np.arange(1, n + 1))
    assert np.array_equal(arith.phi_table(n), phi)


def test_tau_examples():
    for k in (2, 3, 7, 12):
        assert tau(k, 1) == 1
    assert tau(2, 6) == 4
    # ordered triples with product 4, by enumeration
    triples = sum(
        1 for a in range(1, 5) for b in range(1, 5) for c in range(1, 5) if a * b * c == 4
    )
    assert triples == 6
    assert tau(3, 4) == triples


@given(st.integers(2, 6), st.integers(1, 400), st.integers(1, 400))
def test_tau_multiplicative(m, a, b):
    if math.gcd(a, b) == 1:
        assert tau(m, a * b) == tau(m, a) * tau(m, b)


def test_floor_power_examples():
    assert arith.floor_power(1e10, 0.3) == 1000  # the float power floors to 999
    assert arith.floor_power(1024.0, 0.3) == 8
    assert [arith.floor_power(x, b) for x, b in [(1e4, 0.2), (1e5, 0.2), (1e6, 0.2), (1e8, 0.25), (1e8, 0.2)]] == [
        6, 10, 15, 100, 39
    ]
    assert arith.floor_power(0, 0.5) == 0 and arith.floor_power(7.5, 0) == 1
    assert arith.floor_power(2.25, Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        arith.floor_power(-1.0, 0.5)
    with pytest.raises(ValueError):
        arith.floor_power(10.0, 0.1234567)  # denominator 10**7
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            arith.floor_power(x, 0.5)


def test_floor_power_is_the_integer_root():
    assert arith.floor_power(1000, Fraction(1, 3)) == 10
    assert arith.floor_power(999, Fraction(1, 3)) == 9
    assert arith.floor_power(1, Fraction(1, 4)) == 1
    assert arith.floor_power(2**40, Fraction(1, 2)) == 2**20
    for x in (7, 100, 12345):
        for k in (1, 2, 3, 4):
            r = arith.floor_power(x, Fraction(1, k))
            assert r**k <= x < (r + 1) ** k
    for n in range(3000):
        assert arith.floor_power(n, Fraction(1, 2)) == math.isqrt(n)
    root = 10**500 + 3
    assert arith.floor_power(root**7, Fraction(1, 7)) == root
    assert arith.floor_power(root**7 - 1, Fraction(1, 7)) == root - 1
    # far above the float range, Newton's iteration takes milliseconds
    x = 10**4000 + 7
    start = time.perf_counter()
    assert arith.floor_power(x, Fraction(1, 2)) == math.isqrt(x)
    r = arith.floor_power(x, Fraction(1, 3))
    assert time.perf_counter() - start < 0.1
    assert r**3 <= x < (r + 1) ** 3
    # a root below 2 at a large denominator: a seed below the root would
    # overshoot to about x**num / den and then descend by a factor of
    # (den - 1) / den per step, for minutes
    start = time.perf_counter()
    assert arith.floor_power(1e6, 0.0003) == 1
    assert arith.floor_power(1e8, 0.003) == 1
    assert arith.floor_power(2**10000, Fraction(1, 9999)) == 2
    assert arith.floor_power(3**9999 - 1, Fraction(1, 9999)) == 2
    assert time.perf_counter() - start < 0.1


@given(st.integers(0, 10**12), st.integers(0, 40), st.integers(1, 40))
def test_floor_power_bracket(x, num, den):
    e = Fraction(num, den)
    d = arith.floor_power(x, e)
    assert d**den <= x**num < (d + 1) ** den


def test_primes_in_ap_examples():
    def oracle(lo, hi, q, a):
        return [n for n in range(lo + 1, hi + 1) if arith.is_prime(n) and n % q == a]

    assert arith.primes_in_ap(2, 20, 4, 1) == oracle(2, 20, 4, 1) == [5, 13, 17]
    assert arith.primes_in_ap(2, 20, 4, 3) == oracle(2, 20, 4, 3) == [3, 7, 11, 19]
    assert arith.primes_in_ap(2, 20, 1, 0) == oracle(2, 20, 1, 1 % 1)
    # above 2**31 the residues are taken in int64
    assert arith.primes_in_ap(2**31 - 500, 2**31 + 500, 7, 3) == oracle(2**31 - 500, 2**31 + 500, 7, 3)
    # a noncoprime class holds at most the single prime dividing q
    assert arith.primes_in_ap(2, 40, 4, 2) == []
    assert arith.primes_in_ap(1, 40, 4, 2) == [2]


def test_segmented_sieve_matches_trial_division_grid(monkeypatch):
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 1024)
    for lo, hi in [(0, 1000), (100, 1000), (999, 2048), (99000, 100000), (12345, 14345)]:
        got = arith.primes_in_range(lo, hi).tolist()
        want = [n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]
        assert got == want


def test_segment_size_invariance():
    primes, in_ap = arith.primes_in_range(10, 50000).tolist(), arith.primes_in_ap(2, 30000, 7, 3)
    for size in (64, 257, 1000, 1024, 1 << 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "DEFAULT_SEGMENT", size)
            assert arith.primes_in_range(10, 50000).tolist() == primes
            assert arith.primes_in_ap(2, 30000, 7, 3) == in_ap


def plain_sieve_segment(lo, hi, base):
    """Oracle: the marker the wheel sieve replaced, one flag per n in (lo, hi], a stride per base prime."""
    flags = np.ones(hi - lo, dtype=bool)  # offset i is n = lo + 1 + i
    if lo == 0:
        flags[0] = False  # n = 1
    for p in base:
        if p * p > hi:
            break
        # first composite multiple of p above lo, never killing p itself
        start = max(p * p, (lo // p + 1) * p)
        if start <= hi:
            flags[start - lo - 1 :: p] = False
    return lo + 1 + np.flatnonzero(flags).astype(np.int64)


ODD_WHEEL_PRIMES = (3, 5, 7, 11, 13)
ODD_WHEEL = math.prod(ODD_WHEEL_PRIMES)  # 15015 odd numbers, 30030 integers


def odd_sieve_segment(lo, hi, base):
    """Oracle: the odd-only wheel sieve the class sieve replaced, which is its q = 1 case.

    Offset i is n = n0 + 2i, with n0 the first odd number above lo. The flags
    start as a slice of a wheel that has struck the odd multiples of 3 to 13;
    strides mark the primes from 17 to sqrt(hi); 2 and the wheel primes are
    added back.
    """
    n0 = lo + 1 | 1
    count = (hi + 1) // 2 - (lo + 1) // 2
    j0 = (n0 - 1) // 2 % ODD_WHEEL
    period = np.ones(ODD_WHEEL, dtype=bool)
    for p in ODD_WHEEL_PRIMES:
        period[(p - 1) // 2 :: p] = False  # the odd multiples p, 3p, 5p, ...
    flags = np.tile(period, (j0 + count) // ODD_WHEEL + 1)[j0 : j0 + count]
    if lo == 0:
        flags[0] = False  # n = 1
    first, last = np.searchsorted(base, [13, math.isqrt(hi)], side="right")
    ps = base[first:last]
    # first odd composite multiple of p above lo; odd multiples of p are p flags apart
    start = np.maximum(ps * ps, (lo // ps + 1) * ps)
    start += ps * (start % 2 == 0)
    for p, i in zip(ps.tolist(), ((start - n0) // 2).tolist()):
        flags[i::p] = False
    out = np.flatnonzero(flags).astype(np.int64) * 2 + n0
    small = [p for p in (2,) + ODD_WHEEL_PRIMES if lo < p <= hi]
    return np.concatenate([np.array(small, dtype=np.int64), out])


def class_sieve(lo, hi, q, a):
    got = np.concatenate(list(arith.class_segments(lo, hi, q, a)))
    assert got.dtype == np.int64
    return got


def test_sieve_segment_matches_plain_marking():
    period = 2 * ODD_WHEEL  # the wheel repeats every 30030 integers
    cases = [(lo, hi) for lo in range(41) for hi in range(lo + 1, lo + 101)]
    for size in (1, 2, 3, 15015, 30029, 30030, 30031):
        cases += [(lo, lo + size) for lo in (0, 1, 12, 13, 16, 10**6 + 1)]
    for k in (1, 2, 3, 34, 33301):
        for lo in range(k * period - 3, k * period + 4):
            cases += [(lo, lo + 1), (lo, lo + 97), (lo, lo + period + 5)]
    rng = random.Random(20261018)
    for _ in range(30):
        lo = rng.randrange(10**9)
        cases.append((lo, lo + rng.randrange(1, 1 << 17)))
    base = arith._base_primes(math.isqrt(max(hi for _, hi in cases)))
    for lo, hi in cases:
        want = plain_sieve_segment(lo, hi, base)
        np.testing.assert_array_equal(odd_sieve_segment(lo, hi, base), want, err_msg=f"(lo, hi) = ({lo}, {hi})")
        np.testing.assert_array_equal(class_sieve(lo, hi, 1, 0), want, err_msg=f"(lo, hi) = ({lo}, {hi})")


CLASS_MODULI = (1, 2, 3, 4, 6, 15, 16, 30, 210, 15015, 30030, 65537)


def assert_class_sieve(lo, hi, q, classes):
    """Every class a of `classes` against plain marking of (lo, hi] and a % q filter."""
    want = {}
    base = arith._base_primes(math.isqrt(hi))
    for p in plain_sieve_segment(lo, hi, base).tolist():
        want.setdefault(p % q, []).append(p)
    for a in classes:
        assert class_sieve(lo, hi, q, a).tolist() == want.get(a, []), (lo, hi, q, a)


def test_class_sieve_every_class():
    for q in CLASS_MODULI:
        assert_class_sieve(0, 3000, q, range(q))
    # a modulus above hi: each class holds at most its own residue
    assert_class_sieve(0, 3000, 10**6 + 3, [*range(3002), 10**6 + 2])
    assert_class_sieve(2000, 3000, 3001, range(3001))


def test_class_sieve_small_lo():
    # 2 and the wheel primes lie in some classes (e.g. 2 and 5 in 2 mod 3); lo = 0 makes n = 1 a member
    for q in CLASS_MODULI[:8]:
        for lo in range(41):
            for hi in (lo + 1, lo + 2, lo + 7, lo + 60, 400):
                assert_class_sieve(lo, hi, q, range(q))
    for q in (210, 15015, 30030, 65537):
        for lo in range(41):
            assert_class_sieve(lo, 300, q, range(42))


def test_class_sieve_segment_and_wheel_boundaries(monkeypatch):
    cases = ((1, 0), (2, 1), (3, 2), (4, 1), (6, 5), (15, 2), (16, 3), (30, 7), (210, 11), (30030, 1), (65537, 3))
    for size in (1, 2, 3, 64, 257):
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT", size)
        for q, a in cases:
            assert_class_sieve(0, 2000, q, [a])
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 1000)
    for q, a in cases:
        step = q if q % 2 == 0 else 2 * q
        # the wheel of the primes 3 to 13 prime to q repeats every wheel * step numbers
        period = math.prod(p for p in ODD_WHEEL_PRIMES if q % p) * step
        for k in (1, 2):
            for lo in (k * period - 2 * step, k * period - 1, k * period + step):
                assert_class_sieve(max(lo, 0), max(lo, 0) + 3 * step + 5000, q, [a])


def test_class_segments_keep_their_boundaries(monkeypatch):
    # segments of DEFAULT_SEGMENT * step / 2 numbers from lo: DEFAULT_SEGMENT at q = 1, so psi sums keep their order
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 1000)
    for q, a, lo in ((1, 0, 0), (1, 0, 12345), (3, 2, 7), (4, 1, 999), (15, 2, 0)):
        width = 1000 * (q if q % 2 == 0 else 2 * q) // 2
        segments = list(arith.class_segments(lo, lo + 10 * width + 17, q, a))
        assert len(segments) == 11
        for k, seg in enumerate(segments):
            assert ((lo + k * width < seg) & (seg <= lo + (k + 1) * width)).all()


def test_class_segments_keep_no_reference_to_a_yielded_segment():
    # a caller that drops a segment frees it before asking for the next one
    for lo in (0, 100):  # the first segment also takes the small primes of the class
        segments = arith.class_segments(lo, 10**7, 3, 1)
        seg = next(segments)
        held = weakref.ref(seg)
        del seg
        assert held() is None
        segments.close()


def test_class_segments_refuse_an_empty_range_and_a_class_out_of_range():
    # primes_in_range returns empty before it reaches the sieve, so the sieve itself refuses lo == hi
    for lo, hi, q, a in ((5, 5, 1, 0), (0, 10, 3, 3), (-1, 10, 1, 0), (0, 10, 3, -1), (0, 10, 0, 0)):
        with pytest.raises(ValueError):
            next(arith.class_segments(lo, hi, q, a))


def test_class_sieve_random_windows():
    rng = random.Random(20261019)
    for _ in range(40):
        q = rng.choice(CLASS_MODULI + (rng.randrange(1, 10**5),))
        lo = rng.choice((rng.randrange(10**9), rng.randrange(2**31 - 10**5, 2**31 + 10**5)))
        hi = lo + rng.randrange(1, 1 << 16)
        classes = {rng.randrange(q) for _ in range(3)} | {1 % q, (q - 1) % q}
        assert_class_sieve(lo, hi, q, classes)


def test_prime_counts():
    assert len(arith.primes_in_range(0, 10**6)) == 78498
    assert len(arith.primes_in_range(0, 10**7)) == 664579


def test_base_primes_sieved_once_per_range(monkeypatch):
    calls = []
    base_primes = arith._base_primes

    def counting(limit):
        calls.append(limit)
        return base_primes(limit)

    monkeypatch.setattr(arith, "_base_primes", counting)
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 10_000)
    got = arith.primes_in_range(0, 200_000)
    assert calls == [math.isqrt(200_000)]
    assert got.tolist() == [n for n in range(200_001) if arith.is_prime(n)]


def test_chebyshev_psi_examples():
    want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert chebyshev_psi(10) == pytest.approx(want, rel=1e-12)
    assert chebyshev_psi(10, 4, 1) == pytest.approx(math.log(5) + math.log(3), rel=1e-12)
    assert chebyshev_psi(1.5) == 0.0


def test_psi_class_sums_recover_total():
    for x in (1e3, 1e5, 1e6):
        total = chebyshev_psi(x)
        vecs = arith.psi_residue_sums(x, (2, 7, 12, 30))
        for q, vec in zip((2, 7, 12, 30), vecs):
            assert math.fsum(vec) == pytest.approx(total, rel=1e-9)
            psum = math.fsum(chebyshev_psi(x, q, a) for a in range(q))
            assert psum == pytest.approx(total, rel=1e-9)


def test_log_integral_bounds_and_scaling():
    for x in (100.0, 1e4, 5e5):
        y = arith.log_integral_Y1(x, 1)
        assert (x / 2) / math.log(x) < y < (x / 2) / math.log(x / 2)
    for q in (2, 5, 12):
        assert arith.log_integral_Y1(1e4, q) == pytest.approx(
            arith.log_integral_Y1(1e4, 1) / arith.euler_phi(q), rel=1e-12
        )
    with pytest.raises(ValueError):
        arith.log_integral_Y1(3.9)


def test_log_integral_against_independent_quadrature():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    for x in (100.0, 1e5):
        want, _ = scipy_integrate.quad(lambda t: 1 / math.log(t), x / 2, x, epsabs=0, epsrel=1e-12)
        assert arith.log_integral_Y1(x, 1) == pytest.approx(want, rel=1e-9)


def test_prime_power_arrays_consistency():
    P, W = arith.prime_power_arrays(10**4)
    assert int(P[-1]) <= 10**4
    lam = arith.von_mangoldt_table(10**4)
    assert len(P) == np.count_nonzero(lam)
    assert np.all(np.diff(P) > 0)
    for idx in (0, 10, len(P) // 2, len(P) - 1):
        n = int(P[idx])
        assert lam[n] == pytest.approx(W[idx], rel=1e-12)


def higher_prime_powers_by_loop(n, q=1, a=0):
    """Oracle: every p^j <= n with j >= 2 and p^j = a (mod q), p ascending, then j; weights log p."""
    out = []
    for p in range(2, math.isqrt(n) + 1):
        if arith.is_prime(p):
            pk = p * p
            while pk <= n:
                if pk % q == a:
                    out.append((pk, math.log(p)))
                pk *= p
    return out


def test_higher_prime_powers_cached_at_caps_match_the_loop():
    seg = arith.DEFAULT_SEGMENT
    sizes = [0, 1, 3, 4, 5, 8, 9, 1000, seg - 1, seg, seg + 1, 2 * seg - 1, 2 * seg, 2 * seg + 1, 1234567, 3 * seg]
    for n in sizes:
        for q, a in ((1, 0), (4, 0), (6, 3), (7, 2), (30, 19)):
            P, W = arith.higher_prime_powers(n, q, a)
            assert list(zip(P.tolist(), W.tolist())) == higher_prime_powers_by_loop(n, q, a), (n, q, a)
            assert P.dtype == np.int64 and W.dtype == np.float64


def test_class_sieve_large_modulus_and_height():
    # first strikes at heights near 1e12 with moduli up to 2**31: products of int64 arrays stay in range
    for lo, q, a in ((10**12, 10**6 + 3, 17), (2**40 + 7, 2**31 - 1, 5), (10**12 + 39, 2 * 999983, 999983 + 2)):
        hi = lo + 300 * q
        want = [n for n in range(lo + 1 + (a - lo - 1) % q, hi + 1, q) if arith.is_prime(n)]
        assert class_sieve(lo, hi, q, a).tolist() == want, (lo, q, a)


def _residue_sums_by_bincount(x, m):
    """Oracle: one bincount of all prime powers up to x by their residue mod m."""
    P, W = cached_prime_power_arrays(int(math.floor(x)))
    return np.bincount((P % m).astype(np.int64), weights=W, minlength=m)


def test_psi_residue_sums_against_bincount_oracle():
    seg = arith.DEFAULT_SEGMENT
    moduli = [1, 2, 3, 12, 30, 251, 257, 263, 4096, 70001, 140002, 2 * 3 * 5 * 7 * 11 * 13]
    # the lcm of 251, 257 and 263 exceeds the group cap; 70001 is a prime above it
    assert math.lcm(251, 257, 263) > arith._GROUP_BINS
    assert 70001 > arith._GROUP_BINS
    for x in (2.0, 3.5, 1000.0, 2**19, 3**12, seg - 7, seg, 2 * seg + 12345.6):
        got = arith.psi_residue_sums(x, moduli)
        assert [len(v) for v in got] == moduli
        for m, vec in zip(moduli, got):
            want = _residue_sums_by_bincount(x, m)
            np.testing.assert_allclose(vec, want, rtol=1e-12, atol=0)
        assert got[0][0] == pytest.approx(chebyshev_psi(x), rel=1e-12)


def test_psi_residue_sums_against_class_fsum():
    for x in (1e4, 2**19, 3**12, 1_234_567.0):
        moduli = (1, 4, 9, 15, 28, 97)
        for m, vec in zip(moduli, arith.psi_residue_sums(x, moduli)):
            want = [chebyshev_psi(x, m, a) for a in range(m)]
            np.testing.assert_allclose(vec, want, rtol=1e-12, atol=0)


def test_psi_residue_sums_counts_the_prime_power_at_x():
    for x, p in ((2**19, 2), (3**12, 3)):
        below, at = arith.psi_residue_sums(x - 1, [x + 1]), arith.psi_residue_sums(x, [x + 1])
        assert at[0][x] - below[0][x] == pytest.approx(math.log(p), rel=1e-12)


def test_psi_residue_sums_of_one_class_against_filtered_bincount():
    seg = arith.DEFAULT_SEGMENT
    moduli = [1, 2, 5, 7, 16, 251, 257, 263, 70001]
    # 2**19 and 3**12 are prime powers at x; a class of odd q has segments of q * seg numbers, of even q q/2 * seg
    for x in (2**19, 3**12, 3 * seg, 2 * seg):
        P, W = arith.prime_power_arrays(int(x))
        assert P[-1] == x or x % seg == 0
        for q in (3, 4, 12):
            for a in range(q):  # the classes with gcd(a, q) > 1 hold powers of one prime at most
                got = arith.psi_residue_sums(x, moduli, q, a)
                keep = P % q == a
                for m, vec in zip(moduli, got):
                    want = np.bincount(P[keep] % m, weights=W[keep], minlength=m)
                    np.testing.assert_allclose(vec, want, rtol=1e-12, atol=0, err_msg=f"x = {x}, {a} mod {q}, m = {m}")
    for x, p, q in ((2**19, 2, 3), (3**12, 3, 4)):
        a = x % q
        below, at = arith.psi_residue_sums(x - 1, [x + 1], q, a), arith.psi_residue_sums(x, [x + 1], q, a)
        assert at[0][x] - below[0][x] == pytest.approx(math.log(p), rel=1e-12)
        assert arith.psi_residue_sums(x, [x + 1], q, (a + 1) % q)[0][x] == 0.0
    for q, a in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            arith.psi_residue_sums(1e4, [3], q, a)


def test_psi_residue_sums_edges():
    assert arith.psi_residue_sums(1e5, []) == []
    assert [v.tolist() for v in arith.psi_residue_sums(1.5, [1, 3])] == [[0.0], [0.0, 0.0, 0.0]]
    a, b = arith.psi_residue_sums(1e4, [6, 6])
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        arith.psi_residue_sums(1e4, [5, 0])


def test_prime_residue_counts_against_class_filter():
    seg = arith.DEFAULT_SEGMENT
    moduli = [1, 2, 6, 12, 97, 256, 65537]
    # several sieve segments, and a window past 2**31 where residues are taken in int64
    for lo, hi in ((0, 1), (5, 6), (seg - 1000, 3 * seg + 777), (2**31 - 3000, 2**31 + 3000)):
        ps = arith.primes_in_range(lo, hi).tolist()
        got = arith.prime_residue_counts(lo, hi, moduli)
        for m, vec in zip(moduli, got):
            assert vec.dtype == np.int64 and len(vec) == m
            want = np.zeros(m, dtype=np.int64)
            for p in ps:
                want[p % m] += 1
            np.testing.assert_array_equal(vec, want)
        # only the class a mod q: each entry outside it is 0, and (6, 2) holds just the prime 2
        for q, a in ((3, 1), (3, 2), (4, 1), (15, 2), (16, 7), (6, 2)):
            moduli_q = [q * d for d in (1, 2, 5, 7, 16)]
            for m, vec in zip(moduli_q, arith.prime_residue_counts(lo, hi, moduli_q, q, a)):
                want = np.zeros(m, dtype=np.int64)
                for p in ps:
                    if p % q == a:
                        want[p % m] += 1
                np.testing.assert_array_equal(vec, want, err_msg=f"({lo}, {hi}], q = {q}, a = {a}, m = {m}")
    assert arith.prime_residue_counts(0, 100, []) == []
    for lo, moduli in ((0, [3, 0]), (-1, [3])):
        with pytest.raises(ValueError):
            arith.prime_residue_counts(lo, 100, moduli)
    for q, a in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            arith.prime_residue_counts(0, 100, [3], q, a)


def test_modulus_groups_cover():
    moduli = [3 * d for d in range(1, 101) if d % 3] + [1, 65536, 65537, 131074, 200000]
    group_of = arith._modulus_groups(moduli)
    assert set(group_of) == set(moduli)
    for m, M in group_of.items():
        assert M % m == 0
        assert M <= arith._GROUP_BINS or M in group_of
    assert group_of[65537] == 131074  # a divisor joins a group above the cap
    assert len(set(group_of.values())) < len(moduli) // 3
    # the moduli of bv --q 3 --b 0.25 at x = 1e8: by q*d on the single pass, by d alone on the class path
    assert len(set(arith._modulus_groups([3 * d for d in range(1, 101) if d % 3]).values())) == 13
    assert len(set(arith._modulus_groups([d for d in range(1, 101) if d % 3]).values())) == 11


def gcd_reduced_residue_mask(m):
    """Oracle: the former reduced_residue_mask, one gcd per residue."""
    return np.gcd(np.arange(m, dtype=np.int64), m) == 1


def test_reduced_residue_mask_against_gcd():
    for m in [*range(1, 3001), 2**16, 3**10, 2 * 3 * 5 * 7 * 11 * 13, 65537, 99991 * 3, 2**5 * 99991]:
        got = arith.reduced_residue_mask(m)
        assert got.dtype == bool and np.array_equal(got, gcd_reduced_residue_mask(m)), m


def loop_phi_table(n):
    """Oracle: the former phi_table, one strided update per prime <= n."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in arith.primes_in_range(0, n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def loop_mobius_table(n):
    """Oracle: the former mobius_table, one or two strided updates per prime <= n."""
    mu = np.ones(n + 1, dtype=np.int64)
    for p in arith.primes_in_range(0, n).tolist():
        mu[p::p] *= -1
        sq = p * p
        if sq <= n:
            mu[sq::sq] = 0
    if n >= 0:
        mu[0] = 0
    return mu


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 25, 49, 10**4 + 7])
def test_phi_and_mobius_tables_against_pointwise(n):
    phi, mu = arith.phi_table(n), arith.mobius_table(n)
    assert np.array_equal(phi, [0] + [arith.euler_phi(m) for m in range(1, n + 1)])
    assert np.array_equal(mu, [0] + [mobius(m) for m in range(1, n + 1)])


def test_phi_and_mobius_tables_against_loop_oracles():
    for n in [-1, *range(0, 130), 961, 962, 3**9, 10**5 + 3]:
        assert np.array_equal(arith.phi_table(n), loop_phi_table(n)), n
        assert np.array_equal(arith.mobius_table(n), loop_mobius_table(n)), n


@pytest.mark.parametrize("n", [2, 3, 10, 48, 49, 50, 1000, 10**4 + 7])
def test_large_prime_multiples_meets_each_multiple_once(n):
    ps = arith.primes_in_range(math.isqrt(n), n)
    seen = np.zeros(n + 1, dtype=np.int64)
    for k, ms in arith.large_multiples(ps, n):
        assert np.all(ms // ps[:k] * ps[:k] == ms) and np.all(ms <= n)
        assert np.all(np.diff(ms) > 0)
        seen[ms] += 1
    # exactly the m <= n with a prime factor above sqrt(n)
    want = [0] + [int(max(arith.factorize(m).primes, default=1) ** 2 > n) for m in range(1, n + 1)]
    assert np.array_equal(seen, want)
    # composite values: every pair (c, v) with c * v <= n, once, c ascending
    values = np.arange(math.isqrt(n) + 1, n + 1, 3)
    pairs = [(c, int(m) // c) for c, (_, ms) in enumerate(arith.large_multiples(values, n), 1) for m in ms.tolist()]
    assert pairs == sorted((c, v) for v in values.tolist() for c in range(1, n // v + 1))


def test_large_prime_multiples_rejects_small_primes():
    with pytest.raises(ValueError, match="need values above sqrt"):
        list(arith.large_multiples(np.array([7, 11]), 49))
    assert list(arith.large_multiples(np.array([], dtype=np.int64), 49)) == []


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_residues_match_percent(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(7)
    a = np.concatenate(
        [
            rng.integers(info.min, info.max, size=5000, dtype=dtype, endpoint=True),
            np.array([info.min, info.min + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1, info.max], dtype=dtype),
        ]
    )
    for m in (1, 2, 3, 65536, 2**31 - 1):
        got = arith.residues(a, m)
        assert got.dtype == a.dtype
        assert np.array_equal(got, a % dtype(m)), m
