import bisect
import math
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apgaps.arith as arith
import apgaps.bv_sums as bv
from apgaps.arith import (
    euler_phi,
    factorize,
    log_integral_Y1,
    prime_power_arrays,
    primes_in_range,
    von_mangoldt_table,
)
from apgaps.checks import check_sandwich
from apgaps.reports import ERROR_SUM_CSV_HEADER
from test_arith import cached_prime_power_arrays, chebyshev_psi, mobius, tau
from test_comb_lemmas import _returns_in_time


def _class_prime_powers(x, r, a):
    P, W = cached_prime_power_arrays(int(math.floor(x)))
    return [(int(p), float(w)) for p, w in zip(P, W) if r == 1 or p % r == a % r]


def test_smoothed_R_small_and_empty():
    assert bv.smoothed_R(1.5) == 0.0
    want = math.fsum(w * math.log(10 / p) for p, w in _class_prime_powers(10, 1, 0))
    assert bv.smoothed_R(10) == pytest.approx(want, rel=1e-12)


def test_smoothed_R_integral_representation():
    # R(x; r, a) equals the integral of psi(y; r, a) dy/y, integrated exactly
    # between the jumps of the step function psi
    def integral_oracle(x, r, a):
        pw = _class_prime_powers(x, r, a)
        total, running, prev = [], 0.0, 1.0
        for p, w in pw:
            total.append(running * (math.log(p) - math.log(prev)))
            running += w
            prev = p
        total.append(running * (math.log(x) - math.log(prev)))
        return math.fsum(total)

    for x, r, a in [(1000.0, 1, 0), (5000.0, 3, 1), (12000.0, 4, 3), (33333.3, 10, 7)]:
        assert bv.smoothed_R(x, r, a) == pytest.approx(integral_oracle(x, r, a), rel=1e-6, abs=1e-6)


def test_sandwich_examples():
    ok, lo, psi, hi = bv.sandwich_check(1e4, 3, 1, 0.01)
    assert ok and lo <= psi <= hi
    # below the first prime of the class everything vanishes
    ok, lo, psi, hi = bv.sandwich_check(2.0, 7, 3, 0.1)
    assert ok and lo == psi == hi == 0.0
    for lam in (1.0, 0.1, 0.01):
        assert bv.sandwich_check(1e4, 3, 1, lam)[0]
    with pytest.raises(ValueError):
        bv.sandwich_check(100, 1, 0, 0.0)
    # x >= 1, but the lower end x e^-lam of the sandwich is below 1
    with pytest.raises(ValueError, match=r"^need x \* exp\(-lam\) >= 1$"):
        bv.sandwich_check(1.5, 1, 0, 0.5)


@settings(max_examples=30)
@given(
    st.floats(min_value=100.0, max_value=1e5),
    st.integers(1, 20),
    st.floats(min_value=0.01, max_value=1.0),
    st.data(),
)
def test_sandwich_random(x, r, lam, data):
    a = data.draw(st.integers(0, r - 1)) if r > 1 else 0
    assert bv.sandwich_check(x, r, a, lam)[0]


_ORACLE_CAP = 1 << 20  # the sandwich oracle's prime-power arrays are built to multiples of this


def prime_powers_upto(n):
    """arith.prime_power_arrays(n), sliced from the arrays of the cap above n, which nearby n share."""
    P, W = cached_prime_power_arrays(-(-n // _ORACLE_CAP) * _ORACLE_CAP)
    k = int(np.searchsorted(P, n, side="right"))
    return P[:k], W[:k]


def oracle_smoothed_R(x, r, a):
    """bv.smoothed_R(x, r, a) from the shared prime-power arrays: the dense class, one math.fsum."""
    if x < 1:
        raise ValueError("need x >= 1")
    P, W = prime_powers_upto(int(math.floor(x)))
    if r > 1:
        keep = P % r == a % r
        P, W = P[keep], W[keep]
    if len(P) == 0:
        return 0.0
    return math.fsum(W * (math.log(x) - np.log(P.astype(np.float64))))


def test_oracle_smoothed_R_is_smoothed_R():
    for x, r, a in ((1.0, 1, 0), (10.0, 1, 0), (12345.6, 7, 3), (2**20 + 0.5, 1, 0), (2.5e6, 12, 5)):
        assert oracle_smoothed_R(x, r, a) == bv.smoothed_R(x, r, a), (x, r, a)


def test_smoothed_R_streams_its_class():
    # one streamed exact sum (bv._class_sums): a few MiB traced at x = 4e6, where a dense Lambda table takes 37 MiB
    for r, a in ((1, 0), (3, 1), (30, 7)):
        tracemalloc.start()
        try:
            got = bv.smoothed_R(4e6, r, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, (r, a, peak)
        assert got == oracle_smoothed_R(4e6, r, a), (r, a)
        for x in (1.0, 1.5):
            assert bv.smoothed_R(x, r, a) == oracle_smoothed_R(x, r, a) == 0.0, (x, r, a)


def oracle_sandwich(x, r, a, lam, slack=1e-9):
    """The sandwich as three smoothed_R sums and one psi sum over the shared prime-power arrays."""
    if lam <= 0:
        raise ValueError("need lam > 0")
    r_mid = oracle_smoothed_R(x, r, a)
    lower = (r_mid - oracle_smoothed_R(x * math.exp(-lam), r, a)) / lam
    upper = (oracle_smoothed_R(x * math.exp(lam), r, a) - r_mid) / lam
    P, W = prime_powers_upto(int(x))
    psi = math.fsum(W[P % r == a % r])
    ok = lower <= psi + slack and psi <= upper + slack
    return ok, lower, psi, upper


def test_sandwich_matches_separate_sums_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = float(rng.uniform(1.5, 3e5))
        r = int(rng.integers(1, 40))
        a = int(rng.integers(0, r)) if r > 1 else int(rng.integers(0, 5))
        lam = float(rng.uniform(0.001, 1.0))
        if x * math.exp(-lam) < 1:
            continue
        assert bv.sandwich_check(x, r, a, lam) == oracle_sandwich(x, r, a, lam)
    # windows across a segment-aligned cap of the oracle's prime powers too
    for x, r, a, lam in ((1048575.5, 7, 3, 0.5), (2**20 + 0.5, 1, 0, 1.0), (3.0, 2, 1, 0.9)):
        assert bv.sandwich_check(x, r, a, lam) == oracle_sandwich(x, r, a, lam)


def test_sandwich_streams_across_class_sieve_segments(monkeypatch):
    # a segment holds DEFAULT_SEGMENT * step / 2 numbers, step = r for even r and 2r for odd r:
    # each x e^lam here lies past the end of the first segment, x e^-lam before it
    seg = arith.DEFAULT_SEGMENT
    for x, r, a, lam in ((0.97 * seg, 1, 0, 0.05), (seg - 0.5, 2, 1, 0.01), (2.95 * seg, 3, 2, 0.04)):
        edge = seg * (r if r % 2 == 0 else 2 * r) // 2
        assert x * math.exp(-lam) < edge < x * math.exp(lam)
        assert bv.sandwich_check(x, r, a, lam) == oracle_sandwich(x, r, a, lam)
    # short segments put the cuts at x e^-lam, x and x e^lam in different segments, mid-segment
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 64)
    for x, r, a, lam in ((5000.0, 1, 0, 0.3), (7777.7, 4, 3, 0.2), (4321.0, 15, 7, 0.5), (999.9, 30, 1, 0.9)):
        assert bv.sandwich_check(x, r, a, lam) == oracle_sandwich(x, r, a, lam)


def test_sandwich_nonreduced_classes():
    # gcd(a, r) > 1: the class holds at most one prime and the powers of primes dividing gcd(a, r)
    for r, a in ((4, 0), (6, 3), (9, 3), (10, 5), (12, 8)):
        for x, lam in ((2.5, 0.05), (100.0, 0.5), (54321.0, 0.3), (2e5, 1.0)):
            got = bv.sandwich_check(x, r, a, lam)
            assert got == oracle_sandwich(x, r, a, lam), (r, a, x, lam)
    assert bv.sandwich_check(100.0, 4, 0, 0.5)[2] == math.fsum([math.log(2)] * 5)  # 4, 8, 16, 32, 64


def test_sandwich_rejects_a_modulus_below_one_and_a_nonfinite_x():
    for r in (0, -3):
        with pytest.raises(ValueError, match=r"^need r >= 1$"):
            bv.sandwich_check(100, r, 0, 0.1)
    for x in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match=r"^need finite x$"):
            bv.sandwich_check(x, 3, 1, 0.1)


# finite floats from 2**-1074 (subnormal) to the largest float in magnitude, both signs
_MAX_FLOAT = 1.7976931348623157e308
_wide_floats = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.integers(-1070, 1024)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0, -1.0, _MAX_FLOAT, -_MAX_FLOAT]),
)


def bincount_exact_int(a):
    """Oracle: the former _exact_int, mantissas binned by binary exponent.

    Each term is m * 2**E with 1/2 <= |m| < 1 and E >= -1073; m * 2**27
    splits into its floor h, |h| <= 2**27, and a fraction f in [0, 1) that is
    a multiple of 2**-26. The h and the f are summed per exponent E by two
    float bincounts, exact while a bin holds at most 2**26 terms; the bins
    combine as Python ints, in units of 2**-1126.
    """
    mant, exps = np.frexp(np.asarray(a, dtype=np.float64))
    if not mant.size:
        return 0
    assert mant.size <= 1 << 26
    base = int(exps.min())
    exps -= base
    mant = np.ldexp(mant, 27, out=mant)
    high = np.floor(mant)
    mant -= high  # the fraction f, in [0, 1)
    highs = np.bincount(exps, high).tolist()
    fracs = np.bincount(exps, mant).tolist()
    total = sum(((int(h) << 26) + int(f * 2**26)) << k for k, (h, f) in enumerate(zip(highs, fracs)) if h or f)
    return total << (base + 1073)


def assert_exact_sum(a):
    """_exact_sum(a) == math.fsum(a); where fsum's partial sums overflow (they can on a finite
    exact sum), _exact_int(a) is the oracle's integer instead."""
    try:
        want = math.fsum(a)
    except OverflowError:
        assert arith._exact_int(a) == bincount_exact_int(a)
    else:
        assert arith._exact_sum(a) == want


@settings(max_examples=200)
@given(st.lists(_wide_floats, max_size=60))
def test_exact_sum_equals_fsum(terms):
    a = np.array(terms, dtype=np.float64)
    assert_exact_sum(a)
    # full cancellation, mixed signs
    assert arith._exact_sum(np.concatenate([a, -a[::-1]])) == 0.0


def test_exact_sum_edges():
    assert arith._exact_sum(np.array([])) == math.fsum([]) == 0.0
    for terms in (
        [5e-324],
        [5e-324] * 3,
        [1e-310, -5e-324],
        [-0.0],
        [1.0, 1e-16, 1e-16],
        [2.0**1000, -(2.0**1000), 2.0**-1070],
        [2.0**1023, -(2.0**1023), 5e-324],
        [_MAX_FLOAT, -_MAX_FLOAT, -5e-324],
        [_MAX_FLOAT, -(2.0**970), 2.0**970],
    ):
        assert arith._exact_sum(np.array(terms)) == math.fsum(terms)
    # partial sums past the float range, exact sum inside it
    terms = [_MAX_FLOAT] * 3 + [-_MAX_FLOAT] * 3 + [5e-324]
    assert arith._exact_int(np.array(terms)) == bincount_exact_int(terms) == 1 << 52
    assert arith._exact_sum(np.array(terms)) == 5e-324
    # a sum past the float range still overflows
    for terms in ([_MAX_FLOAT, _MAX_FLOAT], [_MAX_FLOAT, 2.0**970]):
        with pytest.raises(OverflowError):
            math.fsum(terms)
        with pytest.raises(OverflowError):
            arith._exact_sum(np.array(terms))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^need finite terms$"):
            arith._exact_int(np.array([1.0, bad]))


@settings(max_examples=30)
@given(st.lists(_wide_floats, min_size=1, max_size=40), st.integers(1, 7))
def test_exact_sum_chunked_path(terms, chunk):
    # a chunk shorter than the input sends it through several extraction buffers
    a = np.array(terms * 3, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_EXTRACT_CHUNK", min(chunk, len(a) - 1))
        assert_exact_sum(a)


@settings(max_examples=100)
@given(st.integers(1, 8).flatmap(lambda c: st.tuples(st.just(c), st.lists(_wide_floats, min_size=1, max_size=3 * c))))
def test_exact_int_matches_bincount_oracle(chunk_and_terms):
    # arrays of one to three chunks; the input is read, not overwritten
    chunk, terms = chunk_and_terms
    a = np.array(terms, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_EXTRACT_CHUNK", chunk)
        assert arith._exact_int(a) == bincount_exact_int(terms)
    assert a.tolist() == terms


def test_exact_int_matches_bincount_oracle_across_real_chunks():
    rng = np.random.default_rng(5)
    for lo, hi in ((-900, 900), (-1074, 1024), (-60, 10), (1000, 1024), (-1074, -1000)):
        n = int(rng.integers(20_000, 60_000))  # two to four chunks
        a = np.ldexp(rng.uniform(-1, 1, n), rng.integers(lo, hi, n, endpoint=True))
        assert arith._exact_int(a) == bincount_exact_int(a)


def test_exact_int_matches_bincount_oracle_on_every_sandwich_call(monkeypatch):
    calls = []

    def checked(a):
        got = arith._exact_int(a)
        assert got == bincount_exact_int(a)
        calls.append(len(a))
        return got

    monkeypatch.setattr(bv, "_exact_int", checked)
    assert check_sandwich(200, 0).passed
    assert len(calls) == 1616 and sum(calls) == 4_348_812


def test_exact_int_memory_stays_within_a_few_chunks():
    a = np.random.default_rng(0).standard_normal(1 << 20)  # 8 MiB of terms
    tracemalloc.start()
    try:
        got = arith._exact_int(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == bincount_exact_int(a)


def test_sandwich_rejects_x_below_one_like_oracle():
    for x, lam in ((1.5, 0.5), (0.5, 0.1), (1.0, 1e-9)):
        assert x * math.exp(-lam) < 1
        with pytest.raises(ValueError):
            oracle_sandwich(x, 3, 1, lam)
        with pytest.raises(ValueError) as got:
            bv.sandwich_check(x, 3, 1, lam)
        # the oracle's smoothed_R names its own x, here x e^-lam; the check names the condition
        assert str(got.value) == "need x * exp(-lam) >= 1"


def naive_psi_by_class(x, m):
    """Independent per-class accumulation: plain dict loop, no bincount."""
    sums = {a: [] for a in range(m)}
    for p, w in _class_prime_powers(x, 1, 0):
        sums[p % m].append(w)
    return {a: math.fsum(v) for a, v in sums.items()}


def naive_E_b(x, q, b):
    total = []
    for d in range(1, int(math.floor(x**b)) + 1):
        if math.gcd(d, q) != 1:
            continue
        m = q * d
        by_class = naive_psi_by_class(x, m)
        target = x / euler_phi(m)
        total.append(max(abs(by_class[a] - target) for a in range(m) if math.gcd(a, m) == 1))
    return math.fsum(total)


def naive_variance(x, q, Q):
    total = []
    for d in range(1, int(Q / q) + 1):
        if math.gcd(d, q) != 1:
            continue
        m = q * d
        by_class = naive_psi_by_class(x, m)
        target = x / euler_phi(m)
        total.append(
            math.fsum((by_class[a] - target) ** 2 for a in range(m) if math.gcd(a, m) == 1)
        )
    return math.fsum(total)


def test_E_b_degenerate_single_modulus():
    # x^b < 2 leaves only d = 1
    x, q, b = 50.0, 3, 0.1
    assert x**b < 2
    rep = bv.compute_E_b(x, q, b)
    assert rep.term_count == 1
    want = max(
        abs(chebyshev_psi(x, q, a) - x / euler_phi(q)) for a in range(q) if math.gcd(a, q) == 1
    )
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_E_b_against_naive_oracle():
    for x, q, b in [(1e4, 3, 0.25), (1e5, 3, 0.2), (2e4, 1, 0.3)]:
        rep = bv.compute_E_b(x, q, b)
        assert rep.value == pytest.approx(naive_E_b(x, q, b), rel=1e-9)
        assert rep.normalizer == pytest.approx(x / euler_phi(q))


def single_pass_E_b(x, q, b):
    """Oracle: the one pass over the class 0 mod 1, binned by residue mod each q*d."""
    D = math.floor(x**b)
    ms = [q * d for d in range(1, D + 1) if math.gcd(d, q) == 1]
    return math.fsum(
        float(np.max(np.abs(vec[arith.reduced_residue_mask(m)] - x / euler_phi(m))))
        for m, vec in zip(ms, arith.psi_residue_sums(x, ms))
    )


def one_thread_class_path_E_b(x, q, b):
    """Oracle: the class path's maxima loop over every reduced class in order, on the caller's thread."""
    D = math.floor(x**b)
    ds = [d for d in range(1, D + 1) if math.gcd(d, q) == 1]
    classes = [a for a in range(q) if math.gcd(a, q) == 1]
    masks = [arith.reduced_residue_mask(d) for d in ds]
    mains = [x / euler_phi(q * d) for d in ds]
    return math.fsum(bv._class_maxima(x, ds, q, classes, masks, mains))


def test_E_b_class_path_against_single_pass():
    # every other class is sieved on a worker thread, which gives the bits of one thread
    for x, q, b in ((7e6, 3, 0.25), (1e7, 4, 0.45), (2.2e7, 5, 0.25), (5e7, 7, 0.25)):
        assert x >= euler_phi(q) * q * arith.DEFAULT_SEGMENT  # each class is sieved on its own
        rep = bv.compute_E_b(x, q, b)
        assert rep.term_count == sum(1 for d in range(1, math.floor(x**b) + 1) if math.gcd(d, q) == 1)
        assert rep.value == one_thread_class_path_E_b(x, q, b), (x, q, b)
        assert rep.value == pytest.approx(single_pass_E_b(x, q, b), rel=1e-10, abs=0)


def test_E_b_splits_by_class_from_phi_q_q_segments(monkeypatch):
    calls = []

    def spy(x, moduli, q=1, a=0):
        calls.append((q, a))
        return arith.psi_residue_sums(x, moduli, q, a)

    monkeypatch.setattr(bv, "psi_residue_sums", spy)
    for q in (3, 4):
        edge = euler_phi(q) * q * arith.DEFAULT_SEGMENT
        for x, want in ((edge - 1, [(1, 0)]), (edge, [(q, a) for a in range(q) if math.gcd(a, q) == 1])):
            calls.clear()
            bv.compute_E_b(float(x), q, 0.06)  # x^0.06 < 3, so d <= 2
            assert sorted(calls) == want, (q, x)  # two threads append in either order, each class once


def _zero_sums(x, moduli, q=1, a=0):
    """A stand-in for psi_residue_sums that sieves nothing."""
    return [np.zeros(m) for m in moduli]


def test_E_b_error_on_either_thread_reaches_the_caller(monkeypatch):
    x = float(euler_phi(5) * 5 * arith.DEFAULT_SEGMENT)  # classes 1, 2, 3, 4 mod 5: 2 and 4 on the worker
    for failing in (2, 1):  # the worker's class, then the caller's

        def spy(x, moduli, q=1, a=0):
            if a == failing:
                raise FloatingPointError(f"class {a}")
            return _zero_sums(x, moduli, q, a)

        monkeypatch.setattr(bv, "psi_residue_sums", spy)
        before = threading.active_count()
        kind, exc = _returns_in_time(lambda: bv.compute_E_b(x, 5, 0.06))
        assert (kind, type(exc), str(exc)) == ("error", FloatingPointError, f"class {failing}")
        assert threading.active_count() == before


def test_E_b_starts_no_thread_below_the_split_or_for_one_class(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(bv, "psi_residue_sums", _zero_sums)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for q in (1, 2):  # a single reduced class, on either side of the split
        edge = euler_phi(q) * q * arith.DEFAULT_SEGMENT
        for x in (edge - 1, edge, 4 * edge):
            bv.compute_E_b(float(x), q, 0.06)
    for q in (3, 5):
        bv.compute_E_b(float(euler_phi(q) * q * arith.DEFAULT_SEGMENT - 1), q, 0.06)
    with pytest.raises(AssertionError, match="thread was started"):  # at the split two classes do start one
        bv.compute_E_b(float(euler_phi(3) * 3 * arith.DEFAULT_SEGMENT), 3, 0.06)


def test_E_b_preconditions():
    with pytest.raises(ValueError):
        bv.compute_E_b(1e4, 3, 0.6)
    with pytest.raises(ValueError):
        bv.compute_E_b(100.0, 60, 0.45)  # x^b q > x
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            bv.compute_E_b(x, 3, 0.2)


def test_desk_bounds_admit_x_at_the_bound_and_refuse_above_it():
    # only the checks run: nothing here sieves near the bounds
    above = math.nextafter(bv.SIEVE_MAX_X, math.inf)
    assert bv.check_E_b_args(float(bv.SIEVE_MAX_X), 3, 0.25) == 316
    with pytest.raises(ValueError, match="desk-bounded to x <= 1e"):
        bv.check_E_b_args(above, 3, 0.25)
    with pytest.raises(ValueError, match="desk-bounded to x <= 1e"):
        bv.maynard_condition_sums(above, 3, 1, 0, 2, 0.2)
    assert bv.check_bdh_args(float(bv.DENSE_MAX_X), 3) == pytest.approx(1e7 / math.log(1e7))
    with pytest.raises(ValueError, match="desk-bounded to x <= 1e"):
        bv.check_bdh_args(math.nextafter(bv.DENSE_MAX_X, math.inf), 3)
    # residue tables: 3 * 3343 * 3344 / 2 entries fit in 2**24, 3 * 3344 * 3345 / 2 do not
    assert 3 * 3343 * 3344 // 2 <= bv.RESIDUE_MAX_ENTRIES < 3 * 3344 * 3345 // 2
    bv._check_residue_entries(3, 3343)
    with pytest.raises(ValueError, match="residue-table entries"):
        bv._check_residue_entries(3, 3344)


def test_E_b_cutoff_is_exact():
    # 1024^0.3 = 8 and 243^0.4 * 27 = 243 exactly; the float powers give
    # 7.999999999999999 and a product just above 243
    assert bv.compute_E_b(1024.0, 1, 0.3).term_count == 8
    rep = bv.compute_E_b(243.0, 27, 0.4)
    assert rep.term_count == 6  # d <= 9 coprime to 27
    assert rep.value == pytest.approx(naive_E_b(243.0, 27, 0.4), rel=1e-9)
    with pytest.raises(ValueError):
        bv.compute_E_b(243.0, 28, 0.4)


def test_variance_single_modulus():
    x, q = 1e4, 7
    rep = bv.bdh_variance(x, q, float(q))
    assert rep.term_count == 1
    want = math.fsum(
        (chebyshev_psi(x, q, a) - x / euler_phi(q)) ** 2 for a in range(q) if math.gcd(a, q) == 1
    )
    assert rep.value == pytest.approx(want, rel=1e-9)


def test_variance_against_naive_oracle():
    for x, q, Q in [(1e4, 1, 100.0), (1e4, 3, 90.0), (1e5, 1, 1e3)]:
        rep = bv.bdh_variance(x, q, Q)
        assert rep.value == pytest.approx(naive_variance(x, q, Q), rel=1e-9)


@settings(max_examples=40)
@given(st.integers(2, 3000), st.integers(1, 12), st.data())
def test_variance_random_against_naive(xi, q, data):
    # most draws have moduli whose prime powers collide in one nonreduced
    # class: 2 = 4 = 8 = 0 (mod 2), 2 = 8 = 32 (mod 6), 7 = 49 = 0 (mod 7)
    x = xi + data.draw(st.sampled_from([0.0, 0.5]))
    assume(q <= x)
    Q = data.draw(st.floats(min_value=q, max_value=min(x, 120.0)))
    rep = bv.bdh_variance(x, q, Q)
    # The expanded square cancels terms of size ~x^2/phi(m), so a variance
    # near 0 (say Q = q = 1) is exact only to rounding at that scale; a
    # wrong class weight would move it by at least (log 2)^2.
    scale = math.fsum(x * x / euler_phi(q * d) for d in range(1, int(Q / q) + 1) if math.gcd(d, q) == 1)
    assert rep.value == pytest.approx(naive_variance(x, q, Q), rel=1e-9, abs=1e-12 * scale)


def test_nonreduced_moments_against_class_dict():
    # per modulus, psi over nonreduced classes summed into a dict keyed by p^j mod m
    for xi, M in [(50, 50), (1000, 120), (3000, 40), (10**4, 300)]:
        n1, n2 = bv._nonreduced_moments(xi, M)
        for m in range(1, M + 1):
            cls = {}
            for p in factorize(m).primes:
                pk = p
                while pk <= xi:
                    cls[pk % m] = cls.get(pk % m, 0.0) + math.log(p)
                    pk *= p
            assert n1[m] == pytest.approx(math.fsum(cls.values()), rel=1e-12, abs=1e-12)
            assert n2[m] == pytest.approx(math.fsum(v * v for v in cls.values()), rel=1e-12, abs=1e-12)


def loop_nonreduced_moments(xi, M):
    """Oracle: the former _nonreduced_moments, two strided updates per prime <= M."""
    n1 = np.zeros(M + 1)
    n2 = np.zeros(M + 1)
    for p in primes_in_range(0, M).tolist():
        logp = math.log(p)
        powers = [p]
        while powers[-1] * p <= xi:
            powers.append(powers[-1] * p)
        J = len(powers)
        n1[p::p] += J * logp
        if J == 1:
            n2[p::p] += logp * logp
            continue
        C = np.array(powers)[:, None] % np.arange(p, M + 1, p)
        pairs = np.full(C.shape[1], J)
        for i in range(J - 1):
            pairs += 2 * (C[i] == C[i + 1 :]).sum(axis=0)
        n2[p::p] += logp * logp * pairs
    return n1, n2


@pytest.mark.parametrize(
    "xi, M",
    [(1, 1), (2, 2), (3, 3), (50, 8), (50, 50), (1000, 1000), (3000, 2999), (10**5, 9000), (10**5, 316), (2**16, 2**16)],
)
def test_nonreduced_moments_match_per_prime_loop(xi, M):
    # M > sqrt(xi) sends the primes above sqrt(xi) through large_multiples;
    # they are added last, as the per-prime loop added them, so the sums are ==
    n1, n2 = bv._nonreduced_moments(xi, M)
    o1, o2 = loop_nonreduced_moments(xi, M)
    assert np.array_equal(n1, o1) and np.array_equal(n2, o2)
    for q in (3, 10):  # the moduli q * d that bdh_variance reads
        ms = q * np.arange(1, M // q + 1)
        assert np.array_equal(n1[ms], o1[ms]) and np.array_equal(n2[ms], o2[ms])


def full_fft_autocorrelation(lam):
    """Oracle: the former dense-table R, one FFT pair over all of lam at length >= 2 len(lam) - 1."""
    n = len(lam)
    size = bv._fft_length(2 * n - 1)
    F = np.fft.rfft(lam, size)
    return np.fft.irfft(F.real**2 + F.imag**2, size)[:n]


def test_autocorrelation_matches_full_fft_and_direct_sum():
    # at 2^k - 1, 2^k and 2^k + 1 a power of two sits at or next to the end of the table
    edges = [2**k + e for k in (7, 10) for e in (-1, 0, 1)]
    for xi in list(range(1, 71)) + edges:
        lam = von_mangoldt_table(xi)
        n = len(lam)
        direct = np.array([np.dot(lam[: n - h], lam[h:]) for h in range(n)])
        R = bv._lambda_autocorrelation(lam[1::2], n)
        np.testing.assert_allclose(R, direct, rtol=0, atol=1e-12 * direct.max())
    for xi in (10**4, 2 * 10**5):
        lam = von_mangoldt_table(xi)
        want = full_fft_autocorrelation(lam)
        R = bv._lambda_autocorrelation(lam[1::2], len(lam))
        np.testing.assert_allclose(R, want, rtol=0, atol=1e-12 * want.max())


def test_fft_length_is_least_5_smooth_at_or_above():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    lengths = [m for m in range(1, 5121) if smooth(m)]
    for n in range(1, 5001):
        assert bv._fft_length(n) == lengths[bisect.bisect_left(lengths, n)]
    # bdh --x 2e5 transforms the odd half (10**5 entries); the dense table (200001) would need 405000
    assert bv._fft_length(2 * 10**5 - 1) == 200000 == 2**6 * 5**5
    assert bv._fft_length(400001) == 405000 == 2**3 * 3**4 * 5**4


def test_variance_memory_is_halved():
    # bytes per unit of x: 24.3 with the dense table dropped before the
    # half-length FFT, 32.3 if it stays alive through it, 40.7 for one FFT
    # over the dense table
    x = 1e6
    Q = x / math.log(x)
    bv.bdh_variance(x, 3, Q)  # warm the sieve caches
    tracemalloc.start()
    try:
        bv.bdh_variance(x, 3, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * x


def strided_multiple_sums(R, ms):
    """Oracle: the former per-modulus sums, one strided slice each."""
    return np.array([R[m::m].sum() for m in ms])


@pytest.mark.parametrize(
    "n, q, Q",
    [
        (10**4 + 1, 1, 100),  # every modulus <= sqrt(top): no large branch
        (10**4 + 1, 1, 101),  # one modulus above it
        (5000, 1, 4999),  # Q = x
        (5000, 6, 4999),  # gaps in the moduli
        (961, 1, 960),  # len(R) a square
        (962, 1, 961),  # len(R) - 1 a square: 31 strided, 32 on the large branch
        (962, 35, 961),
        (2, 1, 1),
    ],
)
def test_multiple_sums_against_strided_loop(n, q, Q):
    R = np.random.default_rng(n + q).uniform(0.0, 100.0, n)
    ms = np.array([q * d for d in range(1, Q // q + 1) if math.gcd(d, q) == 1], dtype=np.int64)
    got, want = bv._multiple_sums(R, ms), strided_multiple_sums(R, ms)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    small = ms <= math.isqrt(n - 1)
    assert np.array_equal(got[small], want[small])  # the same strided sum


def test_psi_total_is_fsum_of_the_table():
    for n in (2, 3, 10, 10**4, 2 * 10**5):
        lam = von_mangoldt_table(n)
        assert arith._exact_sum(lam[lam != 0]) == math.fsum(lam)


def bincount_variance(x, q, Q):
    """One bincount over every prime power per modulus, O(Q * pi(x))."""
    dmax = int(math.floor(Q / q))
    xi = int(math.floor(x))
    P, W = prime_power_arrays(xi)
    psi_total = math.fsum(W)
    terms = []
    for d in range(1, dmax + 1):
        if math.gcd(d, q) != 1:
            continue
        m = q * d
        vec = np.bincount(P % m, weights=W, minlength=m)
        phi_m = euler_phi(m)
        T = x / phi_m
        cls = set()
        for p in {p for p, _ in factorize(m).factors}:
            pk = p
            while pk <= xi:
                cls.add(pk % m)
                pk *= p
        nr = vec[sorted(cls)]
        s_nr, ss_nr = float(nr.sum()), float(np.dot(nr, nr))
        terms.append((float(np.dot(vec, vec)) - ss_nr) - 2.0 * T * (psi_total - s_nr) + phi_m * T * T)
    return math.fsum(terms)


@pytest.mark.parametrize("x", [1e4, 1e5])
@pytest.mark.parametrize("q", [1, 3, 12])
def test_variance_against_bincount_oracle(x, q):
    # the criterion-9 grid points within the oracle's reach, at the default Q = x/log x
    Q = x / math.log(x)
    assert bv.bdh_variance(x, q).value == pytest.approx(bincount_variance(x, q, Q), rel=1e-9)


def test_variance_rejects_infinite_x():
    for x in (math.inf, -math.inf, math.nan):  # checked first, with Q given or not
        for Q in (100.0, None):
            with pytest.raises(ValueError, match="need finite x"):
                bv.bdh_variance(x, 1, Q)


def test_variance_preconditions():
    with pytest.raises(ValueError):
        bv.bdh_variance(1e4, 10, 5.0)
    with pytest.raises(ValueError):
        bv.bdh_variance(1e4, 1, 1e5)
    for x in (1.0, 0.5):  # the normalizer x * Q * log x vanishes at x = 1
        for Q in (1.0, None):
            with pytest.raises(ValueError, match="x > 1"):
                bv.bdh_variance(x, 1, Q)


def test_error_report_csv_row():
    rep = bv.compute_E_b(1e4, 3, 0.2)
    row = rep.csv_row()
    assert len(row.split(",")) == len(ERROR_SUM_CSV_HEADER.split(","))
    assert rep.json_dict()["ratio"] == rep.ratio


def naive_maynard_sums(x, q, a, h_m, k, L):
    lhs1, lhs2 = [], []
    primes = [p for p, w in _class_prime_powers(x, 1, 0) if w and _is_prime(p)]
    for d in range(1, int(math.floor(x**L)) + 1):
        if math.gcd(d, q) != 1 or mobius(d) == 0:
            continue
        w = tau(3 * k, d)
        b_d = arith.crt_unit_lift(a, q, d)
        m = q * d
        count = sum(1 for n in range(int(x / 2) + 1, int(x) + 1) if n % m == b_d % m)
        lhs1.append(w * abs(count - (x / (2 * q)) / d))
        pcount = sum(1 for p in primes if p > x / 2 + h_m and p <= x and p % m == b_d % m)
        lhs2.append(w * abs(pcount - log_integral_Y1(x, q) / euler_phi(d)))
    return math.fsum(lhs1), math.fsum(lhs2)


def _is_prime(p):
    from apgaps.arith import is_prime

    return is_prime(p)


def test_maynard_condition_sums_against_naive():
    # h_m = -60000 puts x/2 + h_m below 0, where the sieved tail starts at 0
    for h_m in (0, 37, -60000):
        rep = bv.maynard_condition_sums(1e5, 3, 1, h_m, 2, 0.2)
        want1, want2 = naive_maynard_sums(1e5, 3, 1, h_m, 2, 0.2)
        assert rep.lhs1 == pytest.approx(want1, rel=1e-9)
        assert rep.lhs2 == pytest.approx(want2, rel=1e-9)


@lru_cache(maxsize=None)
def integers_by_class(x, m):
    """Oracle: the integers n of (x/2, x], each one reduced mod m, counted by residue (read only)."""
    n = np.arange(math.floor(x / 2) + 1, math.floor(x) + 1)
    return np.bincount(n % m, minlength=m)


def per_modulus_maynard_sums(x, q, a, h_m, k, L):
    """Oracle: the whole sieved tail, one count_nonzero per modulus, as before streaming."""
    D = bv._modulus_cutoff(x, q, L, "L")
    Y = x / (2 * q)
    Y1 = log_integral_Y1(x, q)
    tail = primes_in_range(max(int(math.floor(x / 2 + h_m)), 0), int(math.floor(x)))
    terms1, terms2 = [], []
    for d in range(1, D + 1):
        if math.gcd(d, q) != 1 or mobius(d) == 0:
            continue
        w = tau(3 * k, d)
        b_d = arith.crt_unit_lift(a, q, d)
        m = q * d
        cnt = int(integers_by_class(x, m)[b_d % m])
        terms1.append(w * abs(cnt - Y / d))
        pcnt = int(np.count_nonzero(tail % m == b_d % m))
        terms2.append(w * abs(pcnt - Y1 / euler_phi(d)))
    return math.fsum(terms1), math.fsum(terms2)


def test_maynard_condition_sums_across_segments(monkeypatch):
    # only the class a mod q of the tail (x/2 + h_m, x] is sieved, in segments of
    # DEFAULT_SEGMENT * q (odd q) or DEFAULT_SEGMENT * q / 2 (even q) numbers
    x = 3.0 * 2**20 + 12345
    classes = ((3, 1, 0.2), (3, 2, 0.2), (4, 3, 0.3), (15, 2, 0.2), (1, 0, 0.2))
    cases = [(q, a, L, h_m) for q, a, L in classes for h_m in (0, 37, -(2**21))]
    want = {(q, a, L, h_m): per_modulus_maynard_sums(x, q, a, h_m, 2, L) for q, a, L, h_m in cases}
    for segment in (arith.DEFAULT_SEGMENT, 1 << 14):
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT", segment)
        for q, a, L, h_m in cases:
            rep = bv.maynard_condition_sums(x, q, a, h_m, 2, L)
            assert (rep.lhs1, rep.lhs2) == want[q, a, L, h_m], (segment, q, a, h_m)


def test_maynard_inner_term_bound():
    # counting integers in one class of an interval is within 1 of length/modulus
    x, q, a = 1e5, 3, 1
    for d in (1, 2, 5, 7, 11):
        b_d = arith.crt_unit_lift(a, q, d)
        m = q * d
        count = int(integers_by_class(x, m)[b_d % m])
        assert abs(count - (x / (2 * q)) / d) < 1.0


def test_maynard_factorizes_each_d_once(monkeypatch):
    # every d is squarefree: one factorization gives its weight (3k)^omega(d) and phi(d)
    factored = []

    def spy(n):
        factored.append(n)
        return arith.factorize(n)

    def no_phi(n):
        raise AssertionError(f"euler_phi({n}) called")

    monkeypatch.setattr(bv, "factorize", spy)
    monkeypatch.setattr(bv, "euler_phi", no_phi)
    rep = bv.maynard_condition_sums(1e5, 3, 1, 0, 2, 0.2)
    assert factored == [1, 2, 5, 7, 10] and rep.term_count == 5  # squarefree d <= 10 prime to 3


def test_maynard_lhs1_pointwise_bound():
    x, q, a, k, L = 1e5, 3, 1, 2, 0.2
    rep = bv.maynard_condition_sums(x, q, a, 0, k, L)
    cap = sum(
        mobius(d) ** 2 * tau(3 * k, d)
        for d in range(1, int(math.floor(x**L)) + 1)
        if math.gcd(d, q) == 1
    )
    assert rep.lhs1 <= cap


def test_maynard_preconditions():
    with pytest.raises(ValueError):
        bv.maynard_condition_sums(1e5, 6, 2, 0, 2, 0.2)  # gcd(a, q) != 1
    with pytest.raises(ValueError):
        bv.maynard_condition_sums(100.0, 30, 1, 0, 2, 0.45)  # x^L q > x
    for q in (0, -3):
        with pytest.raises(ValueError, match="q >= 1"):
            bv.maynard_condition_sums(1e4, q, 1, 0, 2, 0.2)
    with pytest.raises(ValueError, match="finite"):
        bv.maynard_condition_sums(math.inf, 3, 1, 0, 2, 0.2)
    assert bv.maynard_condition_sums(1e4, 3, 1, 0, bv.MAX_K, 0.2).k == bv.MAX_K
    for k in (bv.MAX_K + 1, 10**300):  # at 10**300 the weight (3k)^omega(d) is no float
        with pytest.raises(ValueError, match="desk bound is k <= 10000"):
            bv.maynard_condition_sums(1e4, 3, 1, 0, k, 0.2)
    # 243^0.4 * 27 = 243 exactly: allowed, with d <= 9
    assert bv.maynard_condition_sums(243.0, 27, 1, 0, 2, 0.4).term_count == 4
