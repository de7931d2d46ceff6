"""Distribution error sums for primes in arithmetic progressions.

Measured quantities, each against its trivial normalizer:

- compute_E_b: sum over moduli d <= x^b of the worst residue-class error
  |psi(x; q d, a) - x/phi(q d)|, the maximum taken over all reduced classes.
  At large x each reduced class a mod q is sieved on its own and its psi
  values binned by residue mod d alone (the classes mod q d are the pairs
  of a class mod q and one mod d); at small x one sieve of the odd numbers
  is binned mod each q d.
- bdh_variance: the mean-square analogue, summed over all reduced classes.
  Its sum of squares over all classes of one modulus m is read off the
  autocorrelation R(h) = sum_n Lambda(n) Lambda(n + h), computed once:
  sum_c psi(x; m, c)^2 = R(0) + 2 sum_{j >= 1} R(j m). Lambda vanishes on
  the even numbers but the powers of two, so R comes from one FFT over the
  odd half of Lambda, at half the dense table's length, plus a few shifted
  slices at the powers of two (_lambda_autocorrelation). The sums over
  multiples are split at sqrt(x) (_multiple_sums): a modulus below it
  takes one strided slice, and the larger moduli, each with fewer than
  sqrt(x) multiples, are summed together one multiplier j at a time. The
  few nonreduced classes that carry mass hold only powers of primes
  dividing m, and are subtracted exactly, for all moduli at once.
- smoothed_R / sandwich_check: the log-smoothed weighted sum and the
  two-sided bounds it implies for psi, both from one kernel (_class_sums).
  It streams the class from the class sieve (arith.class_segments) in
  O(segment) memory and reads each sum from prefixes of each segment, then
  from the class's higher prime powers: R(y) at one y for smoothed_R; at
  x e^-lam, x and x e^lam, and psi(x), in one pass for sandwich_check.
  Each sum is one exact Python int (arith._exact_int, by error-free
  extraction over a cache-sized buffer), rounded once at the end, so it is
  == the math.fsum of its terms.
- maynard_condition_sums: squarefree tau-weighted condition sums over
  moduli d <= x^L. Every d is squarefree, so one factorization of d gives
  its weight tau_{3k}(d) = (3k)^omega(d) and phi(d) = prod (p - 1); the
  integers of (x/2, x] in the class b mod m are counted in closed form,
  (floor(x) - b)//m - (floor(x/2) - b)//m, and the prime window starts at
  max(floor(x/2) + h, 0): every integer term is exact.

Each error sum is one correctly rounded sum of its per-modulus terms
(math.fsum, or arith._exact_sum over an array), taken on one thread. Only the
class sieves of compute_E_b run on two threads, where there are two reduced
classes or more, with the bits of one thread.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .arith import (
    DEFAULT_SEGMENT,
    _exact_int,
    _exact_sum,
    _round_exact,
    class_segments,
    crt_unit_lift,
    euler_phi,
    exact_exponent,
    factorize,
    floor_power,
    higher_prime_powers,
    large_multiples,
    log_integral_Y1,
    mobius_table,
    phi_table,
    prime_residue_counts,
    primes_in_range,
    psi_residue_sums,
    reduced_residue_mask,
    von_mangoldt_table,
)
from .reports import ErrorSumReport, MaynardConditionReport
from .variational import MAX_K


def _class_sums(r: int, a: int, smoothed, psi=()) -> list[int]:
    """Exact sums over the prime powers n = a (mod r), each one Python int
    (arith._exact_int): R(y) = sum_{n <= y} Lambda(n) (log y - log n) for
    each y of smoothed, then sum_{n <= y} Lambda(n) for each y of psi.
    One pass streams the class up to the largest y, then its higher prime powers."""
    cuts = [int(math.floor(y)) for y in (*smoothed, *psi)]
    log_ys = [math.log(y) for y in smoothed]
    sums = [0] * len(cuts)

    def add(W: np.ndarray, logs: np.ndarray, parts) -> None:
        """Add the terms of each sum; parts[k] selects the prime powers up to cuts[k]."""
        for k, part in enumerate(parts):
            sums[k] += _exact_int(W[part] * (log_ys[k] - logs[part]) if k < len(log_ys) else W[part])

    for P in class_segments(0, max(cuts), r, a % r):
        logs = np.log(P.astype(np.float64))
        add(logs, logs, [slice(int(np.searchsorted(P, cut, side="right"))) for cut in cuts])
    P, W = higher_prime_powers(max(cuts), r, a % r)
    add(W, np.log(P.astype(np.float64)), [P <= cut for cut in cuts])
    return sums


def smoothed_R(x: float, r: int = 1, a: int = 0) -> float:
    """Sum of Lambda(n) * log(x/n) over n <= x with n = a (mod r), rounded once (== its math.fsum)."""
    if r < 1:
        raise ValueError("need r >= 1")
    if not 1 <= x < math.inf:
        raise ValueError("need finite x >= 1")
    return _round_exact(_class_sums(r, a, (x,))[0])


def sandwich_check(x: float, r: int, a: int, lam: float):
    """Difference-quotient bounds for psi from the smoothed sum.

    Returns (ok, lower, psi, upper) for
    (R(x) - R(x e^-lam))/lam <= psi(x; r, a) <= (R(x e^lam) - R(x))/lam.
    R(x e^-lam), R(x), R(x e^lam) and psi(x) are four exact sums of one
    streamed pass over the class (_class_sums), each rounded once; so every
    value equals (==) its smoothed_R call, or the math.fsum of the class's
    weights up to x.
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    if r < 1:
        raise ValueError("need r >= 1")
    if not math.isfinite(x):
        raise ValueError("need finite x")
    x_lo, x_hi = x * math.exp(-lam), x * math.exp(lam)
    if not x_lo >= 1:
        raise ValueError("need x * exp(-lam) >= 1")
    r_lo, r_mid, r_hi, psi = map(_round_exact, _class_sums(r, a, (x_lo, x, x_hi), (x,)))
    lower = (r_mid - r_lo) / lam
    upper = (r_hi - r_mid) / lam
    ok = lower <= psi + 1e-9 and psi <= upper + 1e-9  # an absolute slack for the rounding of the sums
    return ok, lower, psi, upper


# Desk bounds, each checked before any modulus list, table or sieve is built.
# compute_E_b and maynard_condition_sums sieve a class up to x (bv --x 1e9
# takes about 7 s); bdh_variance holds a dense table of floor(x) + 1 floats
# and its autocorrelation (about 190 MiB at x = 4e6). The residue tables of
# the moduli m = w*d, d <= D (w = q, or 1 where each class a mod q is sieved
# on its own), have one entry per class: at most w * D * (D + 1) / 2 in all.
SIEVE_MAX_X = 10**10
DENSE_MAX_X = 10**7
RESIDUE_MAX_ENTRIES = 1 << 24


def _check_desk_x(x: float, bound: int) -> None:
    if not math.isfinite(x):
        raise ValueError("need finite x")
    if x > bound:
        raise ValueError(f"desk-bounded to x <= {bound:g}, got x = {x:g}")


def _check_residue_entries(w: int, D: int) -> None:
    entries = w * D * (D + 1) // 2
    if entries > RESIDUE_MAX_ENTRIES:
        raise ValueError(
            f"the moduli {w}*d, d <= {D}, need up to {entries} residue-table entries; "
            f"desk-bounded to {RESIDUE_MAX_ENTRIES}"
        )


def _modulus_cutoff(x: float, q: int, e: float, name: str) -> int:
    """D = floor(x^e), after checking x^e * q <= x; both decided exactly.

    e is read as the decimal it prints as (arith.exact_exponent), so that
    x = 1e10, e = 0.3 gives D = 1000 and not the float power's 999.
    """
    if not 0 <= e <= 1:
        raise ValueError(f"need 0 <= {name} <= 1, got {e}")
    ef = exact_exponent(e)
    # for an integer q, x^e * q <= x  <=>  q <= floor(x^(1 - e))
    if q > floor_power(x, 1 - ef):
        raise ValueError(f"x^{name} * q exceeds x; classes would be emptier than the main term")
    return floor_power(x, ef)


def _classes_apart(x: float, q: int) -> bool:
    """Whether compute_E_b sieves each class a mod q on its own: each spans phi(q) segments or more."""
    return x >= euler_phi(q) * q * DEFAULT_SEGMENT


def check_E_b_args(x: float, q: int, b: float) -> int:
    """The cutoff D = floor(x^b) of compute_E_b, after all of its checks, desk bounds included."""
    if not 0 < b < 0.5:
        raise ValueError("need 0 < b < 1/2")
    if q < 1:
        raise ValueError("need q >= 1")
    _check_desk_x(x, SIEVE_MAX_X)
    D = _modulus_cutoff(x, q, b, "b")
    _check_residue_entries(1 if _classes_apart(x, q) else q, D)
    return D


def _class_maxima(x: float, moduli, step: int, classes, masks, mains) -> list[float]:
    """Per modulus, the worst |psi - main| over its reduced residues in the given classes a mod step (0.0 if none)."""
    maxima = [0.0] * len(mains)
    for a in classes:
        vecs = psi_residue_sums(x, moduli, step, a)
        for i, (vec, mask, main) in enumerate(zip(vecs, masks, mains)):
            maxima[i] = max(maxima[i], float(np.max(np.abs(vec[mask] - main))))
    return maxima


def _class_maxima_on_two_threads(x: float, moduli, step: int, classes, masks, mains) -> list[float]:
    """_class_maxima of classes[0::2] on this thread and of classes[1::2] on one worker, merged.

    A maximum of non-negative floats is exact, so merging the two halves
    entry by entry gives the bits of one pass in class order. An error in
    the worker is raised here; the worker is joined either way.
    """
    done: dict[str, object] = {}

    def run() -> None:
        try:
            done["maxima"] = _class_maxima(x, moduli, step, classes[1::2], masks, mains)
        except BaseException as exc:  # raised again by the caller
            done["error"] = exc

    worker = threading.Thread(target=run, name="compute_E_b", daemon=True)
    worker.start()
    try:
        mine = _class_maxima(x, moduli, step, classes[0::2], masks, mains)
    finally:
        worker.join()
    if "error" in done:
        raise done["error"]
    return [max(a, b) for a, b in zip(mine, done["maxima"])]


def compute_E_b(x: float, q: int, b: float) -> ErrorSumReport:
    """Worst-case error sum over moduli q*d, d <= x^b coprime to q.

    With gcd(d, q) = 1 a class c mod q*d is the pair (c mod q, c mod d)
    (the Chinese remainder theorem). While x >= phi(q) * q * DEFAULT_SEGMENT,
    so that each class a mod q spans at least phi(q) sieve segments, each
    reduced class a is sieved on its own (psi_residue_sums(x, ds, q, a)) and
    its psi values are binned by residue mod the d alone; each d's worst
    error is the maximum over the pairs (a, reduced r mod d). With two or
    more reduced classes, every other class is sieved on a worker thread
    (_class_maxima_on_two_threads), with the bits of one pass in class
    order. Below that size one pass over the class 0 mod 1 bins every
    prime by its residue mod the q*d, as (q, a) = (1, 0) with moduli q*d.
    """
    D = check_E_b_args(x, q, b)
    ds = [d for d in range(1, D + 1) if math.gcd(d, q) == 1]
    mains = [x / euler_phi(q * d) for d in ds]
    if _classes_apart(x, q):
        step, classes, moduli = q, [a for a in range(q) if math.gcd(a, q) == 1], ds
    else:
        step, classes, moduli = 1, [0], [q * d for d in ds]
    masks = [reduced_residue_mask(m) for m in moduli]
    if len(classes) > 1:
        maxima = _class_maxima_on_two_threads(x, moduli, step, classes, masks, mains)
    else:
        maxima = _class_maxima(x, moduli, step, classes, masks, mains)
    return ErrorSumReport(
        x=x, q=q, param_name="b", param=b, value=math.fsum(maxima), normalizer=x / euler_phi(q), term_count=len(ds)
    )


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n (a fast FFT length)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p235 = p35
            while p235 < n:
                p235 *= 2
            best = min(best, p235)
            p35 *= 3
        p5 *= 5
    return best


def _lambda_autocorrelation(odd: np.ndarray, n: int) -> np.ndarray:
    """R[h] = sum_i lam[i] * lam[i + h] for 0 <= h < n, given odd = lam[1::2] of lam = von_mangoldt_table(n - 1).

    On the even numbers lam is log 2 at the powers 2^k <= n - 1 and 0
    elsewhere, so lam is its odd half plus those few powers of two.
    - An odd lag h pairs an odd number with a power of two:
      R(h) = log 2 * sum_k (lam[2^k + h] + lam[2^k - h]), two slices of odd
      per power.
    - An even lag 2g pairs two odd numbers, sum_i odd[i] * odd[i + g], from
      one FFT pair at half the length the dense table would need; or two
      powers of two, and 2^b - 2^a = 2^a (2^(b-a) - 1) fixes a and b, so
      each lag 2g > 0 has at most one such pair and lag 0 has one per power.
    """
    half = len(odd)  # n // 2, the odd numbers below n and the odd lags below n
    log2 = math.log(2)
    powers = [1 << k for k in range(1, (n - 1).bit_length())]
    odd_lags = np.zeros(half)  # log 2 * odd_lags[j] = R(2j + 1)
    for p in powers:
        s = p >> 1  # lam[p + 2j + 1] = odd[s + j] and lam[p - 2j - 1] = odd[s - 1 - j]
        odd_lags[: half - s] += odd[s:]
        odd_lags[:s] += odd[s - 1 :: -1]
    size = _fft_length(2 * half - 1)  # no wrap-around for lags below half
    F = np.fft.rfft(odd, size)
    # the power spectrum |F|^2, formed in place so irfft gets it as complex
    # input without a converted copy
    re, im = F.real, F.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    im.fill(0.0)
    A = np.fft.irfft(F, size)
    del F, re, im  # the views re and im would keep F alive while R is allocated
    R = np.empty(n)
    odd_lags *= log2
    R[1::2] = odd_lags
    even = R[0::2]
    even[:half] = A[:half]
    even[half:] = 0.0  # R(n - 1) for odd n: lam[0] = 0, and no two powers lie n - 1 apart
    sq = log2 * log2
    for i, a in enumerate(powers):
        for b in powers[i:]:
            R[b - a] += sq
    return R


def _multiple_sums(R: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """S[i] = sum_{j >= 1} R[j * ms[i]] over the multiples below len(R), for ascending ms >= 1.

    A modulus m <= sqrt(len(R)) takes one strided slice. Each larger one has
    fewer than sqrt(len(R)) multiples, so those are summed together, one
    multiplier j at a time over the moduli that still have a j-th multiple
    (arith.large_multiples): about 2 sqrt(len(R)) numpy calls in all, not
    one per modulus.
    """
    top = len(R) - 1
    split = int(np.searchsorted(ms, math.isqrt(top), side="right"))
    out = np.zeros(len(ms))
    for i, m in enumerate(ms[:split].tolist()):
        out[i] = R[m::m].sum()
    acc = out[split:]
    for c, multiples in large_multiples(ms[split:], top):
        acc[:c] += R[multiples]
    return out


def _nonreduced_moments(xi: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and sum of squares of psi(xi; m, c) over nonreduced classes c.

    Returns arrays (N1, N2) indexed by the modulus m, for 1 <= m <= M <= xi.
    A class with gcd(c, m) > 1 holds only powers of one prime p | m, so
    psi(xi; m, c) = log p * #{j : p^j <= xi, p^j = c (mod m)}. Powers of p
    can share a class (m = 6: 2 = 8 = 32), so the p-part of N2[m] is
    (log p)^2 times the number of pairs (i, j) with p^i = p^j (mod m).
    With J powers p^j <= xi and m = p^a t, p not dividing t: for
    i < j <= J, p^i = p^j (mod m) exactly when i >= a and ord_t(p) divides
    j - i. So the pairs are the J diagonal ones plus the ordered pairs
    within each class, mod ord_t(p), of the exponents a..J; a and ord_t(p)
    take O(J) vector steps over the multiples of p.
    A prime p > sqrt(xi) has the one power p, adding log p and (log p)^2;
    those primes go through arith.large_multiples after the others,
    so each m still adds its primes in ascending order.
    """
    n1 = np.zeros(M + 1)
    n2 = np.zeros(M + 1)
    root = math.isqrt(xi)
    for p in primes_in_range(0, min(root, M)).tolist():
        logp = math.log(p)
        J, pj = 1, p
        while pj * p <= xi:
            J, pj = J + 1, pj * p
        n1[p::p] += J * logp
        k = np.arange(1, M // p + 1)  # m = p k
        a = np.ones_like(k)  # a = v_p(m) <= J, as m <= xi
        pe = p
        while pe <= len(k):
            a[pe - 1 :: pe] += 1
            pe *= p
        t = k // p ** (a - 1)
        order = np.full_like(k, J)  # ord_t(p), or J when it exceeds J - 1
        for e in range(J - 1, 0, -1):  # the least e with t | p^e - 1 is written last
            order[(p**e - 1) % t == 0] = e
        size, extra = np.divmod(J + 1 - a, order)  # the exponents a..J fall in classes of these sizes
        pairs = J + extra * (size + 1) * size + (order - extra) * size * (size - 1)
        n2[p::p] += logp * logp * pairs
    large = primes_in_range(root, M)
    logs = np.array([math.log(p) for p in large.tolist()])  # math.log, as above: the same bits
    squares = logs * logs
    for k, ms in large_multiples(large, M):
        n1[ms] += logs[:k]
        n2[ms] += squares[:k]
    return n1, n2


def check_bdh_args(x: float, q: int, Q: float | None = None) -> float:
    """The Q of bdh_variance (x/log x if None), after all of its checks, the desk bound included."""
    _check_desk_x(x, DENSE_MAX_X)
    if not x > 1:
        raise ValueError("need x > 1")
    if Q is None:
        Q = x / math.log(x)
    if Q < q:
        raise ValueError("need Q >= q")
    if not Q <= x:
        raise ValueError("need Q <= x")
    return Q


def bdh_variance(x: float, q: int, Q: float | None = None) -> ErrorSumReport:
    """Mean-square error over all reduced classes of moduli q*d, d <= Q/q, with Q = x/log x by default.

    For m = q*d and T = x/phi(m) the inner sum expands as
    S2 - 2T*S1 + phi(m)*T^2, with S1 and S2 the sum and the sum of squares
    of psi(x; m, c) over reduced classes c. Over all classes,
    sum_c psi(x; m, c)^2 = R(0) + 2 * sum_{j >= 1} R(j*m), where
    R(h) = sum_n Lambda(n) Lambda(n + h) is computed once for every h <= x,
    from the odd half of the von Mangoldt table and its powers of two
    (_lambda_autocorrelation; the dense table is dropped first), and
    sum_c psi(x; m, c) = psi(x). The nonreduced classes are then taken
    off exactly (see _nonreduced_moments). The per-modulus terms are summed
    once, exactly rounded (_exact_sum).
    """
    Q = check_bdh_args(x, q, Q)
    d = np.arange(1, int(math.floor(Q / q)) + 1)
    ms = q * d[np.gcd(d, q) == 1]
    xi = int(math.floor(x))
    lam = von_mangoldt_table(xi)
    psi_total = _exact_sum(lam[lam != 0])  # == math.fsum(lam)
    odd = lam[1::2].copy()
    del lam  # the dense table is not alive during the FFT
    R = _lambda_autocorrelation(odd, xi + 1)
    del odd
    squares = R[0] + 2.0 * _multiple_sums(R, ms)
    del R
    n1, n2 = _nonreduced_moments(xi, int(ms[-1]))
    phi = phi_table(int(ms[-1]))[ms]
    T = x / phi
    terms = (squares - n2[ms]) - 2.0 * T * (psi_total - n1[ms]) + phi * T * T
    normalizer = x * Q * math.log(x) / euler_phi(q)
    return ErrorSumReport(
        x=x, q=q, param_name="Q", param=Q, value=_exact_sum(terms), normalizer=normalizer, term_count=len(ms)
    )


# ---------------------------------------------------------------------------
# squarefree tau-weighted condition sums


def maynard_condition_sums(
    x: float, q: int, a: int, h_m: int, k: int, L: float
) -> MaynardConditionReport:
    """The two tau_{3k}-weighted sums over squarefree d <= x^L coprime to q.

    lhs1 weighs integer counts in (x/2, x] against Y/d with Y = x/(2q);
    lhs2 weighs prime counts in (x/2 + h_m, x] against Y1/phi(d). The class
    b_d is the CRT lift of a mod q with unit second coordinate, so every
    class read is = a (mod q). The weight, phi(d) and the integer count
    come from one factorization of d, as the module docstring says. Only
    the primes of (floor(x/2) + h_m, x] in the class a mod q are sieved
    (from 0 when floor(x/2) + h_m < 0), and they are streamed: each sieve
    segment's primes are counted by residue class
    (arith.prime_residue_counts), so the tail is never held whole.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError("need gcd(a, q) = 1")
    if k > MAX_K:
        raise ValueError(f"desk bound is k <= {MAX_K}")
    _check_desk_x(x, SIEVE_MAX_X)
    D = _modulus_cutoff(x, q, L, "L")
    _check_residue_entries(q, D)
    Y = x / (2 * q)
    Y1 = log_integral_Y1(x, q)
    ds = [d for d in np.flatnonzero(mobius_table(D)).tolist() if math.gcd(d, q) == 1]  # squarefree d
    hi = int(math.floor(x))
    half = hi // 2  # floor(x/2) >= 2, as log_integral_Y1 needs x >= 4
    tail_counts = prime_residue_counts(max(half + h_m, 0), hi, [q * d for d in ds], q, a % q)

    terms1: list[float] = []
    terms2: list[float] = []
    for d, counts in zip(ds, tail_counts):
        ps = factorize(d).primes
        w = (3 * k) ** len(ps)  # tau_{3k}(d) for squarefree d
        b_d = crt_unit_lift(a, q, d)  # 1 <= b_d <= m
        m = q * d
        terms1.append(w * abs((hi - b_d) // m - (half - b_d) // m - Y / d))
        terms2.append(w * abs(int(counts[b_d % m]) - Y1 / math.prod(p - 1 for p in ps)))
    return MaynardConditionReport(
        x=x,
        q=q,
        a=a,
        h_m=h_m,
        k=k,
        L=L,
        lhs1=math.fsum(terms1),
        lhs2=math.fsum(terms2),
        term_count=len(ds),
        skipped=0,
    )
