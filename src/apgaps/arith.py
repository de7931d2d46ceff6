"""Integer arithmetic, multiplicative functions, and segmented prime sieves.

Intervals are half-open (lo, hi] throughout and all logarithms are natural.
One segmented sieve, class_segments, yields the primes of one residue class
a mod q, and primes_in_range is its class 0 mod 1. Each segment holds one
flag per odd member of the class (step q for even q, 2q for odd q), and its
flags start as one copy of a cached wheel period, tiled, that has already
struck the multiples of the primes 3 to 13 that do not divide q, so only
the primes from 17 up to sqrt(hi) are marked with strides, one stride per
prime; 2 and the wheel primes of the class are added back. Von Mangoldt
weights come from von_mangoldt_table (the dense table Lambda(0..n), whose
nonzero entries prime_power_arrays lists), or psi_residue_sums, which
streams one class's sieve segments into per-residue float bincounts;
prime_residue_counts streams them into exact integer counts. Streams add
the class's higher prime powers p^j, j >= 2, from higher_prime_powers,
which masks one list cached per segment-aligned cap. Residues of whole
arrays go through residues(a, m), a floor division by a scalar of a's
dtype, which numpy runs faster than %; while the numbers are below 2**31
they are taken on an int32 copy of each segment: the same integers, found
faster still. The residue vectors of psi_residue_sums are plain float sums
in a fixed order (segment by segment of the class sieved, fixed modulus
groups), so the same call gives the same bits.
The dense phi and Möbius tables take one strided update per prime up to
sqrt(n), then the larger primes together, one cofactor at a time
(large_multiples); reduced_residue_mask(m) strikes one stride per
prime of m. A float array's exact sum is one integer (_exact_int, by
error-free extraction over a buffer of at most _EXTRACT_CHUNK terms),
rounded once by _exact_sum: == math.fsum, for bv_sums and heath_brown.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_SEGMENT = 1 << 20

# Deterministic Miller-Rabin witness set, valid for all n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Primality test: deterministic for 0 <= n < 2**64, Baillie-PSW above.

    Below 2**64 the twelve Miller-Rabin witnesses decide. Above, a strong
    Lucas test follows them (base 2 among them makes the pair Baillie-PSW),
    which no composite is known to pass.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 2**64 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1, Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4. With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_{d 2^r} = 0 mod n for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(v: int) -> int:
        v %= n
        return (v + n if v & 1 else v) // 2

    # (U_k, V_k, Q^k) from k = 1, doubling and stepping by the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _brent_rho(n: int, steps: int | None = None) -> int | None:
    """Nontrivial factor of an odd composite n, deterministic parameter sweep.

    With steps given, None once that many squarings mod n found none.
    """
    if n % 2 == 0:
        return 2
    left = math.inf if steps is None else steps
    for c in range(1, 256):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            # one round: r squarings to move x, at most r more for the gcds
            left -= 2 * r
            if left < 0:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition: factors is ((p1, e1), ...) with p1 < p2 < ..."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must have strictly increasing primes, exponents >= 1")
            prod *= p**e
            last = p
        if prod != self.n:
            raise ValueError(f"factor product {prod} != {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


_TRIAL_LIMIT = 20000


@lru_cache(maxsize=None)
def _trial_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_in_range(0, _TRIAL_LIMIT))


def _factor_hard(m: int, out: list[int], steps: int | None = None) -> bool:
    """Append the prime factors of m to out; False where rho, given steps
    squarings per split, leaves a composite unsplit."""
    if m == 1:
        return True
    if is_prime(m):
        out.append(m)
        return True
    d = _brent_rho(m, steps)
    return d is not None and _factor_hard(d, out, steps) and _factor_hard(m // d, out, steps)


def _divide_out(m: int, primes) -> tuple[list[tuple[int, int]], int]:
    """(p, e) for each of the ascending primes dividing m, stopping once p * p > m, and the cofactor left."""
    factors = []
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    return factors, m


def factorize(n: int) -> Factorization:
    """Exact factorization for 1 <= n < 2**64."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors, m = _divide_out(n, _trial_primes())
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            # below the trial square the cofactor is prime
            factors.append((m, 1))
        else:
            hard: list[int] = []
            _factor_hard(m, hard)
            factors += Counter(hard).items()
    factors.sort()
    return Factorization(n, tuple(factors))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return math.prod(factorize(n).primes)


def trial_divide(n: int, bound: int) -> tuple[int, int]:
    """(r, m): m is n with its primes up to bound divided out, r their product.

    Division stops once p * p > m, so m is 1, a prime, or a number whose
    prime factors all exceed bound; radical(n) = r * radical(m).
    """
    factors, m = _divide_out(n, map(int, primes_in_range(0, bound)))
    return math.prod(p for p, _ in factors), m


def least_root(m: int, bound: int) -> int:
    """The least r with m = r**j for some j >= 1, for m >= 1 whose prime
    factors all exceed bound; r has the radical of m.

    A root of order j has prime factors above bound, so it needs
    j * (bound.bit_length() - 1) < m.bit_length(): only those prime j are
    tried, each for as long as m is a j-th power.
    """
    for j in primes_in_range(0, m.bit_length() // max(bound.bit_length() - 1, 1)).tolist():
        while (root := floor_power(m, Fraction(1, j))) ** j == m:
            m = root
    return m


def rho_radical(m: int, steps: int) -> int | None:
    """radical(m) for m >= 1, or None where Brent rho, given steps squarings
    per split, leaves a composite factor unsplit."""
    hard: list[int] = []
    return math.prod(set(hard)) if _factor_hard(m, hard, steps) else None


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n).factors:
        out = out // p * (p - 1)
    return out


def crt_unit_lift(a: int, q: int, d: int) -> int:
    """Smallest positive n with n = a (mod q) and n = 1 (mod d); gcd(q, d) = 1."""
    if d == 1:
        return a % q if a % q else q
    inv = pow(q, -1, d)
    n = (a % q) + q * (((1 - a) * inv) % d)
    n %= q * d
    return n if n else q * d


def exact_exponent(e: float | Fraction) -> Fraction:
    """A float exponent read as the decimal it prints as: Fraction(repr(e))."""
    return e if isinstance(e, Fraction) else Fraction(repr(e))


_MAX_EXPONENT_DENOMINATOR = 10**5


def floor_power(x: float | Fraction, e: float | Fraction) -> int:
    """Exact floor(x**e) for x >= 0 and e >= 0.

    With e = num/den (see exact_exponent) this is the integer den-th root of
    floor(x**num), found by Newton's iteration in integers, as math.isqrt
    does, from a seed read off log2 of that integer.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("need finite x")
    xf, ef = Fraction(x), exact_exponent(e)
    if xf < 0 or ef < 0:
        raise ValueError("need x >= 0 and e >= 0")
    num, den = ef.numerator, ef.denominator
    if den > _MAX_EXPONENT_DENOMINATOR:
        raise ValueError(f"exponent {e} needs a denominator <= {_MAX_EXPONENT_DENOMINATOR}")
    n = xf.numerator**num // xf.denominator**num
    if den == 1 or n < 2:
        return n

    def step(r: int) -> int:
        return ((den - 1) * r + n // r ** (den - 1)) // den

    # seed just above 2**(log2(n) / den), its top 53 bits in a float: from
    # far below the root, the first step would overshoot to about n / den,
    # and from there each step only scales r by (den - 1) / den
    root_log = math.log2(n) / den
    shift = max(int(root_log) - 53, 0)
    r = (int(2.0 ** (root_log - shift)) + 1) << shift
    # by AM-GM one step from any r >= 1 lands at or above the root; from
    # there each step descends until it stops at the root
    r = step(r)
    while (s := step(r)) < r:
        r = s
    return r


def residues(a: np.ndarray, m: int) -> np.ndarray:
    """a mod m in [0, m) for an integer array a and 1 <= m within a's dtype, as a - (a // m) * m.

    With m cast to a's dtype the floor division takes numpy's fast path for a
    scalar divisor (about 2.5x faster than % on int32). The product may wrap,
    but the result fits the dtype, so the wrapped arithmetic is exact.
    """
    m = a.dtype.type(m)
    out = a // m
    out *= m
    np.subtract(a, out, out=out)
    return out


# ---------------------------------------------------------------------------
# sieving


def _base_primes(limit: int) -> np.ndarray:
    """Direct sieve up to limit (the marking primes of segments with hi <= limit^2)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


# Pre-sieve wheel: the odd primes up to 13 that do not divide the modulus.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_SMALL_PRIMES = (2,) + _WHEEL_PRIMES


@lru_cache(maxsize=None)
def _wheel_period(wheel: int) -> np.ndarray:
    """One period of the wheel: entry t is True iff t is prime to `wheel`, a product of wheel primes."""
    period = np.ones(wheel, dtype=bool)
    for p in _WHEEL_PRIMES:
        if wheel % p == 0:
            period[::p] = False
    period.setflags(write=False)
    return period


def class_segments(lo: int, hi: int, q: int, a: int):
    """The primes p in (lo, hi] with p = a (mod q): one ascending int64 array
    per sieve segment, possibly empty.

    Only the odd members of the class are flagged: flag i stands for
    n = n0 + s*i, with the step s = q for even q and 2q for odd q, and n0
    the first odd member above lo. The segments hold DEFAULT_SEGMENT * s / 2
    numbers each (DEFAULT_SEGMENT at q = 1), so DEFAULT_SEGMENT / 2 flags.
    Each segment's flags start as one copy of the wheel's period (cached
    per wheel), tiled from the segment's offset in it; the wheel has
    already struck the multiples of the primes 3 to 13 that do not divide
    q. Every larger marking prime p not dividing q strikes one stride of p
    flags, from the first member that is a multiple of p and at least p^2.
    The marking primes up to sqrt(hi) and their first strikes are found
    once per call, the inverses of s mod p in Python and the rest as int64
    arrays. The class a mod q with gcd(a, q) = g > 1 holds at most the
    prime g. The arguments are checked on the first step.
    """
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    if q < 1 or not 0 <= a < q:
        raise ValueError("need q >= 1 and 0 <= a < q")
    g = math.gcd(a, q)
    if g > 1:
        yield np.array([g] if g % q == a and lo < g <= hi and is_prime(g) else [], dtype=np.int64)
        return
    s = q if q % 2 == 0 else 2 * q
    r = a if a % 2 else a + q  # the odd members of the class are r mod s
    wheel = math.prod(p for p in _WHEEL_PRIMES if q % p)
    shift = r * pow(s, -1, wheel) % wheel  # gcd(r + s*j, wheel) = gcd(j + shift, wheel)
    period = _wheel_period(wheel)
    # 2 and the wheel primes of the class: even, or struck by the wheel
    small = np.array([p for p in _SMALL_PRIMES if p % q == a], dtype=np.int64)
    base = _base_primes(math.isqrt(hi))
    ps = base[(base > _SMALL_PRIMES[-1]) & (q % base != 0)]
    # first_j[k]: the least j >= 0 with r + s*j >= p^2 and p | r + s*j, for p = ps[k]
    # (products stay below hi < 2**63: r is taken mod p, and p * p <= hi)
    inverses = np.array([pow(s, -1, p) for p in ps.tolist()], dtype=np.int64)
    first_j = (np.maximum(ps * ps - r, 0) + s - 1) // s
    first_j += (-(r % ps) * inverses - first_j) % ps
    step = DEFAULT_SEGMENT * s // 2
    for seg_lo in range(lo, hi, step):
        seg_hi = min(seg_lo + step, hi)
        j0 = (seg_lo - r) // s + 1
        n0, count = r + s * j0, max((seg_hi - r) // s + 1 - j0, 0)
        t0 = (j0 + shift) % wheel
        flags = np.tile(period, (t0 + count) // wheel + 1)[t0 : t0 + count]  # the one copy of the wheel
        if n0 == 1:
            flags[:1] = False  # n = 1
        last = int(np.searchsorted(ps, math.isqrt(seg_hi), side="right"))
        d = first_j[:last] - j0  # each stride's first flag at or after j0: d, or d mod p if d < 0
        for p, i in zip(ps[:last].tolist(), np.maximum(d, d % ps[:last]).tolist()):
            flags[i::p] = False
        out = np.flatnonzero(flags).astype(np.int64, copy=False)
        del flags  # not held while the caller works on the segment
        out *= s
        out += n0
        if seg_lo < _SMALL_PRIMES[-1]:
            out = np.concatenate([small[(seg_lo < small) & (small <= seg_hi)], out])
        box = [out]  # the generator keeps no reference to the segment while the caller holds it
        del out
        yield box.pop()


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Ascending primes in (lo, hi]; segment size never changes the output."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    if lo < 0:
        raise ValueError("need 0 <= lo < hi")
    return np.concatenate(list(class_segments(lo, hi, 1, 0)))


def primes_in_ap(lo: int, hi: int, q: int, a: int) -> list[int]:
    """Ascending primes p in (lo, hi] with p = a (mod q), as Python ints."""
    return np.concatenate(list(class_segments(lo, hi, q, a))).tolist()


def _segment_cap(n: int) -> int:
    """The least multiple of DEFAULT_SEGMENT >= n: prime-power caches are built to it, so nearby n share one."""
    return -(-n // DEFAULT_SEGMENT) * DEFAULT_SEGMENT


def prime_power_arrays(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, W): ascending prime powers P <= limit and their weights W = log p,
    the nonzero entries of von_mangoldt_table(limit)."""
    lam = von_mangoldt_table(limit)
    P = np.flatnonzero(lam)
    return P, lam[P]


def higher_prime_powers(n: int, q: int = 1, a: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Prime powers p^j <= n with j >= 2 and p^j = a (mod q), 0 <= a < q, and
    their weights log p, ordered by p, then ascending j.

    Masked from the list cached at the segment-aligned cap above n, so the
    calls of one size range share one build.
    """
    P, W = _higher_prime_powers_cap(_segment_cap(n))
    keep = P <= n
    if q > 1:
        keep &= residues(P, q) == a
    return P[keep], W[keep]


@lru_cache(maxsize=4)
def _higher_prime_powers_cap(cap: int) -> tuple[np.ndarray, np.ndarray]:
    powers, weights = [], []
    for p in _base_primes(math.isqrt(cap)).tolist():
        logp = math.log(p)
        pk = p * p
        while pk <= cap:
            powers.append(pk)
            weights.append(logp)
            pk *= p
    P, W = np.array(powers, dtype=np.int64), np.array(weights, dtype=np.float64)
    P.setflags(write=False)
    W.setflags(write=False)
    return P, W


# Group moduli for _class_residue_sums: one bincount into M bins serves every m | M.
_GROUP_BINS = 1 << 16


def _modulus_groups(moduli) -> dict[int, int]:
    """Map each modulus m to a group modulus M with m | M.

    Greedy cover in descending order of (largest prime factor of m, m), so
    that the multiples of one large prime meet while their groups still
    have room: m joins the group whose lcm grows least, provided the lcm
    stays at or below _GROUP_BINS or does not grow; otherwise m opens a
    group of its own.
    """
    groups: list[list] = []  # [M, members]
    for m in sorted(set(moduli), key=lambda m: (max(factorize(m).primes, default=1), m), reverse=True):
        best, best_growth = None, None
        for g in groups:
            lcm = math.lcm(g[0], m)
            growth = lcm // g[0]
            if (growth == 1 or lcm <= _GROUP_BINS) and (best is None or growth < best_growth):
                best, best_growth = g, growth
        if best is None:
            groups.append([m, [m]])
        else:
            best[0] *= best_growth
            best[1].append(m)
    return {m: M for M, members in groups for m in members}


def _class_residue_sums(lo: int, hi: int, q: int, a: int, moduli, weighted: bool) -> list[np.ndarray]:
    """For each m in moduli, the class a mod q of (lo, hi] binned by residue mod m.

    Only the class is sieved, in one pass: each segment's primes go into
    one bincount per modulus group (_modulus_groups), of log p if weighted
    (float sums in segment order, the class's higher prime powers after
    the last segment) and of 1 otherwise (exact int64 counts of primes).
    Each group's vector is then folded down to its members. While hi and
    every group modulus are below 2**31 the residues are taken on an int32
    copy of the segment; they are the same integers, found faster.
    """
    if lo < 0:
        raise ValueError("need lo >= 0")
    if q < 1 or not 0 <= a < q:
        raise ValueError("need q >= 1 and 0 <= a < q")
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be >= 1")
    group_of = _modulus_groups(moduli)
    acc = {M: np.zeros(M, dtype=np.float64 if weighted else np.int64) for M in group_of.values()}
    if acc and lo < hi:
        narrow = hi < 2**31 and max(acc) < 2**31
        for ps in class_segments(lo, hi, q, a):
            logs = np.log(ps) if weighted else None
            r = ps.astype(np.int32) if narrow else ps
            del ps  # with r an int32 copy, the int64 segment is freed before the bincounts
            for M, vec in acc.items():
                vec += np.bincount(residues(r, M), weights=logs, minlength=M)
        if weighted:
            P, W = higher_prime_powers(hi, q, a)
            keep = P > lo
            P, W = P[keep], W[keep]
            for M, vec in acc.items():
                vec += np.bincount(residues(P, M), weights=W, minlength=M)
    return [acc[group_of[m]].reshape(-1, m).sum(axis=0) for m in moduli]


def psi_residue_sums(x: float, moduli, q: int = 1, a: int = 0) -> list[np.ndarray]:
    """For each m in moduli, psi over the class a mod q split by residue mod m.

    Entry c of m's vector is the sum of Lambda(n) over n <= x with n = a
    (mod q) and n = c (mod m); (q, a) = (1, 0) gives psi(x; m, c) for every
    residue c. One weighted pass of _class_residue_sums: memory is
    O(segment + sum of the group moduli), not O(pi(x)), and the float
    summation order is fixed by q, the segment size and the grouping.
    """
    return _class_residue_sums(0, int(math.floor(x)), q, a, moduli, weighted=True)


def prime_residue_counts(lo: int, hi: int, moduli, q: int = 1, a: int = 0) -> list[np.ndarray]:
    """For each m in moduli, the primes p = a (mod q) of (lo, hi] counted by residue mod m.

    One unweighted pass of _class_residue_sums; the counts are exact. For m
    a multiple of q, entry c is the number of primes of (lo, hi] in the
    class c mod m if c = a (mod q), and 0 otherwise; (q, a) = (1, 0) counts
    every prime.
    """
    return _class_residue_sums(lo, hi, q, a, moduli, weighted=False)


def reduced_residue_mask(m: int) -> np.ndarray:
    """Boolean array over 0 <= c < m, True where gcd(c, m) = 1: one strided strike per prime of m."""
    mask = np.ones(m, dtype=bool)
    for p in factorize(m).primes:
        mask[::p] = False
    return mask


# ---------------------------------------------------------------------------
# logarithmic integral


def _adaptive_simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = (a + m) / 2
    rm = (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive_simpson(f, a, fa, m, fm, lm, flm, left, tol / 2, depth - 1) + _adaptive_simpson(
        f, m, fm, b, fb, rm, frm, right, tol / 2, depth - 1
    )


def log_integral_Y1(x: float, q: int = 1) -> float:
    """(1/phi(q)) * integral of dt/log t over (x/2, x), adaptive to 1e-12 relative."""
    if x < 4:
        raise ValueError("need x >= 4 so the integrand stays off the pole")

    def f(t):
        return 1.0 / math.log(t)

    a, b = x / 2, x
    rough = (b - a) / math.log(b)
    m = (a + b) / 2
    fa, fb, fm = f(a), f(b), f(m)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    val = _adaptive_simpson(f, a, fa, b, fb, m, fm, whole, 1e-13 * rough, 60)
    return val / euler_phi(q)


# ---------------------------------------------------------------------------
# exact float sums

_EXTRACT_CHUNK = 1 << 14  # terms per extraction buffer (see _exact_int)


def _exact_int(a: np.ndarray) -> int:
    """The exact sum of a finite float array as an integer count of 2**-1126, a unit below every float's ulp.

    The terms are copied _EXTRACT_CHUNK at a time into one reused buffer t
    and summed there by error-free extraction (Rump, Ogita and Oishi). With
    top < 2**E the largest |t| and n + 1 <= 2**M, sigma = 2**(E + M) splits
    each t exactly into q = (t + sigma) - sigma, a multiple of
    2**(E + M - 53) with |q| <= 2**E, and a residual t - q of at most
    2**(E + M - 53). Any partial sum of the q stays on that grid below
    2**(E + M), so sum(q) is exact in any order. The residuals repeat the
    step until they are all 0; each level lowers E by at least 52 - M.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    buf = np.empty((2, min(a.size, _EXTRACT_CHUNK)))
    total = 0
    for lo in range(0, a.size, _EXTRACT_CHUNK):
        t, q = buf[:, : min(_EXTRACT_CHUNK, a.size - lo)]
        t[:] = a[lo : lo + t.size]
        M = t.size.bit_length()
        while top := max(t.max(), -t.min()):
            if not math.isfinite(top):
                raise ValueError("need finite terms")
            E = math.frexp(top)[1]
            if E + M > 1023:  # sigma would overflow: the terms >= 2**K go in their own pass, scaled by 2**-K
                K = 1023 - M
                big = np.where(np.abs(t) >= 2.0**K, t, 0.0)
                t -= big
                total += _exact_int(big * 2.0**-K) << K  # exact: every nonzero scaled term is >= 1
                continue
            sigma = 2.0 ** (E + M)
            np.add(t, sigma, out=q)
            q -= sigma
            t -= q
            num, den = q.sum().as_integer_ratio()
            total += num << (1127 - den.bit_length())
    return total


def _round_exact(total: int) -> float:
    """The float nearest total * 2**-1126: one rounding of a sum from _exact_int."""
    return total / (1 << 1126)


def _exact_sum(a: np.ndarray) -> float:
    """The correctly rounded sum of a finite float array; == math.fsum(a) unless that overflows."""
    return _round_exact(_exact_int(a))


# ---------------------------------------------------------------------------
# bulk tables (dense, for convolution work)


def von_mangoldt_table(n: int) -> np.ndarray:
    lam = np.zeros(n + 1, dtype=np.float64)
    ps = primes_in_range(0, n)
    lam[ps] = np.log(ps.astype(np.float64))
    P, W = higher_prime_powers(n)
    lam[P] = W
    return lam


def large_multiples(values: np.ndarray, n: int):
    """Yield (k, c * values[:k]) for c = 1, 2, ...: the multiples c * v <= n of ascending values.

    Every value must exceed sqrt(n); none need be prime. Each pair (c, v)
    with c * v <= n is met once, and every cofactor c is below sqrt(n), so
    this takes about sqrt(n) steps, not one per value. A number m <= n has
    at most one prime factor p > sqrt(n), to the first power, so over such
    primes m is met exactly once, as c * p: a table over m that first runs
    one strided update per prime p <= sqrt(n) can take the larger primes
    here, last, which keeps the order ascending p gave each m.
    """
    if not len(values):
        return
    if values[0] ** 2 <= n:
        raise ValueError("need values above sqrt(n)")
    tops = n // np.arange(1, n // int(values[0]) + 1)  # c * v <= n  <=>  v <= n // c
    for c, k in enumerate(np.searchsorted(values, tops, side="right").tolist(), 1):
        yield k, values[:k] * c


def phi_table(n: int) -> np.ndarray:
    """Array T with T[m] = euler_phi(m) for 1 <= m <= n (T[0] = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    root = math.isqrt(max(n, 0))
    for p in primes_in_range(0, root).tolist():
        phi[p::p] -= phi[p::p] // p
    large = primes_in_range(root, n)
    for k, ms in large_multiples(large, n):
        phi[ms] -= phi[ms] // large[:k]
    return phi


def mobius_table(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    root = math.isqrt(max(n, 0))
    for p in primes_in_range(0, root).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    for _, ms in large_multiples(primes_in_range(root, n), n):
        mu[ms] *= -1
    if n >= 0:
        mu[0] = 0
    return mu
