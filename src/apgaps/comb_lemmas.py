"""Exact subset-sum scans over nonincreasing exponent tuples.

A tuple is fourteen nonnegative rationals alpha_1 >= ... >= alpha_14 summing
to 1 (the factor count of the 7-fold decomposition). Two claims get brute
force verification over every rational tuple with bounded denominator:

- trichotomy: alpha_1 + alpha_2 < 1/2 forces some subset sum into
  [2/5, 3/5], so the large/medium product cases cover everything when the
  modulus exponent stays below 2/5.
- the five-part lemma: if additionally no subset sum lands in [5/12, 7/12],
  then alpha_5 > 1/6 and alpha_1 + alpha_2 + alpha_6 + ... + alpha_14 < 5/12.

Interval endpoints are closed (the adversarially harder reading) and every
grid decision runs in exact integer arithmetic via subset-sum bitsets.
Randomized real sweeps supplement the grids but never replace them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

N_PARTS = 14

CASE_LARGE_PAIR = "case1"  # alpha_1 + alpha_2 >= 1/2
CASE_MEDIUM_SUBSET = "case2"  # some subset sum in the medium window
CASE_REMAINDER = "case3"


@dataclass(frozen=True)
class ExponentTuple:
    """Nonincreasing nonnegative rational 14-tuple with unit sum."""

    parts: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.parts) != N_PARTS:
            raise ValueError(f"need exactly {N_PARTS} parts")
        if any(p < 0 for p in self.parts):
            raise ValueError("parts must be nonnegative")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be nonincreasing")
        if sum(self.parts) != 1:
            raise ValueError("parts must sum to 1")

    @classmethod
    def from_numerators(cls, numers, den: int) -> "ExponentTuple":
        return cls(tuple(Fraction(a, den) for a in numers))


def subset_sums_bitset(numers) -> int:
    """Bitmask whose bit S is set iff some subset of numers sums to S."""
    bits = 1
    for a in numers:
        if a:
            bits |= bits << a
    return bits


def _has_subset_in(numers, lo_num: int, hi_num: int) -> bool:
    """True iff some subset sum S satisfies lo_num <= S <= hi_num (closed)."""
    if hi_num < lo_num:
        return False
    bits = subset_sums_bitset(numers)
    width = hi_num - lo_num + 1
    return (bits >> lo_num) & ((1 << width) - 1) != 0


def has_subset_sum_in(parts, lo: Fraction, hi: Fraction) -> bool:
    """Exact closed-interval subset-sum test for a rational tuple."""
    den = math.lcm(*(p.denominator for p in parts), lo.denominator, hi.denominator)
    numers = [int(p * den) for p in parts]
    lo_num = int(lo * den)
    hi_num = int(hi * den)
    return _has_subset_in(numers, lo_num, hi_num)


def classify_case(alpha: ExponentTuple, theta, eps) -> str:
    """Largest-pair / medium-subset / remainder classification.

    The medium window is [1/2, 1 - theta - eps], the hardest instantiation
    of the subset-product condition; the subset scan is exhaustive.
    """
    theta = Fraction(theta)
    eps = Fraction(eps)
    if not 0 < theta < Fraction(1, 2):
        raise ValueError("need 0 < theta < 1/2")
    if alpha.parts[0] + alpha.parts[1] >= Fraction(1, 2):
        return CASE_LARGE_PAIR
    if has_subset_sum_in(alpha.parts, Fraction(1, 2), 1 - theta - eps):
        return CASE_MEDIUM_SUBSET
    return CASE_REMAINDER


def partitions_of(total: int, max_parts: int, max_part: int | None = None):
    """Nonincreasing positive integer tuples summing to total, at most max_parts parts."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions_of(total - first, max_parts - 1, first):
            yield (first,) + rest


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def verify_trichotomy(max_denominator: int) -> list[tuple[int, tuple[int, ...]]]:
    """Counterexample scan: tuples with alpha_1 + alpha_2 < 1/2 and no subset
    sum in [2/5, 3/5]. Returns (denominator, numerators) pairs; expected empty.
    """
    if max_denominator > 48:
        raise ValueError("partition enumeration bound is 48")
    bad = []
    for den in range(1, max_denominator + 1):
        lo = _ceil_div(2 * den, 5)
        hi = (3 * den) // 5
        for numers in partitions_of(den, N_PARTS):
            a1 = numers[0]
            a2 = numers[1] if len(numers) > 1 else 0
            if 2 * (a1 + a2) >= den:
                continue
            if not _has_subset_in(numers, lo, hi):
                bad.append((den, numers))
    return sorted(bad)


def verify_comblem(max_denominator: int) -> list[tuple[int, tuple[int, ...]]]:
    """Counterexample scan for the five-part lemma.

    Hypotheses: sum 1, alpha_1 + alpha_2 < 1/2, no subset sum in
    [5/12, 7/12]. Conclusions: alpha_5 > 1/6 and
    alpha_1 + alpha_2 + alpha_6 + ... + alpha_14 < 5/12. Expected empty.

    The unit-sum normalization covers all fourteen parts; the twelve-part
    phrasing of the same statement is the zero-padded subcase of this grid.
    """
    if max_denominator > 48:
        raise ValueError("partition enumeration bound is 48")
    bad = []
    for den in range(1, max_denominator + 1):
        lo = _ceil_div(5 * den, 12)
        hi = (7 * den) // 12
        for numers in partitions_of(den, N_PARTS):
            padded = numers + (0,) * (N_PARTS - len(numers))
            a1, a2 = padded[0], padded[1]
            if 2 * (a1 + a2) >= den:
                continue
            if _has_subset_in(numers, lo, hi):
                continue
            fifth_ok = 6 * padded[4] > den
            listed = a1 + a2 + sum(padded[5:])
            list_ok = 12 * listed < 5 * den
            if not (fifth_ok and list_ok):
                bad.append((den, numers))
    return sorted(bad)


# ---------------------------------------------------------------------------
# randomized real sweeps (supplementary; exact fallback for greedy failures)


def _random_sorted_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of nonincreasing 14-tuples uniform on the unit simplex."""
    e = rng.exponential(size=(n, N_PARTS))
    t = e / e.sum(axis=1, keepdims=True)
    return -np.sort(-t, axis=1)


def _greedy_hits_window(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Greedy subset build per row: keep adding parts while the sum stays <= hi.

    Returns a bool mask of rows whose greedy sum lands in [lo, hi]. Rows that
    miss may still contain a subset in the window; callers must follow up with
    the exact scan.
    """
    s = np.zeros(len(rows))
    for i in range(rows.shape[1]):
        col = rows[:, i]
        take = s + col <= hi
        s = np.where(take, s + col, s)
    return s >= lo


_SUBSET_MATRIX = ((np.arange(1 << N_PARTS)[:, None] >> np.arange(N_PARTS)) & 1).astype(np.float64)


def _exact_rows_with_subset(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Exhaustive 2^14 subset scan per row; bool mask of rows hitting [lo, hi]."""
    out = np.empty(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        sums = _SUBSET_MATRIX @ row
        out[i] = bool(np.any((sums >= lo) & (sums <= hi)))
    return out


def _trichotomy_rows(rows: np.ndarray) -> tuple[int, list]:
    """(checked, counterexamples) of the trichotomy among sorted simplex rows."""
    rows = rows[rows[:, 0] + rows[:, 1] < 0.5]
    found = _greedy_hits_window(rows, 0.4, 0.6)
    hard = rows[~found]
    if not len(hard):
        return len(rows), []
    really = _exact_rows_with_subset(hard, 0.4, 0.6)
    return len(rows), [tuple(row) for row in hard[~really]]


def _comblem_rows(rows: np.ndarray) -> tuple[int, list]:
    """(checked, counterexamples) of the five-part lemma among sorted simplex rows.

    A counterexample passes both hypotheses yet fails a conclusion.
    """
    lo, hi = 5 / 12, 7 / 12
    rows = rows[rows[:, 0] + rows[:, 1] < 0.5]
    concl = (rows[:, 4] > 1 / 6) & (rows[:, 0] + rows[:, 1] + rows[:, 5:].sum(axis=1) < 5 / 12)
    suspects = rows[~concl]
    hard = suspects[~_greedy_hits_window(suspects, lo, hi)]
    if not len(hard):
        return len(rows), []
    really = _exact_rows_with_subset(hard, lo, hi)
    return len(rows), [tuple(row) for row in hard[~really]]


def _random_sweep(n: int, seed: int, batch: int, checks) -> list[tuple[int, list]]:
    """Run every check on each batch of n seeded sorted simplex tuples, drawn once."""
    rng = np.random.default_rng(seed)
    checked = [0] * len(checks)
    bad: list[list] = [[] for _ in checks]
    remaining = n
    while remaining > 0:
        rows = _random_sorted_simplex(min(batch, remaining), rng)
        remaining -= len(rows)
        for i, check in enumerate(checks):
            c, b = check(rows)
            checked[i] += c
            bad[i] += b
    return list(zip(checked, bad))


def random_trichotomy_sweep(n: int, seed: int = 0, batch: int = 100_000) -> tuple[int, list]:
    """Sample n sorted simplex tuples; report (checked, counterexamples)."""
    return _random_sweep(n, seed, batch, (_trichotomy_rows,))[0]


def random_comblem_sweep(n: int, seed: int = 0, batch: int = 100_000) -> tuple[int, list]:
    """Sample n tuples; counterexamples must pass both hypotheses yet fail a conclusion."""
    return _random_sweep(n, seed, batch, (_comblem_rows,))[0]


def random_sweeps(n: int, seed: int = 0, batch: int = 100_000) -> tuple[tuple[int, list], tuple[int, list]]:
    """Both sweeps on one draw: what random_trichotomy_sweep and
    random_comblem_sweep return for the same (n, seed, batch), at the cost
    of one draw of n tuples.
    """
    return tuple(_random_sweep(n, seed, batch, (_trichotomy_rows, _comblem_rows)))
