"""Exact subset-sum scans over nonincreasing exponent tuples, and the one
uniform simplex sampler.

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
grid_scan walks the partitions once and tests one bitset per tuple against
both windows; partitions_of, its walk, also indexes the variational basis.

Randomized real sweeps supplement the grids but never replace them.
simplex_batches draws uniform points of a simplex, one per column of a
caller's buffer, in the row-major order of one exponential draw; it feeds
both random_sweeps here and the Monte-Carlo check of every M_k certificate
(variational.verify_certificate). It draws one batch ahead on a worker
thread, batches alternating between the caller's buffer and one spare of
its shape, and the values are those of one inline draw.

random_sweeps checks both claims on each batch of columns, sorting no
tuple it need not: the hypothesis reads the two largest parts from one
scan of the columns, and one greedy subset sum, capped at 7/12, serves
both claims, because the five-part window [5/12, 7/12] lies inside the
trichotomy window [2/5, 3/5]. Only the tuples that greedy misses are
sorted, to read the five-part conclusions and to reach the exact 2^14
subset scan.
"""

from __future__ import annotations

import threading

import numpy as np

N_PARTS = 14


def subset_sums_bitset(numers) -> int:
    """Bitmask whose bit S is set iff some subset of numers sums to S."""
    bits = 1
    for a in numers:
        if a:
            bits |= bits << a
    return bits


def _greedy_parts(total: int, top: int) -> list[int]:
    """As many parts top as fit in total, then the remainder: the first partition in reverse-lex order."""
    q, rem = divmod(total, top)
    return [top] * q + ([rem] if rem else [])


def partitions_of(total: int, max_parts: int):
    """Nonincreasing positive integer tuples summing to total, at most max_parts parts.

    They come in reverse-lexicographic order, without recursion: each step
    lowers the rightmost part that can drop by 1 to v while the sum to its
    right, rest, still fits (rest <= parts_left * v), and refills greedily.
    """
    if total == 0:
        yield ()
        return
    if total < 0 or max_parts < 1:
        return
    parts = [total]
    while True:
        yield tuple(parts)
        rest = 1  # the sum right of parts[i] once parts[i] drops by 1
        for i in range(len(parts) - 1, -1, -1):
            v = parts[i] - 1
            if v and rest <= (max_parts - 1 - i) * v:
                parts[i:] = _greedy_parts(v + rest, v)
                break
            rest += parts[i]
        else:
            return


# Rows drawn per generator call while a batch is transposed, so the row-major
# draws never take a second array of the batch's size.
_DRAW_CHUNK = 2048


def column_sums(cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of each column of cols, its rows added in order from the first.

    numpy adds the rows of an array of two or more columns one by one, but
    sums a lone column pairwise once it has 8 rows or more; that column is
    accumulated in row order instead, so a column's sum is the same float
    whatever the number of columns beside it.
    """
    if cols.shape[1] == 1:
        cols = np.add.accumulate(cols, axis=0)[-1:]
    return np.add.reduce(cols, axis=0, out=out)


def _fill_batch(rng: np.random.Generator, batch: np.ndarray, chunk: np.ndarray) -> None:
    """Draw batch's columns in row-major order, chunk rows at a time, and divide each by its sum."""
    m = batch.shape[1]
    for lo in range(0, m, len(chunk)):
        part = chunk[: m - lo]
        rng.standard_exponential(out=part)
        batch[:, lo : lo + len(part)] = part.T
    batch /= column_sums(batch)


def simplex_batches(rng: np.random.Generator, out: np.ndarray, n: int):
    """Yield n uniform points of the unit simplex, one per column, in views of out or of one spare.

    out has one row per coordinate, and each batch fills as many of its
    leading columns as remain, at most all of them. The draws are those of
    rng.exponential(size=(n, rows)), in the same order: chunks of rows are
    drawn and transposed into the batch, and each column is then divided
    by its sum (column_sums), so a point is the same at any width of out.

    One worker thread draws one batch ahead: it fills batch i + 1 while
    the caller reads batch i, and batches alternate between out and a
    spare buffer of out's shape. The worker alone touches rng while the
    generator runs, and the batches hold the same values as inline draws.
    A batch is valid until the next one is requested. Closing the
    generator, or an error while filling, which reaches the caller, stops
    and joins the worker.
    """
    rows, width = out.shape
    chunk = np.empty((min(_DRAW_CHUNK, width, max(n, 0)), rows))
    starts = range(0, n, width)
    buffers = (out, np.empty_like(out))
    free = threading.Semaphore(2)  # buffers the worker may fill
    ready = threading.Semaphore(0)  # batches filled and not yet yielded
    stop = threading.Event()
    errors: dict[int, BaseException] = {}  # batch index: the error that ended its fill

    def fill_ahead() -> None:
        for i, start in enumerate(starts):
            free.acquire()
            if stop.is_set():
                return
            try:
                _fill_batch(rng, buffers[i % 2][:, : min(width, n - start)], chunk)
            except BaseException as exc:  # raised again by the caller when it asks for batch i
                errors[i] = exc
                return
            finally:
                ready.release()

    worker = threading.Thread(target=fill_ahead, name="simplex_batches", daemon=True)
    worker.start()
    try:
        for i, start in enumerate(starts):
            ready.acquire()
            if i in errors:
                raise errors[i]
            yield buffers[i % 2][:, : min(width, n - start)]
            free.release()
    finally:
        stop.set()
        free.release()
        worker.join()


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _window_bits(lo: int, hi: int) -> int:
    """Bitmask of the closed window [lo, hi] of subset sums; 0 if it is empty."""
    return ((1 << (hi - lo + 1)) - 1) << lo if hi >= lo else 0


def _grid_decisions(max_denominator: int):
    """(den, numers, trichotomy_ok, five_part_ok) for every grid tuple.

    One subset-sum bitset per tuple is tested against both windows. A tuple
    with alpha_1 + alpha_2 >= 1/2 fails the shared hypothesis and satisfies
    both claims vacuously.
    """
    if max_denominator > 48:
        raise ValueError("partition enumeration bound is 48")
    for den in range(1, max_denominator + 1):
        tri_window = _window_bits(_ceil_div(2 * den, 5), (3 * den) // 5)
        five_window = _window_bits(_ceil_div(5 * den, 12), (7 * den) // 12)
        for numers in partitions_of(den, N_PARTS):
            a12 = numers[0] + (numers[1] if len(numers) > 1 else 0)
            if 2 * a12 >= den:
                yield den, numers, True, True
                continue
            bits = subset_sums_bitset(numers)
            tri_ok = (bits & tri_window) != 0
            if bits & five_window:
                yield den, numers, tri_ok, True
                continue
            fifth_ok = len(numers) > 4 and 6 * numers[4] > den
            list_ok = 12 * (a12 + sum(numers[5:])) < 5 * den
            yield den, numers, tri_ok, fifth_ok and list_ok


def grid_scan(max_denominator: int) -> tuple[int, list, list]:
    """One pass over every tuple with denominator <= max_denominator.

    Returns (tuples, trichotomy counterexamples, five-part counterexamples).
    Each list holds sorted (denominator, numerators) pairs, as
    verify_trichotomy and verify_comblem return them; both are expected
    empty.
    """
    tuples = 0
    tri: list = []
    five: list = []
    for den, numers, tri_ok, five_ok in _grid_decisions(max_denominator):
        tuples += 1
        if not tri_ok:
            tri.append((den, numers))
        if not five_ok:
            five.append((den, numers))
    return tuples, sorted(tri), sorted(five)


def verify_trichotomy(max_denominator: int) -> list[tuple[int, tuple[int, ...]]]:
    """Counterexample scan: tuples with alpha_1 + alpha_2 < 1/2 and no subset
    sum in [2/5, 3/5]. Returns (denominator, numerators) pairs; expected empty.
    """
    return grid_scan(max_denominator)[1]


def verify_comblem(max_denominator: int) -> list[tuple[int, tuple[int, ...]]]:
    """Counterexample scan for the five-part lemma.

    Hypotheses: sum 1, alpha_1 + alpha_2 < 1/2, no subset sum in
    [5/12, 7/12]. Conclusions: alpha_5 > 1/6 and
    alpha_1 + alpha_2 + alpha_6 + ... + alpha_14 < 5/12. Expected empty.

    The unit-sum normalization covers all fourteen parts; the twelve-part
    phrasing of the same statement is the zero-padded subcase of this grid.
    """
    return grid_scan(max_denominator)[2]


# ---------------------------------------------------------------------------
# randomized real sweeps (supplementary; exact fallback for greedy failures)

_SUBSET_MATRIX = ((np.arange(1 << N_PARTS)[:, None] >> np.arange(N_PARTS)) & 1).astype(np.float64)


def _exact_rows_with_subset(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Exhaustive 2^14 subset scan per row; bool mask of rows hitting [lo, hi]."""
    out = np.empty(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        sums = _SUBSET_MATRIX @ row
        out[i] = bool(np.any((sums >= lo) & (sums <= hi)))
    return out


def _greedy_sum(cols: np.ndarray, hi: float) -> np.ndarray:
    """Greedy subset sum of each tuple stored as a column of cols, shape
    (14, b): add each part, in the row order of cols, that keeps the sum <= hi.
    """
    total = np.zeros(cols.shape[1])
    step = np.empty_like(total)
    take = np.empty(len(total), dtype=bool)
    for col in cols:
        np.add(total, col, out=step)
        np.less_equal(step, hi, out=take)
        # total + col where taken, total + 0.0 == total elsewhere
        np.multiply(col, take, out=step)
        total += step
    return total


def _check_columns(cols: np.ndarray) -> tuple[int, list, list]:
    """(checked, trichotomy counterexamples, five-part counterexamples) of the
    tuples stored as the columns of cols, shape (14, b), parts in any order.

    No tuple is sorted to decide the hypothesis: the sum of the two largest
    parts, kept by one scan, is the same float as alpha_1 + alpha_2. One
    greedy subset sum capped at 7/12 runs in row order; a sum of at least
    5/12 lies in [5/12, 7/12], inside [2/5, 3/5], so it proves both claims.
    Only the tuples it misses are sorted, into rows: the five-part
    conclusions are read there, a greedy in nonincreasing order tries the
    trichotomy window, and the exact 2^14 scan decides the rest.
    Counterexamples are those sorted rows, in column order.
    """
    first = np.maximum(cols[0], cols[1])
    second = np.minimum(cols[0], cols[1])
    low = np.empty_like(first)
    for col in cols[2:]:
        np.minimum(first, col, out=low)
        np.maximum(first, col, out=first)
        np.maximum(second, low, out=second)
    hyp = first + second < 0.5
    missed = np.flatnonzero(hyp & (_greedy_sum(cols, 7 / 12) < 5 / 12))
    rows = -np.sort(-cols.T[missed], axis=1)
    # the five-part conclusions: alpha_5 > 1/6 and
    # alpha_1 + alpha_2 + alpha_6 + ... + alpha_14 < 5/12
    concl = (rows[:, 4] > 1 / 6) & (rows[:, 0] + rows[:, 1] + rows[:, 5:].sum(axis=1) < 5 / 12)
    tri_hard = rows[_greedy_sum(rows.T, 0.6) < 0.4]
    five_hard = rows[~concl]
    tri = tri_hard[~_exact_rows_with_subset(tri_hard, 0.4, 0.6)]
    five = five_hard[~_exact_rows_with_subset(five_hard, 5 / 12, 7 / 12)]
    return int(np.count_nonzero(hyp)), [tuple(row) for row in tri], [tuple(row) for row in five]


# Random tuples checked per batch: the width of the reused column buffer.
# The draws are made in order, so the tuples checked do not depend on it.
_SWEEP_BATCH = 16_384


def random_sweeps(n: int, seed: int = 0) -> tuple[tuple[int, list], tuple[int, list]]:
    """Both randomized checks on one seeded draw of n simplex tuples.

    Returns ((checked, counterexamples) of the trichotomy, the same of the
    five-part lemma). The tuples come from simplex_batches, _SWEEP_BATCH
    columns at a time, and no row is sorted unless _check_columns needs it.
    """
    rng = np.random.default_rng(seed)
    cols = np.empty((N_PARTS, min(_SWEEP_BATCH, max(n, 1))))
    checked = 0
    tri_bad: list = []
    five_bad: list = []
    for batch in simplex_batches(rng, cols, n):
        c, tri, five = _check_columns(batch)
        checked += c
        tri_bad += tri
        five_bad += five
    return (checked, tri_bad), (checked, five_bad)


def random_trichotomy_sweep(n: int, seed: int = 0) -> tuple[int, list]:
    """Sample n sorted simplex tuples; report (checked, counterexamples)."""
    return random_sweeps(n, seed)[0]


def random_comblem_sweep(n: int, seed: int = 0) -> tuple[int, list]:
    """Sample n tuples; counterexamples must pass both hypotheses yet fail a conclusion."""
    return random_sweeps(n, seed)[1]
