import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apgaps.comb_lemmas as cl
import apgaps.variational as var

# ---------------------------------------------------------------------------
# oracles: the two-enumeration grid scans and the row-major random sweep that
# grid_scan and random_sweeps replaced


def _oracle_trichotomy_bad(den, numers):
    lo = cl._ceil_div(2 * den, 5)
    hi = (3 * den) // 5
    a1 = numers[0]
    a2 = numers[1] if len(numers) > 1 else 0
    if 2 * (a1 + a2) >= den:
        return False
    return not _has_subset_in(numers, lo, hi)


def _oracle_comblem_bad(den, numers):
    lo = cl._ceil_div(5 * den, 12)
    hi = (7 * den) // 12
    padded = numers + (0,) * (cl.N_PARTS - len(numers))
    a1, a2 = padded[0], padded[1]
    if 2 * (a1 + a2) >= den:
        return False
    if _has_subset_in(numers, lo, hi):
        return False
    fifth_ok = 6 * padded[4] > den
    listed = a1 + a2 + sum(padded[5:])
    list_ok = 12 * listed < 5 * den
    return not (fifth_ok and list_ok)


def oracle_partitions_of(total, max_parts, max_part=None):
    """The recursive enumeration that the iterative partitions_of replaced."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in oracle_partitions_of(total - first, max_parts - 1, first):
            yield (first,) + rest


def oracle_verify_trichotomy(max_denominator):
    if max_denominator > 48:
        raise ValueError("partition enumeration bound is 48")
    bad = []
    for den in range(1, max_denominator + 1):
        for numers in cl.partitions_of(den, cl.N_PARTS):
            if _oracle_trichotomy_bad(den, numers):
                bad.append((den, numers))
    return sorted(bad)


def oracle_verify_comblem(max_denominator):
    if max_denominator > 48:
        raise ValueError("partition enumeration bound is 48")
    bad = []
    for den in range(1, max_denominator + 1):
        for numers in cl.partitions_of(den, cl.N_PARTS):
            if _oracle_comblem_bad(den, numers):
                bad.append((den, numers))
    return sorted(bad)


def _random_sorted_simplex(n, rng):
    """n rows of nonincreasing 14-tuples uniform on the unit simplex."""
    e = rng.exponential(size=(n, cl.N_PARTS))
    t = e / e.sum(axis=1, keepdims=True)
    return -np.sort(-t, axis=1)


def _greedy_hits_window(rows, lo, hi):
    """Greedy subset build per row: keep adding parts while the sum stays <= hi."""
    s = np.zeros(len(rows))
    for i in range(rows.shape[1]):
        col = rows[:, i]
        take = s + col <= hi
        s = np.where(take, s + col, s)
    return s >= lo


def _trichotomy_rows(rows):
    rows = rows[rows[:, 0] + rows[:, 1] < 0.5]
    found = _greedy_hits_window(rows, 0.4, 0.6)
    hard = rows[~found]
    if not len(hard):
        return len(rows), []
    really = cl._exact_rows_with_subset(hard, 0.4, 0.6)
    return len(rows), [tuple(row) for row in hard[~really]]


def _comblem_rows(rows):
    lo, hi = 5 / 12, 7 / 12
    rows = rows[rows[:, 0] + rows[:, 1] < 0.5]
    concl = (rows[:, 4] > 1 / 6) & (rows[:, 0] + rows[:, 1] + rows[:, 5:].sum(axis=1) < 5 / 12)
    suspects = rows[~concl]
    hard = suspects[~_greedy_hits_window(suspects, lo, hi)]
    if not len(hard):
        return len(rows), []
    really = cl._exact_rows_with_subset(hard, lo, hi)
    return len(rows), [tuple(row) for row in hard[~really]]


def _random_sweep(n, seed, batch, checks):
    """Run every check on each batch of n seeded sorted simplex tuples, drawn once."""
    rng = np.random.default_rng(seed)
    checked = [0] * len(checks)
    bad = [[] for _ in checks]
    remaining = n
    while remaining > 0:
        rows = _random_sorted_simplex(min(batch, remaining), rng)
        remaining -= len(rows)
        for i, check in enumerate(checks):
            c, b = check(rows)
            checked[i] += c
            bad[i] += b
    return list(zip(checked, bad))


def oracle_random_sweeps(n, seed, batch):
    return tuple(_random_sweep(n, seed, batch, (_trichotomy_rows, _comblem_rows)))



# ---------------------------------------------------------------------------
# the case split of the exponent tuples, which no command runs

CASE_LARGE_PAIR, CASE_MEDIUM_SUBSET, CASE_REMAINDER = "case1", "case2", "case3"


@dataclass(frozen=True)
class ExponentTuple:
    """Nonincreasing nonnegative rational 14-tuple with unit sum."""

    parts: tuple

    def __post_init__(self):
        p = self.parts
        if len(p) != cl.N_PARTS or min(p) < 0 or list(p) != sorted(p, reverse=True) or sum(p) != 1:
            raise ValueError("need 14 nonincreasing nonnegative parts summing to 1")


def _has_subset_in(numers, lo_num, hi_num):
    """True iff some subset sum S satisfies lo_num <= S <= hi_num (closed)."""
    return bool(cl.subset_sums_bitset(numers) & cl._window_bits(lo_num, hi_num))


def classify_case(alpha, theta, eps):
    """Largest pair >= 1/2, else a subset sum in the medium window [1/2, 1 - theta - eps] (exact), else the rest."""
    if not 0 < theta < Fraction(1, 2):
        raise ValueError("need 0 < theta < 1/2")
    if alpha.parts[0] + alpha.parts[1] >= Fraction(1, 2):
        return CASE_LARGE_PAIR
    lo, hi = Fraction(1, 2), 1 - Fraction(theta) - Fraction(eps)
    den = math.lcm(*(p.denominator for p in alpha.parts), lo.denominator, hi.denominator)
    if _has_subset_in([int(p * den) for p in alpha.parts], int(lo * den), int(hi * den)):
        return CASE_MEDIUM_SUBSET
    return CASE_REMAINDER


def _tuple_from(parts):
    parts = tuple(Fraction(p) for p in parts)
    return ExponentTuple(parts + (Fraction(0),) * (cl.N_PARTS - len(parts)))


def test_exponent_tuple_validation():
    with pytest.raises(ValueError):
        ExponentTuple((Fraction(1),) * 3)  # wrong length
    with pytest.raises(ValueError):
        _tuple_from([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])  # not sorted
    with pytest.raises(ValueError):
        _tuple_from([Fraction(1, 2), Fraction(1, 4)])  # sum != 1


def test_classify_large_pair():
    al = _tuple_from([Fraction(1, 2), Fraction(1, 2)])
    assert classify_case(al, Fraction(1, 3), Fraction(1, 100)) == CASE_LARGE_PAIR


def test_classify_medium_subset():
    al = _tuple_from([Fraction(6, 25), Fraction(6, 25), Fraction(6, 25), Fraction(7, 50), Fraction(7, 50)])
    assert classify_case(al, Fraction(1, 3), Fraction(1, 100)) == CASE_MEDIUM_SUBSET


def test_classify_boundary_subset_counts_as_medium():
    # largest pair below 1/2 but {25, 13, 12}/100 sums to exactly the closed
    # window's left endpoint
    al = _tuple_from(
        [Fraction(25, 100), Fraction(24, 100), Fraction(13, 100), Fraction(13, 100), Fraction(13, 100), Fraction(12, 100)]
    )
    assert al.parts[0] + al.parts[1] < Fraction(1, 2)
    assert classify_case(al, Fraction(1, 3), Fraction(1, 100)) == CASE_MEDIUM_SUBSET


def test_classify_remainder_case_exists_for_narrow_window():
    # five equal fifths: subset sums hit only multiples of 1/5, skipping
    # [1/2, 7/12], yet the largest pair is 2/5 < 1/2
    al = _tuple_from([Fraction(1, 5)] * 5)
    assert classify_case(al, Fraction(5, 12), Fraction(0, 1)) == CASE_REMAINDER
    # with the wide window reaching 3/5 the same tuple is covered
    assert classify_case(al, Fraction(2, 5), Fraction(0, 1)) == CASE_MEDIUM_SUBSET


def test_subset_bitset_matches_enumeration():
    numers = (5, 3, 3, 1)
    sums = {sum(c) for r in range(5) for c in __import__("itertools").combinations(numers, r)}
    bits = cl.subset_sums_bitset(numers)
    for s in range(sum(numers) + 1):
        assert bool((bits >> s) & 1) == (s in sums)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=10))
def test_subset_complement_symmetry(numers):
    total = sum(numers)
    bits = cl.subset_sums_bitset(numers)
    for s in range(total + 1):
        assert bool((bits >> s) & 1) == bool((bits >> (total - s)) & 1)


def test_trichotomy_grid_empty():
    assert cl.verify_trichotomy(10) == []
    assert cl.verify_trichotomy(24) == []


def test_trichotomy_narrowed_window_would_fail():
    # guard against a vacuous scan: the five-fifths tuple avoids [0.45, 0.55],
    # so narrowing the window must produce a counterexample
    numers = (1, 1, 1, 1, 1)
    assert not _has_subset_in(numers, 3, 2)  # empty interval sanity
    den = 5
    lo = -((-9 * den) // 20)  # ceil(0.45 den)
    hi = (11 * den) // 20
    assert not _has_subset_in(numers, lo, hi)


def test_comblem_grid_empty():
    assert cl.verify_comblem(12) == []
    assert cl.verify_comblem(24) == []


def test_comblem_hypothesis_tuples_satisfy_conclusions():
    # reproduce the scan filter independently and confirm the hypothesis set
    # is nonempty somewhere on the grid (e.g. five equal fifths at den = 5)
    seen = 0
    for den in range(1, 25):
        lo = -((-5 * den) // 12)
        hi = (7 * den) // 12
        for numers in cl.partitions_of(den, cl.N_PARTS):
            padded = numers + (0,) * (cl.N_PARTS - len(numers))
            if 2 * (padded[0] + padded[1]) >= den:
                continue
            if _has_subset_in(numers, lo, hi):
                continue
            seen += 1
            assert 6 * padded[4] > den
            assert 12 * (padded[0] + padded[1] + sum(padded[5:])) < 5 * den
    assert seen > 0  # the lemma is not vacuous on the grid


def test_partition_enumeration_bound():
    with pytest.raises(ValueError):
        cl.verify_trichotomy(49)


def test_partitions_match_recursive_oracle():
    for total in range(25):
        for max_parts in range(16):
            got = list(cl.partitions_of(total, max_parts))
            assert got == list(oracle_partitions_of(total, max_parts)), (total, max_parts)


def test_basis_partitions_unchanged(monkeypatch):
    got = {(k, d): var.basis_partitions(k, d) for k, d in ((5, 6), (105, 8))}
    monkeypatch.setattr(var, "partitions_of", oracle_partitions_of)
    assert got == {(k, d): var.basis_partitions(k, d) for k, d in ((5, 6), (105, 8))}


def test_grid_scan_at_enumeration_bound():
    assert cl.grid_scan(48) == (656_369, [], [])


def test_random_sweeps_clean():
    checked, bad = cl.random_trichotomy_sweep(50_000, seed=7)
    assert checked > 0 and bad == []
    checked, bad = cl.random_comblem_sweep(50_000, seed=7)
    assert checked > 0 and bad == []


def test_greedy_fallback_agrees_with_exact():
    rng = np.random.default_rng(2)
    rows = _random_sorted_simplex(2000, rng)
    greedy = _greedy_hits_window(rows, 5 / 12, 7 / 12)
    exact = cl._exact_rows_with_subset(rows, 5 / 12, 7 / 12)
    # greedy success always implies a subset exists
    assert not np.any(greedy & ~exact)


def test_random_sweeps_share_one_draw(monkeypatch):
    # batch 30_000 makes partial last batches; each pair equals two separate draws
    monkeypatch.setattr(cl, "_SWEEP_BATCH", 30_000)
    for seed in (0, 3, 11):
        for n in (1, 45_000, 100_000):
            both = cl.random_sweeps(n, seed=seed)
            assert both == (cl.random_trichotomy_sweep(n, seed=seed), cl.random_comblem_sweep(n, seed=seed))
    # both checks see the same rows, batch by batch
    def fingerprint(rows):
        return len(rows), [float(rows.sum())]

    one = _random_sweep(70_000, 5, 30_000, (fingerprint,))
    assert _random_sweep(70_000, 5, 30_000, (fingerprint, fingerprint)) == one * 2
    assert len(one[0][1]) == 3


def test_grid_scan_matches_two_enumeration_oracle():
    for D in range(1, 31):
        tuples = sum(1 for d in range(1, D + 1) for _ in cl.partitions_of(d, cl.N_PARTS))
        assert cl.grid_scan(D) == (tuples, oracle_verify_trichotomy(D), oracle_verify_comblem(D))
    assert cl.grid_scan(30)[0] == 26173
    assert cl.verify_trichotomy(30) == [] and cl.verify_comblem(30) == []
    with pytest.raises(ValueError):
        cl.grid_scan(49)
    with pytest.raises(ValueError):
        cl.verify_comblem(49)


def test_grid_decisions_match_oracle_per_tuple():
    # every tuple up to D = 24, hypothesis failures included
    seen = {"hypothesis fails": 0, "five-part window hit": 0, "five-part window missed": 0}
    decisions = list(cl._grid_decisions(24))
    want = [
        (den, numers) for den in range(1, 25) for numers in cl.partitions_of(den, cl.N_PARTS)
    ]
    assert [(den, numers) for den, numers, _, _ in decisions] == want
    for den, numers, tri_ok, five_ok in decisions:
        assert tri_ok is not _oracle_trichotomy_bad(den, numers)
        assert five_ok is not _oracle_comblem_bad(den, numers)
        if 2 * (numers[0] + (numers[1] if len(numers) > 1 else 0)) >= den:
            seen["hypothesis fails"] += 1
        elif _has_subset_in(numers, cl._ceil_div(5 * den, 12), (7 * den) // 12):
            seen["five-part window hit"] += 1
        else:
            seen["five-part window missed"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("batch", [30_000, 100_000])
def test_random_sweeps_match_row_major_oracle(batch, monkeypatch):
    monkeypatch.setattr(cl, "_SWEEP_BATCH", batch)
    for seed in (0, 3, 11):
        for n in (1, 45_000, 100_000, 123_457):
            assert cl.random_sweeps(n, seed=seed) == oracle_random_sweeps(n, seed, batch)


def test_fused_batch_runs_exact_fallback_like_oracle(monkeypatch):
    # hand-built rows in draw order that the draw-order greedy (cap 7/12)
    # misses, so the check sorts them and reaches the exact scan: rows 0 and
    # 1 (0.1 four times, then 0.2 three times; five fifths) stop at 0.4 <
    # 5/12, row 1 meets both five-part conclusions and row 0 does not, yet
    # 0.2 + 0.2 + 0.1 lies in the window; row 2 (0.3, 0.05) sums to 0.35, so
    # no subset reaches either window. Row 3 is a greedy hit and row 4
    # misses but fails the hypothesis.
    hand = [
        (0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2),
        (0.2, 0.2, 0.2, 0.2, 0.2),
        (0.05, 0.3),
        (0.25, 0.2, 0.2, 0.2, 0.15),
        (0.6, 0.4),
    ]
    rows = np.zeros((len(hand), cl.N_PARTS))
    for i, parts in enumerate(hand):
        rows[i, : len(parts)] = parts
    assert not _greedy_hits_window(rows[[0, 1, 2, 4]], 5 / 12, 7 / 12).any()
    assert _greedy_hits_window(rows[[3]], 5 / 12, 7 / 12).all()
    sorted_rows = -np.sort(-rows, axis=1)
    exact = cl._exact_rows_with_subset
    scanned = []

    def spy(hard, lo, hi):
        scanned.append(([tuple(row) for row in hard], lo, hi))
        return exact(hard, lo, hi)

    monkeypatch.setattr(cl, "_exact_rows_with_subset", spy)
    checked, tri, five = cl._check_columns(np.ascontiguousarray(rows.T))
    monkeypatch.undo()
    first, third = tuple(sorted_rows[0]), tuple(sorted_rows[2])
    assert scanned == [([third], 0.4, 0.6), ([first, third], 5 / 12, 7 / 12)]
    assert (checked, tri) == _trichotomy_rows(sorted_rows)
    assert (checked, five) == _comblem_rows(sorted_rows)
    assert checked == 4
    assert tri == five == [third]


@pytest.mark.parametrize("rows", [cl.N_PARTS, 3])
def test_simplex_batches_are_the_row_major_draws_by_column(rows):
    # the columns of rng.exponential(size=(n, rows)), each divided by its sum,
    # in views of out that hold out's width of them; n around the 2048-row
    # draw chunk, and partial last batches at both widths
    for n in (1, 2047, 2048, 2049, 45_000):
        e = np.random.default_rng(n).exponential(size=(n, rows))
        want = np.ascontiguousarray(e.T)
        want /= want.sum(axis=0)
        for width in (2048, 30_000):
            out = np.empty((rows, min(width, n)))
            buffers = [out]  # out, then at most one spare of out's shape
            batches = []
            for batch in cl.simplex_batches(np.random.default_rng(n), out, n):
                if not any(np.shares_memory(batch, b) for b in buffers):
                    assert batch.base.shape == out.shape
                    buffers.append(batch.base)
                assert len(buffers) <= 2
                batches.append(batch.copy())
            full, last = divmod(n, out.shape[1])
            assert [b.shape[1] for b in batches] == [out.shape[1]] * full + ([last] if last else [])
            assert np.array_equal(np.concatenate(batches, axis=1), want), (n, width)
    assert list(cl.simplex_batches(np.random.default_rng(0), np.empty((rows, 1)), 0)) == []


def _returns_in_time(fn, seconds=30.0):
    """("value", fn()) or ("error", what it raised), from a helper thread that must end within seconds."""
    result = []

    def run():
        try:
            result.append(("value", fn()))
        except Exception as exc:
            result.append(("error", exc))

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), "simplex_batches hung"
    return result[0]


def test_simplex_batches_drawn_ahead_equal_inline_draws():
    # the worker fills batch i + 1 while batch i is read, alternating between
    # out and one spare, and the batches hold the row-major exponential draws
    n, rows = 4321, cl.N_PARTS
    e = np.random.default_rng(8).exponential(size=(n, rows))
    want = np.ascontiguousarray(e.T)
    want /= want.sum(axis=0)
    out = np.empty((rows, 1000))
    before = threading.active_count()
    threads, draws = set(), []
    for i, batch in enumerate(cl.simplex_batches(np.random.default_rng(8), out, n)):
        threads.add(threading.active_count() - before)
        assert np.shares_memory(batch, out) == (i % 2 == 0)
        draws.append(batch.copy())
    assert max(threads) == 1  # the worker ends once it has filled the last batch
    assert threading.active_count() == before
    assert [b.shape[1] for b in draws] == [1000] * 4 + [321]
    assert np.array_equal(np.concatenate(draws, axis=1), want)


def test_simplex_batches_close_stops_the_worker():
    rng = np.random.default_rng(1)
    out = np.empty((cl.N_PARTS, 1000))
    before = threading.active_count()
    batches = cl.simplex_batches(rng, out, 50_000)
    next(batches)
    assert threading.active_count() == before + 1
    start = time.perf_counter()
    assert _returns_in_time(batches.close) == ("value", None)
    assert time.perf_counter() - start < 5.0
    assert threading.active_count() == before
    # rng is free for another sampler, and the worker drew at most one batch ahead of the caller
    again = [b.copy() for b in cl.simplex_batches(rng, out, 2500)]
    assert [b.shape[1] for b in again] == [1000, 1000, 500]
    assert threading.active_count() == before
    draws = np.random.default_rng(1).exponential(size=(5500, cl.N_PARTS))
    ahead = [np.ascontiguousarray(draws[1000 * k : 1000 * (k + 1)].T) for k in (1, 2)]
    assert any(np.array_equal(again[0], e / e.sum(axis=0)) for e in ahead)


class _FailingDraws:
    """A generator's standard_exponential that raises on its call number fail."""

    def __init__(self, fail):
        self.rng = np.random.default_rng(0)
        self.fail = fail
        self.calls = 0

    def standard_exponential(self, out):
        self.calls += 1
        if self.calls == self.fail:
            raise FloatingPointError(f"draw {self.fail}")
        return self.rng.standard_exponential(out=out)


def test_simplex_batches_raise_a_fill_error_in_the_caller():
    out = np.empty((3, 100))  # one draw call per batch of 100 columns
    before = threading.active_count()
    kind, exc = _returns_in_time(lambda: list(cl.simplex_batches(None, out, 1000)))
    assert kind == "error" and isinstance(exc, AttributeError)
    assert threading.active_count() == before
    got = []

    def read_all():
        for batch in cl.simplex_batches(_FailingDraws(5), out, 1000):
            got.append(batch.copy())

    kind, exc = _returns_in_time(read_all)
    assert (kind, type(exc), str(exc)) == ("error", FloatingPointError, "draw 5")
    assert len(got) == 4
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize(
    "argv",
    [
        ["comb", "--denominator", "12", "--random", "300000", "--seed", "3"],
        ["mk", "--k", "12", "--degree", "6", "--mc-samples", "100000"],
        ["bv", "--x", "1e7", "--q", "3", "--b", "0.45"],
    ],
)
def test_one_cpu_prints_the_same_bytes(argv):
    # the child pins itself to one CPU, where the sampler's worker and bv's
    # second class thread share that CPU with the caller
    probe = (
        "import os, sys\n"
        "from apgaps import cli\n"
        "if sys.argv[1] == 'pin':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outs = [
        subprocess.run([sys.executable, "-c", probe, mode, *argv], env=env, capture_output=True, timeout=120)
        for mode in ("free", "pin")
    ]
    assert [o.returncode for o in outs] == [0, 0], [o.stderr for o in outs]
    assert outs[0].stdout == outs[1].stdout


def test_five_part_window_nests_in_trichotomy_window():
    # one greedy hit in [5/12, 7/12] proves both claims, exactly and in floats
    assert Fraction(2, 5) < Fraction(5, 12) < Fraction(7, 12) < Fraction(3, 5)
    assert 0.4 < 5 / 12 < 7 / 12 < 0.6
    rows = _random_sorted_simplex(2000, np.random.default_rng(4))
    assert not np.any(_greedy_hits_window(rows, 5 / 12, 7 / 12) & ~_greedy_hits_window(rows, 0.4, 0.6))


def test_random_sweeps_do_not_depend_on_the_batch(monkeypatch):
    want = {(n, seed): cl.random_sweeps(n, seed=seed) for n in (1, 2500) for seed in (0, 7)}
    assert want[2500, 0][0][0] > 0
    for batch in (1, 7, 30_000, 100_000):
        monkeypatch.setattr(cl, "_SWEEP_BATCH", batch)
        for (n, seed), result in want.items():
            assert cl.random_sweeps(n, seed=seed) == result, (batch, n, seed)
