from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apgaps.comb_lemmas as cl


def _tuple_from(parts):
    parts = tuple(Fraction(p) for p in parts)
    return cl.ExponentTuple(parts + (Fraction(0),) * (cl.N_PARTS - len(parts)))


def test_exponent_tuple_validation():
    with pytest.raises(ValueError):
        cl.ExponentTuple((Fraction(1),) * 3)  # wrong length
    with pytest.raises(ValueError):
        _tuple_from([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])  # not sorted
    with pytest.raises(ValueError):
        _tuple_from([Fraction(1, 2), Fraction(1, 4)])  # sum != 1


def test_classify_large_pair():
    al = _tuple_from([Fraction(1, 2), Fraction(1, 2)])
    assert cl.classify_case(al, Fraction(1, 3), Fraction(1, 100)) == cl.CASE_LARGE_PAIR


def test_classify_medium_subset():
    al = _tuple_from([Fraction(6, 25), Fraction(6, 25), Fraction(6, 25), Fraction(7, 50), Fraction(7, 50)])
    assert cl.classify_case(al, Fraction(1, 3), Fraction(1, 100)) == cl.CASE_MEDIUM_SUBSET


def test_classify_boundary_subset_counts_as_medium():
    # largest pair below 1/2 but {25, 13, 12}/100 sums to exactly the closed
    # window's left endpoint
    al = _tuple_from(
        [Fraction(25, 100), Fraction(24, 100), Fraction(13, 100), Fraction(13, 100), Fraction(13, 100), Fraction(12, 100)]
    )
    assert al.parts[0] + al.parts[1] < Fraction(1, 2)
    assert cl.classify_case(al, Fraction(1, 3), Fraction(1, 100)) == cl.CASE_MEDIUM_SUBSET


def test_classify_remainder_case_exists_for_narrow_window():
    # five equal fifths: subset sums hit only multiples of 1/5, skipping
    # [1/2, 7/12], yet the largest pair is 2/5 < 1/2
    al = _tuple_from([Fraction(1, 5)] * 5)
    assert cl.classify_case(al, Fraction(5, 12), Fraction(0, 1)) == cl.CASE_REMAINDER
    # with the wide window reaching 3/5 the same tuple is covered
    assert cl.classify_case(al, Fraction(2, 5), Fraction(0, 1)) == cl.CASE_MEDIUM_SUBSET


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
    assert not cl._has_subset_in(numers, 3, 2)  # empty interval sanity
    den = 5
    lo = -((-9 * den) // 20)  # ceil(0.45 den)
    hi = (11 * den) // 20
    assert not cl._has_subset_in(numers, lo, hi)


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
            if cl._has_subset_in(numers, lo, hi):
                continue
            seen += 1
            assert 6 * padded[4] > den
            assert 12 * (padded[0] + padded[1] + sum(padded[5:])) < 5 * den
    assert seen > 0  # the lemma is not vacuous on the grid


def test_partition_enumeration_bound():
    with pytest.raises(ValueError):
        cl.verify_trichotomy(49)


def test_random_sweeps_clean():
    checked, bad = cl.random_trichotomy_sweep(50_000, seed=7)
    assert checked > 0 and bad == []
    checked, bad = cl.random_comblem_sweep(50_000, seed=7)
    assert checked > 0 and bad == []


def test_greedy_fallback_agrees_with_exact():
    rng = np.random.default_rng(2)
    rows = cl._random_sorted_simplex(2000, rng)
    greedy = cl._greedy_hits_window(rows, 5 / 12, 7 / 12)
    exact = cl._exact_rows_with_subset(rows, 5 / 12, 7 / 12)
    # greedy success always implies a subset exists
    assert not np.any(greedy & ~exact)


def test_random_sweeps_share_one_draw():
    # batch 30_000 makes partial last batches; each pair equals two separate draws
    for seed in (0, 3, 11):
        for n in (1, 45_000, 100_000):
            both = cl.random_sweeps(n, seed=seed, batch=30_000)
            assert both == (
                cl.random_trichotomy_sweep(n, seed=seed, batch=30_000),
                cl.random_comblem_sweep(n, seed=seed, batch=30_000),
            )
    # both checks see the same rows, batch by batch
    def fingerprint(rows):
        return len(rows), [float(rows.sum())]

    one = cl._random_sweep(70_000, 5, 30_000, (fingerprint,))
    assert cl._random_sweep(70_000, 5, 30_000, (fingerprint, fingerprint)) == one * 2
    assert len(one[0][1]) == 3
