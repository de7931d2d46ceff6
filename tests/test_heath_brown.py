import math
from fractions import Fraction

import numpy as np
import pytest

import apgaps.heath_brown as hb
from apgaps.arith import floor_power, mobius_table, von_mangoldt_table
from test_arith import chebyshev_psi, mobius


def as_row(f, x):
    """The weight row [0, f(1), ..., f(x)] of a function f."""
    return np.array([0.0] + [f(n) for n in range(1, x + 1)])


def component_constraints_ok(comp, x):
    """Dyadic and truncation constraints for one component."""
    z = floor_power(x, Fraction(1, comp.k))
    if not 1 <= comp.j <= comp.k:
        return False
    if comp.weight != math.comb(comp.k, comp.j):
        return False
    if any(2**b > z for b in comp.v_boxes):
        return False
    prod = 1
    for b in comp.u_boxes + comp.v_boxes:
        prod <<= b
    return prod <= x


def decompose_by_recursion(x, k, weights):
    """Oracle: the decomposition by recursion over every (v_1..v_j, u_2..u_j) prefix."""
    xi = int(math.floor(x))
    z = floor_power(xi, Fraction(1, k))
    nf = len(weights)
    farr = np.asarray(weights, dtype=np.complex128)
    mu = mobius_table(xi)
    logs = np.zeros(xi + 1)
    logs[1:] = np.log(np.arange(1, xi + 1, dtype=np.float64))

    acc: dict[tuple, list] = {}  # key -> [count, value vector]

    def add(key, count, vals):
        slot = acc.get(key)
        if slot is None:
            acc[key] = [count, vals.copy()]
        else:
            slot[0] += count
            slot[1] += vals

    def u1_scan(j, coeff, prod, u_boxes, v_boxes):
        # innermost slot carries the log weight; reduceat folds it per dyadic box
        U = xi // prod
        u = np.arange(1, U + 1)
        contrib = farr[:, prod * u] * logs[u][None, :]
        bounds = [2**b - 1 for b in range(U.bit_length())]
        sums = np.add.reduceat(contrib, bounds, axis=1)
        for bi, b0 in enumerate(bounds):
            hi = bounds[bi + 1] if bi + 1 < len(bounds) else U
            add((j, (bi,) + u_boxes, v_boxes), hi - b0, coeff * sums[:, bi])

    def u_rec(j, slot, coeff, prod, u_boxes, v_boxes):
        if slot > j:
            u1_scan(j, coeff, prod, u_boxes, v_boxes)
            return
        for u in range(1, xi // prod + 1):
            u_rec(j, slot + 1, coeff, prod * u, u_boxes + (u.bit_length() - 1,), v_boxes)

    def v_rec(j, slot, coeff, prod, v_boxes):
        if slot > j:
            u_rec(j, 2, coeff, prod, (), v_boxes)
            return
        for v in range(1, min(z, xi // prod) + 1):
            m = mu[v]
            if m:
                v_rec(j, slot + 1, coeff * int(m), prod * v, v_boxes + (v.bit_length() - 1,))

    for j in range(1, k + 1):
        base = (-1) ** (j - 1) * math.comb(k, j)
        v_rec(j, 1, base, 1, ())

    components = []
    for key in sorted(acc):
        j, u_boxes, v_boxes = key
        count, vals = acc[key]
        components.append(
            hb.HBComponent(
                k=k,
                j=j,
                sign=(-1) ** (j - 1),
                weight=math.comb(k, j),
                u_boxes=u_boxes,
                v_boxes=v_boxes,
                tuple_count=count,
                values=tuple(complex(v) for v in vals),
            )
        )
    totals = [
        complex(math.fsum(c.values[i].real for c in components), math.fsum(c.values[i].imag for c in components))
        for i in range(nf)
    ]
    return totals, components


def test_identity_reproduces_von_mangoldt():
    x = 2000
    lam = von_mangoldt_table(x)
    for k in (1, 2, 3):
        table = hb.hb_lambda_table(x, k)
        assert float(np.max(np.abs(table[1:] - lam[1:]))) <= 1e-9


def test_hb_lambda_point_values():
    assert hb.hb_lambda_table(500, 2)[1] == pytest.approx(0.0, abs=1e-12)
    assert hb.hb_lambda_table(500, 2)[64] == pytest.approx(math.log(2), rel=1e-12)
    assert hb.hb_lambda_table(500, 3)[97] == pytest.approx(math.log(97), rel=1e-12)
    assert hb.hb_lambda_table(500, 2)[30] == pytest.approx(0.0, abs=1e-10)


def test_one_fold_is_moebius_inversion():
    # k = 1 keeps the truncation inactive: sum_{uv = n} mu(v) log u = Lambda(n)
    x = 300
    for n in (2, 12, 64, 97, 210):
        want = math.fsum(mobius(v) * math.log(n // v) for v in range(1, n + 1) if n % v == 0)
        assert hb.hb_lambda_table(x, 1)[n] == pytest.approx(want, abs=1e-10)


def test_hb_lambda_rejects_bad_args():
    with pytest.raises(ValueError):
        hb.hb_lambda_table(1000, 0)
    with pytest.raises(ValueError):
        hb.hb_lambda_table(0, 2)


def test_decompose_zero_function():
    (total,), comps = hb.hb_decompose_sum_multi(200, 2, np.zeros((1, 201)))
    assert total == 0
    assert all(v == 0 for c in comps for v in c.values)


def test_decompose_constant_recovers_psi():
    (total,), comps = hb.hb_decompose_sum_multi(100, 2, np.ones((1, 101)))
    assert total.real == pytest.approx(chebyshev_psi(100), rel=1e-12)
    assert total.imag == pytest.approx(0.0, abs=1e-12)
    assert comps


def test_decompose_character_weight():
    from test_characters import characters, value

    chi = next(c for c in characters(4) if any(c.exponents))
    row = as_row(lambda n: value(chi, n) * math.log(500 / n), 500)
    (total,), _ = hb.hb_decompose_sum_multi(500, 2, row[None])
    assert abs(total - hb.direct_lambda_sum(500, row)) <= 1e-9


def test_decompose_three_fold():
    row = as_row(lambda n: 1.0 / n, 2000)
    (total,), comps = hb.hb_decompose_sum_multi(2000, 3, row[None])
    assert abs(total - hb.direct_lambda_sum(2000, row)) <= 1e-9
    assert all(component_constraints_ok(c, 2000) for c in comps)


def test_component_structure():
    x = 1000
    _, comps = hb.hb_decompose_sum_multi(x, 2, np.ones((1, x + 1)))
    z = floor_power(x, Fraction(1, 2))
    for c in comps:
        assert 1 <= c.j <= 2
        assert c.sign == (-1) ** (c.j - 1)
        assert c.weight == math.comb(2, c.j)
        assert len(c.u_boxes) == c.j and len(c.v_boxes) == c.j
        assert all(2**b <= z for b in c.v_boxes)
        assert component_constraints_ok(c, x)
    # dyadic boxing keeps the component count polylogarithmic
    assert len(comps) <= (x.bit_length() + 1) ** 4


def test_multi_shares_enumeration():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(4, 501))
    totals, _ = hb.hb_decompose_sum_multi(500, 2, rows)
    for row, tot in zip(rows, totals):
        assert abs(tot - hb.direct_lambda_sum(500, row)) <= 1e-9


def test_decompose_bounds():
    with pytest.raises(ValueError):
        hb.hb_decompose_sum_multi(2e5, 2, np.ones((1, 200001)))
    with pytest.raises(ValueError):
        hb.hb_decompose_sum_multi(100, 4, np.ones((1, 101)))


def test_decompose_refuses_more_weights_than_the_bound_before_any_work(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the decomposition started")

    monkeypatch.setattr(hb, "floor_power", built)
    monkeypatch.setattr(hb, "mobius_table", built)
    # 11 rows of 100001 weights are 1100011 > 2**20; 10 rows fit
    with pytest.raises(ValueError, match="<= 1048576 weights, got 1100011"):
        hb.hb_decompose_sum_multi(1e5, 2, np.zeros((11, 100001)))
    hb.check_decompose_args(10**5, 3, 10)


def test_decompose_reads_the_moebius_table_up_to_z(monkeypatch):
    sizes = []

    def spy(n):
        sizes.append(n)
        return mobius_table(n)

    monkeypatch.setattr(hb, "mobius_table", spy)
    for x, k in ((1000, 1), (1000, 2), (1000, 3), (7, 2)):
        assert_same_decomposition(x, k, np.random.default_rng(x + k).normal(size=(1, x + 1)))
    assert sizes == [1000, 31, 10, 2]


def test_weights_must_cover_zero_to_x():
    for shape in ((101,), (1, 100), (1, 102)):
        with pytest.raises(ValueError):
            hb.hb_decompose_sum_multi(100, 2, np.ones(shape))
    with pytest.raises(ValueError):
        hb.direct_lambda_sum(100, np.ones((1, 101)))


def test_hb_run_builds_one_lambda_table(monkeypatch, tmp_path):
    # each weight row is checked against the one Lambda table of its x
    import apgaps.cli as cli

    built = []

    def spy(n):
        built.append(n)
        return von_mangoldt_table(n)

    monkeypatch.setattr(hb, "von_mangoldt_table", spy)
    hb._lambda_support.cache_clear()
    assert cli.main(["hb", "--x", "10", "--k", "1", "--trials", "1000", "--out", str(tmp_path / "hb.jsonl")]) == 0
    assert built == [10]


def random_rows(x, rng, complex_rows):
    rows = rng.normal(size=(2, x + 1))
    return rows + 1j * rng.normal(size=(2, x + 1)) if complex_rows else rows


def assert_same_decomposition(x, k, rows):
    totals, comps = hb.hb_decompose_sum_multi(x, k, rows)
    want_totals, want = decompose_by_recursion(x, k, rows)
    assert [(c.k, c.j, c.sign, c.weight, c.u_boxes, c.v_boxes, c.tuple_count) for c in comps] == [
        (c.k, c.j, c.sign, c.weight, c.u_boxes, c.v_boxes, c.tuple_count) for c in want
    ]
    for c, w in zip(comps, want):
        assert len(c.values) == len(w.values)
        for v, u in zip(c.values, w.values):
            assert abs(v - u) <= 1e-12 * max(1.0, abs(u))
    for t, u in zip(totals, want_totals):
        assert abs(t - u) <= 1e-12 * max(1.0, abs(u))


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x", [1, 2, 3, 7, 64, 500, 1000])
def test_decompose_matches_recursion_oracle(x, k, complex_rows):
    rng = np.random.default_rng(1000 * x + 10 * k + complex_rows)
    assert_same_decomposition(x, k, random_rows(x, rng, complex_rows))


@pytest.mark.parametrize("complex_rows", [False, True])
def test_decompose_matches_recursion_oracle_large(complex_rows):
    rng = np.random.default_rng(10**4 + complex_rows)
    assert_same_decomposition(10**4, 2, random_rows(10**4, rng, complex_rows))


@pytest.mark.parametrize("x, k", [(64, 3), (500, 2), (300, 3)])
def test_chunk_seams_keep_keys_and_counts(monkeypatch, x, k):
    monkeypatch.setattr(hb, "_CHUNK", 7)
    rng = np.random.default_rng(x + k)
    assert_same_decomposition(x, k, random_rows(x, rng, True))
