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
    """Dyadic, truncation and padding constraints for one row of the components array."""
    u_boxes, v_boxes = comp["u_boxes"].tolist(), comp["v_boxes"].tolist()
    k, j = len(u_boxes), int(comp["j"])
    if not 1 <= j <= k or len(v_boxes) != k:
        return False
    if u_boxes[j:] + v_boxes[j:] != [-1] * (2 * (k - j)) or min(u_boxes[:j] + v_boxes[:j]) < 0:
        return False
    z = floor_power(x, Fraction(1, k))
    if any(2**b > z for b in v_boxes[:j]):
        return False
    prod = 1
    for b in u_boxes[:j] + v_boxes[:j]:
        prod <<= b
    return prod <= x


def decompose_by_recursion(x, k, weights):
    """Oracle: the decomposition by recursion over every (v_1..v_j, u_2..u_j) prefix."""
    xi = int(math.floor(x))
    z = floor_power(xi, Fraction(1, k))
    nf = len(weights)
    farr = np.asarray(weights, dtype=np.float64)
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

    def pad(boxes):
        return boxes + (-1,) * (k - len(boxes))

    dtype = [("j", np.int64), ("u_boxes", np.int64, (k,)), ("v_boxes", np.int64, (k,))]
    dtype += [("tuple_count", np.int64), ("values", np.float64, (nf,))]
    components = np.array(
        [(j, pad(u), pad(v), acc[j, u, v][0], acc[j, u, v][1]) for j, u, v in sorted(acc)], dtype=dtype
    )
    totals = [math.fsum(col.tolist()) for col in components["values"].T]
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
    assert len(comps) and not comps["values"].any()


def test_decompose_constant_recovers_psi():
    (total,), comps = hb.hb_decompose_sum_multi(100, 2, np.ones((1, 101)))
    assert total == pytest.approx(chebyshev_psi(100), rel=1e-12)
    assert len(comps)


def test_decompose_character_weight():
    from test_characters import characters, value

    # a complex f goes in as two rows, its real and imaginary parts
    chi = next(c for c in characters(4) if any(c.exponents))
    f = as_row(lambda n: value(chi, n) * math.log(500 / n), 500)
    assert f.imag.any()
    rows = np.array([f.real, f.imag])
    totals, _ = hb.hb_decompose_sum_multi(500, 2, rows)
    for row, total in zip(rows, totals):
        assert abs(total - hb.direct_lambda_sum(500, row)) <= 1e-9
    lam = von_mangoldt_table(500)
    assert abs(complex(*totals) - complex(np.sum(lam * f))) <= 1e-9


def test_decompose_three_fold():
    row = as_row(lambda n: 1.0 / n, 2000)
    (total,), comps = hb.hb_decompose_sum_multi(2000, 3, row[None])
    assert abs(total - hb.direct_lambda_sum(2000, row)) <= 1e-9
    assert all(component_constraints_ok(c, 2000) for c in comps)


def test_component_structure():
    x = 1000
    _, comps = hb.hb_decompose_sum_multi(x, 2, np.ones((1, x + 1)))
    z = floor_power(x, Fraction(1, 2))
    assert comps.dtype.names == ("j", "u_boxes", "v_boxes", "tuple_count", "values")
    assert comps["u_boxes"].shape == comps["v_boxes"].shape == (len(comps), 2)
    assert comps["values"].shape == (len(comps), 1)
    assert set(comps["j"].tolist()) == {1, 2}
    assert (comps["v_boxes"][comps["j"] == 1, 1] == -1).all()
    for c in comps:
        assert all(2**b <= z for b in c["v_boxes"][: c["j"]].tolist())
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


def test_complex_and_empty_weights_raise():
    # a complex f goes in as two real rows, even with a zero imaginary part
    hint = "pass a complex f as two rows, its real and imaginary parts"
    for bad in (np.ones((1, 101), dtype=complex), np.zeros((0, 101))):
        with pytest.raises(ValueError, match=hint):
            hb.hb_decompose_sum_multi(100, 2, bad)
        with pytest.raises(ValueError):
            hb.direct_lambda_sum(100, bad)
    for bad in (np.ones(101, dtype=complex), np.zeros(0)):
        with pytest.raises(ValueError, match=hint):
            hb.direct_lambda_sum(len(bad) - 1, bad)


def test_hb_prints_the_number_of_component_rows(monkeypatch, tmp_path):
    # the count hb prints is len(components), one row per (j, box vector)
    import json

    import apgaps.cli as cli

    seen = []
    real = hb.hb_decompose_sum_multi

    def spy(*args):
        result = real(*args)
        seen.append(len(result[1]))
        return result

    monkeypatch.setattr(hb, "hb_decompose_sum_multi", spy)
    out = tmp_path / "hb.jsonl"
    assert cli.main(["hb", "--x", "3000", "--k", "3", "--trials", "2", "--out", str(out)]) == 0
    assert seen == [json.loads(out.read_text())["components"]] and seen[0] > 0


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


def random_rows(x, rng, split_complex):
    """Two random rows; with split_complex, a random complex f as its two real rows, then its two imaginary rows."""
    rows = rng.normal(size=(2, x + 1))
    return np.concatenate([rows, rng.normal(size=(2, x + 1))]) if split_complex else rows


def assert_same_decomposition(x, k, rows):
    totals, comps = hb.hb_decompose_sum_multi(x, k, rows)
    want_totals, want = decompose_by_recursion(x, k, rows)
    assert comps.dtype == want.dtype
    for field in ("j", "u_boxes", "v_boxes", "tuple_count"):
        assert np.array_equal(comps[field], want[field]), field
    assert (np.abs(comps["values"] - want["values"]) <= 1e-12 * np.maximum(1.0, np.abs(want["values"]))).all()
    assert len(totals) == len(want_totals) == len(rows)
    for t, u in zip(totals, want_totals):
        assert abs(t - u) <= 1e-12 * max(1.0, abs(u))


@pytest.mark.parametrize("split_complex", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x", [1, 2, 3, 7, 64, 500, 1000])
def test_decompose_matches_recursion_oracle(x, k, split_complex):
    rng = np.random.default_rng(1000 * x + 10 * k + split_complex)
    assert_same_decomposition(x, k, random_rows(x, rng, split_complex))


@pytest.mark.parametrize("split_complex", [False, True])
def test_decompose_matches_recursion_oracle_large(split_complex):
    rng = np.random.default_rng(10**4 + split_complex)
    assert_same_decomposition(10**4, 2, random_rows(10**4, rng, split_complex))


@pytest.mark.parametrize("x, k", [(64, 3), (500, 2), (300, 3)])
def test_chunk_seams_keep_keys_and_counts(monkeypatch, x, k):
    monkeypatch.setattr(hb, "_CHUNK", 7)
    rng = np.random.default_rng(x + k)
    assert_same_decomposition(x, k, random_rows(x, rng, True))
