import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import apgaps.variational as var
from apgaps.cli import DEFAULT_KS


def _fractions(gram):
    """An exact Gram matrix, (integer numerators, denominator), as a matrix of Fractions."""
    num, den = gram
    return [[Fraction(v, den) for v in row] for row in num]


def simplex_monomial_integral(k, exponents):
    """Exact integral of prod t_i^(a_i) over the simplex R_k: prod a_i! / (k + sum a_i)!."""
    exps = list(exponents)
    if len(exps) > k or any(a < 0 for a in exps):
        raise ValueError("need at most k nonnegative exponents")
    return Fraction(var._factorial_product(exps), math.factorial(k + sum(exps)))


def _arrangements(partition, coords: int):
    """Yield sparse {coordinate: exponent} placements, distinct coordinates."""
    values = sorted(set(partition), reverse=True)
    mults = [partition.count(v) for v in values]

    def rec(vi, free):
        if vi == len(values):
            yield {}
            return
        for chosen in itertools.combinations(free, mults[vi]):
            rest = tuple(c for c in free if c not in chosen)
            for tail in rec(vi + 1, rest):
                d = dict(tail)
                for c in chosen:
                    d[c] = values[vi]
                yield d

    yield from rec(0, tuple(range(coords)))


def _eval_monomial_sym(partition, pts):
    """m_lambda at the rows of pts, one column per coordinate, through the power-sum evaluator."""
    pts = np.asarray(pts, dtype=np.float64)
    poly = var._PowerSumPolynomial(var._trial_coefficients((1.0,), (tuple(partition),)), len(pts))
    cols = np.ascontiguousarray(pts.T)
    return poly(var._column_power_sums(cols, poly.max_power, np.empty((poly.max_power, len(pts))), np.empty_like(cols)))


def _gram_I_all_placements(k, basis):
    """Oracle: gram_I by enumerating every placement of mu on all k coordinates."""
    n = len(basis)
    exact = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lam = basis[i]
        n_lam = var._n_arrangements(lam, k)
        canon = {c: v for c, v in enumerate(lam)}
        for j in range(i, n):
            sig_counts = {}
            for beta in _arrangements(basis[j], k):
                comb = dict(canon)
                for c, v in beta.items():
                    comb[c] = comb.get(c, 0) + v
                sig = tuple(sorted(comb.values(), reverse=True))
                sig_counts[sig] = sig_counts.get(sig, 0) + 1
            val = n_lam * sum(cnt * simplex_monomial_integral(k, sig) for sig, cnt in sig_counts.items())
            exact[i][j] = exact[j][i] = val
    scale = math.factorial(k)
    return np.array([[float(v * scale) for v in row] for row in exact]), exact


def _j_pair_value(k: int, a1: int, b1: int, rest_sig: tuple[int, ...], deg_sum: int) -> Fraction:
    num = math.factorial(a1 + b1 + 2)
    for e in rest_sig:
        num *= math.factorial(e)
    den = (a1 + 1) * (b1 + 1) * math.factorial(k + 1 + deg_sum)
    return Fraction(num, den)


def _gram_J_all_placements(k, basis):
    """Oracle: gram_J by enumerating every placement of mu on all k coordinates."""
    n = len(basis)
    exact = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lam = basis[i]
        first_choices = []
        rest_count = var._n_arrangements(lam, k - 1)
        if rest_count:
            first_choices.append((0, lam, rest_count))
        for v in sorted(set(lam), reverse=True):
            rest = list(lam)
            rest.remove(v)
            cnt = var._n_arrangements(tuple(rest), k - 1)
            if cnt:
                first_choices.append((v, tuple(rest), cnt))
        for j in range(i, n):
            mu = basis[j]
            deg_sum = sum(lam) + sum(mu)
            total = Fraction(0)
            for a1, rest_lam, cnt in first_choices:
                canon = {c + 1: v for c, v in enumerate(rest_lam)}
                sig_counts = {}
                for beta in _arrangements(mu, k):
                    b1 = beta.get(0, 0)
                    comb = dict(canon)
                    for c, v in beta.items():
                        if c:
                            comb[c] = comb.get(c, 0) + v
                    sig = (b1, tuple(sorted(comb.values(), reverse=True)))
                    sig_counts[sig] = sig_counts.get(sig, 0) + 1
                total += cnt * sum(
                    m * _j_pair_value(k, a1, b1, rest_sig, deg_sum) for (b1, rest_sig), m in sig_counts.items()
                )
            exact[i][j] = exact[j][i] = k * total
    scale = math.factorial(k)
    return np.array([[float(v * scale) for v in row] for row in exact]), exact


@lru_cache(maxsize=None)
def _overlap_counts(partition, slots: int, free: int):
    """Oracle: placements of `partition` on slots + free coordinates, grouped by pattern.

    A pattern is (on_slots, nu): the exponent on every slot (0 where empty)
    and the multiset nu of the other parts, descending. Its multiplicity
    is _n_arrangements(nu, free); patterns with none are left out. Any
    number of slots; the Gram walk itself pins at most one coordinate.
    """

    def rec(i, remaining):
        if i == slots:
            yield (), remaining
            return
        yield from (((0,) + tail, nu) for tail, nu in rec(i + 1, remaining))
        for v in sorted(set(remaining), reverse=True):
            rest = list(remaining)
            rest.remove(v)
            yield from (((v,) + tail, nu) for tail, nu in rec(i + 1, tuple(rest)))

    counted = ((on_slots, nu, var._n_arrangements(nu, free)) for on_slots, nu in rec(0, tuple(partition)))
    return tuple(c for c in counted if c[2])


def _gram(k: int, basis, pinned: int, value) -> tuple[np.ndarray, list[list[Fraction]]]:
    """Oracle: the former Fraction-accumulating Gram walk.

    Gram matrix of the basis from its overlap patterns, float and exact.

    `pinned` coordinates are held fixed. Each placement of lambda there
    (its pinned exponents, the multiset of its other parts, their count)
    holds those parts on the next coordinates; mu is placed over all of
    them and the free ones. value(key) is the integral of one pattern, and
    a key is the pinned exponents of lambda, then of mu, then the combined
    exponents of the other coordinates, descending; it is computed once per
    key. The float rendering is scaled by k! (integration against the
    uniform probability measure on the simplex) so entries stay
    representable at large k; the exact matrix is unscaled.
    """
    n = len(basis)
    if n == 0:
        raise ValueError("basis must be nonempty")
    value = lru_cache(maxsize=None)(value)
    exact = [[Fraction(0)] * n for _ in range(n)]
    for i, lam in enumerate(basis):
        placements = _overlap_counts(lam, pinned, k - pinned)
        for j in range(i, n):
            mu = basis[j]
            total = Fraction(0)
            for lam_pinned, rest, cnt in placements:
                s = pinned + len(rest)
                key_counts: dict[tuple[int, ...], int] = {}
                for on_slots, nu, mult in _overlap_counts(mu, s, k - s):
                    comb = [a + b for a, b in zip(rest, on_slots[pinned:])] + list(nu)
                    key = lam_pinned + on_slots[:pinned] + tuple(sorted(comb, reverse=True))
                    key_counts[key] = key_counts.get(key, 0) + mult
                total += cnt * sum(m * value(key) for key, m in key_counts.items())
            exact[i][j] = exact[j][i] = total
    scale = math.factorial(k)
    flt = np.array([[float(v * scale) for v in row] for row in exact])
    return flt, exact


def _fraction_gram_I(k, basis):
    return _gram(k, basis, 0, lambda sig: simplex_monomial_integral(k, sig))


def _fraction_gram_J(k, basis):
    return _gram(k, basis, 1, lambda key: k * _j_pair_value(k, key[0], key[1], key[2:], sum(key)))


def _fraction_exact_quotient(c, A_exact, B_exact):
    """Oracle: the former exact quotient, a Fraction double loop."""
    cf = [Fraction(float(ci)) for ci in c]
    num = Fraction(0)
    den = Fraction(0)
    n = len(cf)
    for i in range(n):
        if cf[i] == 0:
            continue
        for j in range(n):
            if cf[j] == 0:
                continue
            num += cf[i] * cf[j] * B_exact[i][j]
            den += cf[i] * cf[j] * A_exact[i][j]
    if den <= 0:
        raise var.RayleighError("coefficient vector has nonpositive A-norm")
    return num / den


def _power_iteration(A, B, tol=1e-10, maxiter=10_000):
    """Oracle: the former solver, power iteration on L^-1 B L^-T; None if it does not converge."""
    L = np.linalg.cholesky(A)

    def apply_C(y):
        return np.linalg.solve(L, B @ np.linalg.solve(L.T, y))

    n = A.shape[0]
    y = np.ones(n) + np.arange(n) / (10.0 * max(n, 1))
    y /= np.linalg.norm(y)
    lam = 0.0
    Cy = apply_C(y)
    for _ in range(maxiter):
        y_next = Cy / np.linalg.norm(Cy)
        Cy_next = apply_C(y_next)
        lam_next = float(y_next @ Cy_next)
        residual = float(np.linalg.norm(Cy_next - lam_next * y_next))
        if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)) and residual <= 1e3 * tol * max(1.0, abs(lam_next)):
            return np.linalg.solve(L.T, y_next)
        lam, Cy = lam_next, Cy_next
    return None


def _row_power_sums(pts, maxpow):
    """Oracle: the former power sums, p_r = sum of pts**r along each row."""
    return {r: np.sum(pts**r, axis=1) for r in range(1, maxpow + 1)}


def _row_eval_from_power_sums(partition, psums, n):
    """Oracle: the former m_lambda evaluation, one array per power-sum term."""
    out = np.zeros(n)
    for coef, powers in var._powersum_expansion(tuple(partition)):
        term = np.full(n, float(coef))
        for r in powers:
            term = term * psums[r]
        out += term
    return out


def _row_eval_F(cert, psums, n):
    """Oracle: the former trial function, rebuilt one basis function at a time."""
    out = np.zeros(n)
    for c, lam in zip(cert.coefficients, cert.basis):
        if c:
            out += c * _row_eval_from_power_sums(lam, psums, n)
    return out


def _row_major_verify_certificate(cert, sample_count, seed):
    """Oracle: the former Monte-Carlo loop over row-major batches; returns (ratio, sigma)."""
    k = cert.k
    rng = np.random.default_rng(seed)
    nodes, weights = np.polynomial.legendre.leggauss(cert.degree // 2 + 2)
    tot = 0.0
    tot_sq = 0.0
    done = 0
    while done < sample_count:
        m = min(var._MC_BATCH, sample_count - done)
        e = rng.exponential(size=(m, k + 1))
        e /= e.sum(axis=1, keepdims=True)
        v = _row_eval_F(cert, _row_power_sums(e[:, :k], cert.degree), m) ** 2
        tot += float(np.sum(v))
        tot_sq += float(np.sum(v * v))
        done += m
    mean_i = tot / sample_count
    var_i = max(tot_sq / sample_count - mean_i**2, 0.0) / sample_count
    if k == 1:
        pts = (nodes[:, None] + 1) / 2
        inner = 0.5 * float(np.dot(weights, _row_eval_F(cert, _row_power_sums(pts, cert.degree), len(nodes))))
        mean_j = inner * inner
        var_j = 0.0
    else:
        tot = 0.0
        tot_sq = 0.0
        done = 0
        while done < sample_count:
            m = min(var._MC_BATCH, sample_count - done)
            e = rng.exponential(size=(m, k))
            e /= e.sum(axis=1, keepdims=True)
            rest = e[:, : k - 1]
            u = 1.0 - rest.sum(axis=1)
            rest_sums = _row_power_sums(rest, cert.degree)
            inner = np.zeros(m)
            for g, w in zip(nodes, weights):
                t1 = (g + 1) / 2 * u
                inner += w * _row_eval_F(cert, {r: t1**r + p for r, p in rest_sums.items()}, m)
            inner *= u / 2
            v = inner**2
            tot += float(np.sum(v))
            tot_sq += float(np.sum(v * v))
            done += m
        mean_j = tot / sample_count
        var_j = max(tot_sq / sample_count - mean_j**2, 0.0) / sample_count
    ratio = k * k * mean_j / mean_i
    rel = math.sqrt(var_j / mean_j**2 + var_i / mean_i**2) if mean_j > 0 else math.sqrt(var_i) / mean_i
    return ratio, abs(ratio) * rel


def test_simplex_monomial_integral_examples():
    assert simplex_monomial_integral(1, (0,)) == 1
    assert simplex_monomial_integral(2, (0, 0)) == Fraction(1, 2)
    # iterated-integral oracle: int_0^1 t2 (1 - t2)^2 / 2 dt2 = 1/24
    assert simplex_monomial_integral(2, (1, 1)) == Fraction(1, 24)
    assert simplex_monomial_integral(3, (2,)) == Fraction(2, math.factorial(5))
    with pytest.raises(ValueError):
        simplex_monomial_integral(2, (1, 1, 1))


def _mc_integral(k, func, n=200_000, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(n, k + 1))
    pts = (e / e.sum(axis=1, keepdims=True))[:, :k]
    vals = func(pts)
    mean = float(np.mean(vals))
    sig = float(np.std(vals) / math.sqrt(n))
    vol = 1.0 / math.factorial(k)
    return mean * vol, sig * vol


def test_monomial_sym_eval_matches_enumeration():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 0.2, size=(50, 4))
    k = pts.shape[1]
    for lam in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3, 2)]:
        got = _eval_monomial_sym(lam, pts)
        # direct oracle: sum over distinct coordinate placements
        want = np.zeros(len(pts))
        for placement in _arrangements(lam, k):
            term = np.ones(len(pts))
            for c, e in placement.items():
                term = term * pts[:, c] ** e
            want += term
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "k,degree",
    [(k, d) for k in (1, 2, 3, 4, 5, 8, 12, 20) for d in range(4)] + [(5, 5), (8, 5), (2, 6), (3, 6), (5, 6), (3, 8)],
)
def test_gram_matrices_match_all_placements_oracle(k, degree):
    basis = var.basis_partitions(k, degree)
    for fast, oracle in ((var.gram_I, _gram_I_all_placements), (var.gram_J, _gram_J_all_placements)):
        gram = fast(k, basis)
        want_flt, want_exact = oracle(k, basis)
        assert _fractions(gram) == want_exact
        assert np.array_equal(var._float_gram(k, gram), want_flt)


@pytest.mark.parametrize("k,degree", [(5, 6), (12, 6), (20, 5), (105, 6), (3, 8)])
def test_integer_gram_matches_fraction_oracle(k, degree):
    basis = var.basis_partitions(k, degree)
    for fast, oracle in ((var.gram_I, _fraction_gram_I), (var.gram_J, _fraction_gram_J)):
        gram = fast(k, basis)
        want_flt, want_exact = oracle(k, basis)
        assert _fractions(gram) == want_exact
        assert np.array_equal(var._float_gram(k, gram), want_flt)


def test_pinned_splits_match_generic_enumerator():
    for k in (1, 2, 3, 5, 12):
        for lam in var.basis_partitions(k, 6):
            for pinned in (0, 1):
                assert var._pinned_splits(lam, pinned, k - pinned) == _overlap_counts(lam, pinned, k - pinned)


@pytest.mark.parametrize("k,degree", [(5, 6), (12, 6), (3, 8), (64, 3)])
def test_exact_quotient_matches_fraction_double_loop(k, degree):
    basis = var.basis_partitions(k, degree)
    n = len(basis)
    A_exact, B_exact = var.gram_I(k, basis), var.gram_J(k, basis)
    A_fractions, B_fractions = _fractions(A_exact), _fractions(B_exact)
    rng = np.random.default_rng(1000 * k + degree)
    for _ in range(4):
        # signs from the normal draw, binary exponents over 2^-60 .. 2^60, some zeros
        c = rng.normal(size=n) * 2.0 ** rng.integers(-60, 61, size=n)
        c[rng.random(n) < 0.25] = 0.0
        c[0] = 0.0
        c[-1] = -abs(c[-1]) or -1.0
        want = _fraction_exact_quotient(c, A_fractions, B_fractions)
        assert var._exact_quotient(c, A_exact, B_exact) == want
        assert var._exact_quotient(tuple(float(v) for v in c), A_exact, B_exact) == want
    single = np.zeros(n)
    single[-1] = 3.0
    assert var._exact_quotient(single, A_exact, B_exact) == B_fractions[-1][-1] / A_fractions[-1][-1]
    with pytest.raises(var.RayleighError):
        var._exact_quotient(np.zeros(n), A_exact, B_exact)


def _random_certificate(rng, k, degree):
    basis = var.basis_partitions(k, degree)
    coefs = rng.normal(size=len(basis))
    coefs[1] = 0.0
    return var.VariationalCertificate(
        k=k, degree=degree, basis=basis, coefficients=tuple(float(c) for c in coefs),
        exact_bound=Fraction(0),
    )


def test_eval_F_matches_per_function_sum():
    rng = np.random.default_rng(21)
    for k, degree in ((1, 4), (3, 3), (5, 6)):
        cert = _random_certificate(rng, k, degree)
        pts = rng.uniform(0, 1.0 / k, size=(300, k))
        want = np.zeros(len(pts))
        for c, lam in zip(cert.coefficients, cert.basis):
            if c:
                want += c * _row_eval_from_power_sums(lam, _row_power_sums(pts, sum(lam)), len(pts))
        assert np.array_equal(_row_eval_F(cert, _row_power_sums(pts, degree), len(pts)), want)


def test_power_sum_polynomial_matches_per_function_oracle():
    rng = np.random.default_rng(22)
    for k, degree in ((1, 4), (3, 3), (5, 6), (12, 6), (20, 5)):
        cert = _random_certificate(rng, k, degree)
        pts = rng.uniform(0, 1.0 / k, size=(300, k))
        n = len(pts)
        F = var._PowerSumPolynomial(var._trial_coefficients(cert.coefficients, cert.basis), n)
        assert F.max_power == degree and len(F.keys) <= len(cert.basis)
        cols = np.ascontiguousarray(pts.T)
        got = F(var._column_power_sums(cols, degree, np.empty((degree, n)), np.empty_like(cols)))
        row_sums = _row_power_sums(pts, degree)
        want = _row_eval_F(cert, row_sums, n)
        # F cancels heavily, so the scale is the sum of the absolute terms
        scale = sum(
            abs(c * _row_eval_from_power_sums(lam, row_sums, n)) for c, lam in zip(cert.coefficients, cert.basis)
        )
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
@pytest.mark.parametrize("degree", [0, 3, 6, 8])
def test_inner_integral_matches_gauss_legendre(k, degree):
    rng = np.random.default_rng(100 * k + degree)
    basis = var.basis_partitions(k, degree)
    exact = var._trial_coefficients(rng.normal(size=len(basis)), basis)
    n = 300
    F = var._PowerSumPolynomial(exact, n)
    G = var._PowerSumPolynomial(var._inner_integral(exact), n)
    # every term of F in the power sums with its absolute coefficient: the scale of the rounding
    F_abs = var._PowerSumPolynomial({key: abs(w) for key, w in exact.items()}, n)
    P = F.max_power
    e = rng.exponential(size=(k + 1, n))
    rest = e[: k - 1] / e.sum(axis=0)
    u = rng.uniform(size=n) * (1.0 - rest.sum(axis=0))  # any upper limit on the simplex
    rows = var._column_power_sums(rest, P, np.empty((G.max_power, n)), np.empty_like(rest))
    rows[P:] = u ** np.arange(1, G.max_power - P + 1)[:, None]
    got = G(rows).copy()
    want = np.zeros(n)
    scale = np.zeros(n)
    nodes, weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    for g, w in zip(nodes, weights):
        cols = np.vstack([(g + 1) / 2 * u, rest])
        psums = var._column_power_sums(cols, P, np.empty((P, n)), np.empty_like(cols))
        want += w * F(psums)
        scale += w * F_abs(psums)
    want *= u / 2
    scale *= u / 2
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_gram_I_examples():
    assert _fractions(var.gram_I(2, ((),))) == [[Fraction(1, 2)]]
    assert _fractions(var.gram_I(1, ((), (1,)))) == [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]


def test_gram_I_against_monte_carlo():
    basis = ((), (1,), (1, 1))
    k = 3
    exact = _fractions(var.gram_I(k, basis))
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            bi, bj = basis[i], basis[j]
            est, sig = _mc_integral(
                k, lambda pts: _eval_monomial_sym(bi, pts) * _eval_monomial_sym(bj, pts)
            )
            assert abs(est - float(exact[i][j])) <= max(3 * sig, 1e-6)


def test_gram_J_examples():
    assert _fractions(var.gram_J(1, ((),))) == [[Fraction(1)]]
    assert _fractions(var.gram_J(1, ((), (1,)))) == [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 4)]]
    assert _fractions(var.gram_J(2, ((),))) == [[Fraction(2, 3)]]


def test_gram_J_against_monte_carlo():
    # independent oracle: sample the outer simplex, evaluate the inner
    # t_1 integrals by Gauss-Legendre, average the products
    k = 3
    basis = ((), (1,), (1, 1))
    exact = _fractions(var.gram_J(k, basis))
    rng = np.random.default_rng(12)
    n = 200_000
    e = rng.exponential(size=(n, k))
    rest = (e / e.sum(axis=1, keepdims=True))[:, : k - 1]
    u = 1.0 - rest.sum(axis=1)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    inners = []
    for lam in basis:
        acc = np.zeros(n)
        for g, w in zip(nodes, weights):
            pts = np.column_stack([(g + 1) / 2 * u, rest])
            acc += w * _eval_monomial_sym(lam, pts)
        inners.append(acc * u / 2)
    vol = 1.0 / 2.0  # area of the 2-simplex
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            vals = inners[i] * inners[j]
            est = k * vol * float(np.mean(vals))
            sig = k * vol * float(np.std(vals) / np.sqrt(n))
            assert abs(est - float(exact[i][j])) <= max(3 * sig, 1e-6), (i, j)


def test_gram_J_positive_semidefinite():
    for k, deg in [(2, 3), (5, 2), (8, 2)]:
        B = var._float_gram(k, var.gram_J(k, var.basis_partitions(k, deg)))
        eigs = np.linalg.eigvalsh(B)
        assert float(eigs.min()) >= -1e-10 * max(1.0, float(eigs.max()))


def test_gram_float_scale_consistency():
    # the float rendering carries a common k! factor, each entry rounded once from the exact value
    for k, degree in ((3, 2), (5, 6), (64, 3), (105, 8)):
        basis = var.basis_partitions(k, degree)
        for gram in (var.gram_I(k, basis), var.gram_J(k, basis)):
            flt = var._float_gram(k, gram)
            num, den = gram
            for i in range(len(basis)):
                for j in range(len(basis)):
                    assert flt[i][j] == float(Fraction(num[i][j], den) * math.factorial(k)), (k, degree, i, j)


def test_max_rayleigh_diagonal():
    lam, c = var.max_rayleigh(np.eye(2), np.diag([3.0, 1.0]))
    assert lam == pytest.approx(3.0, rel=1e-9)
    assert abs(c[0]) / np.linalg.norm(c) == pytest.approx(1.0, abs=1e-4)


def test_max_rayleigh_against_dense_solver():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(8)
    for n in (3, 6, 10):
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        N = rng.normal(size=(n, n))
        B = N @ N.T
        lam, c = var.max_rayleigh(A, B)
        want = float(np.max(scipy_linalg.eigh(B, A, eigvals_only=True)))
        assert lam == pytest.approx(want, rel=1e-8)
        quot = float(c @ B @ c) / float(c @ A @ c)
        assert quot == pytest.approx(want, rel=1e-8)


def test_max_rayleigh_reports_singular_gram():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(var.RayleighError):
        var.max_rayleigh(A, np.eye(2))


@pytest.mark.parametrize("k,degree", [(k, 3) for k in DEFAULT_KS] + [(5, 6)])
def test_certificate_sound_and_not_below_power_iteration(k, degree):
    cert = var.mk_lower_bound(k, degree)
    assert Fraction(cert.lower_bound) <= cert.exact_bound < Fraction(math.nextafter(cert.lower_bound, math.inf))
    basis = var.basis_partitions(k, degree)
    A_exact, B_exact = var.gram_I(k, basis), var.gram_J(k, basis)
    c = _power_iteration(var._float_gram(k, A_exact), var._float_gram(k, B_exact))
    assert c is not None
    assert cert.exact_bound >= var._exact_quotient(c, A_exact, B_exact) * (1 - Fraction(1, 10**12))


def test_solver_reaches_where_power_iteration_stalled():
    for k, degree, floor in ((12, 6, Fraction("2.6871")), (105, 3, Fraction("3.478"))):
        cert = var.mk_lower_bound(k, degree)
        assert cert.exact_bound > floor
        assert Fraction(cert.lower_bound) <= cert.exact_bound


def test_k1_anchor():
    for degree in (0, 1, 3, 5):
        cert = var.mk_lower_bound(1, degree)
        assert cert.lower_bound == pytest.approx(1.0, abs=1e-9)
    assert float(var.mk_lower_bound(1, 4).exact_bound) <= 1.0  # rigorous lower bound


def test_quotient_homogeneity():
    basis = var.basis_partitions(3, 2)
    A, B = var._float_gram(3, var.gram_I(3, basis)), var._float_gram(3, var.gram_J(3, basis))
    rng = np.random.default_rng(1)
    c = rng.normal(size=len(basis))
    q1 = float(c @ B @ c) / float(c @ A @ c)
    q2 = float((2 * c) @ B @ (2 * c)) / float((2 * c) @ A @ (2 * c))
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_nested_basis_monotonicity():
    for k in (2, 5):
        lams = [var.mk_lower_bound(k, d).lower_bound for d in range(0, 4)]
        for lo, hi in zip(lams, lams[1:]):
            assert hi >= lo - 1e-10


def test_certificate_serialization_fields():
    cert = var.mk_lower_bound(3, 2)
    d = cert.row()
    assert set(d) == {
        "k", "degree", "basis_size", "lambda", "exact_bound", "basis", "coefficients", "mc_ratio", "mc_ci"
    }
    assert d["basis_size"] == len(var.basis_partitions(3, 2))
    assert Fraction(d["exact_bound"]) == cert.exact_bound
    assert float(cert.exact_bound) == pytest.approx(cert.lower_bound, rel=1e-9)
    assert d["basis"] == [list(p) for p in cert.basis]
    assert d["coefficients"] == list(cert.coefficients)
    assert d["mc_ratio"] is None and d["mc_ci"] is None


def test_mk_lower_bound_desk_bound_on_k():
    assert var.mk_lower_bound(var.MAX_K, 0).k == var.MAX_K
    for k in (var.MAX_K + 1, 10**300):
        with pytest.raises(ValueError, match="desk bound is k <= 10000"):
            var.mk_lower_bound(k, 0)
        with pytest.raises(ValueError, match="desk bound is k <= 10000"):
            var.basis_partitions(k, 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match=r"^need k >= 1$"):
            var.basis_partitions(k, 1)


@pytest.mark.parametrize("k,degree", [(1, 0), (3, 2), (5, 6), (12, 6), (64, 3)])
def test_certificate_row_reads_back(k, degree):
    cert = _mc_certificate(k, degree)
    back = var.VariationalCertificate.from_row(json.loads(json.dumps(cert.row())))
    assert (back.k, back.degree, back.basis) == (cert.k, cert.degree, cert.basis)
    assert back.coefficients == cert.coefficients and back.exact_bound == cert.exact_bound
    assert back == cert
    back.check_exact_bound()


def test_check_exact_bound_refuses_forgeries():
    row = var.mk_lower_bound(2, 2).row()
    nudged = Fraction(row["exact_bound"]) - Fraction(1, 10**40)
    with pytest.raises(ValueError, match="at k = 2 does not reproduce its exact_bound"):
        var.VariationalCertificate.from_row(dict(row, exact_bound=str(nudged))).check_exact_bound()
    zero = [0.0] * len(row["coefficients"])
    with pytest.raises(ValueError, match="at k = 2: coefficient vector has nonpositive A-norm"):
        var.VariationalCertificate.from_row(dict(row, coefficients=zero)).check_exact_bound()


def test_row_mc_ci_is_the_band_contains_reads():
    cert = var.mk_lower_bound(3, 2)
    mc = var.verify_certificate(cert, 100_000, seed=0)
    row = cert.row(mc)
    assert row["mc_ratio"] == mc.ratio
    assert row["mc_ci"] == list(mc.band)
    lo, hi = row["mc_ci"]
    assert lo < mc.ratio < hi
    assert mc.contains(lo) and mc.contains(hi)
    assert not mc.contains(math.nextafter(lo, -math.inf)) and not mc.contains(math.nextafter(hi, math.inf))
    # a band narrower than 1e-12 is widened to it
    exact = var.MCVerification(ratio=1.0, sigma=0.0, samples=100_000)
    assert exact.band == (1.0, 1.0)
    assert exact.contains(1.0 + 5e-13) and exact.contains(1.0 - 5e-13)
    assert not exact.contains(1.0 + 2e-12) and not exact.contains(1.0 - 2e-12)


def test_verify_certificate_constant_function():
    cert = var.VariationalCertificate(
        k=2, degree=0, basis=((),), coefficients=(1.0,), exact_bound=Fraction(4, 3)
    )
    mc = var.verify_certificate(cert, 200_000, seed=5)
    assert mc.contains(4 / 3)
    assert mc.ratio == pytest.approx(4 / 3, rel=0.02)


def test_verify_certificate_guards():
    cert = var.mk_lower_bound(2, 2)
    with pytest.raises(ValueError):
        var.verify_certificate(cert, 10_000)
    zero = var.VariationalCertificate(
        k=2, degree=0, basis=((),), coefficients=(0.0,), exact_bound=Fraction(0)
    )
    with pytest.raises(ValueError):
        var.verify_certificate(zero, 100_000)


def test_verify_certificate_matches_optimizer():
    cert = var.mk_lower_bound(5, 3)
    mc = var.verify_certificate(cert, 400_000, seed=6)
    assert mc.contains(cert.lower_bound)


@lru_cache(maxsize=None)
def _mc_certificate(k, degree):
    return var.mk_lower_bound(k, degree)


@pytest.mark.parametrize("k,degree", [(1, 4), (2, 3), (5, 6), (12, 6)])
def test_verify_certificate_matches_row_major_oracle(k, degree):
    cert = _mc_certificate(k, degree)
    for seed in (0, 3):
        # 123457 leaves a partial last batch
        for sample_count in (100_000, 123_457):
            mc = var.verify_certificate(cert, sample_count, seed=seed)
            ratio, sigma = _row_major_verify_certificate(cert, sample_count, seed)
            assert mc.samples == sample_count
            assert mc.ratio == pytest.approx(ratio, rel=1e-9, abs=0)
            assert mc.sigma == pytest.approx(sigma, rel=1e-9, abs=0)


@pytest.mark.parametrize("k,degree,columns", [(1, 4, 2), (1, 4, 3001), (5, 6, 2), (5, 6, 3001), (12, 6, 3001), (120, 3, 3001)])
def test_verify_certificate_does_not_depend_on_the_block_budget(k, degree, columns, monkeypatch):
    # A budget of `columns` columns over the k + 1 rows, against one block
    # per group of _MC_BATCH samples and against the default budget. 3001
    # columns do not divide a group, so the blocks are the 2500 that do.
    # n = 100_001 ends in a one-column block at every width.
    cert = _mc_certificate(k, degree)
    budgets = (8 * (k + 1) * var._MC_BATCH, var._MC_BLOCK_BYTES, 8 * (k + 1) * columns)
    simplex_batches = var.simplex_batches
    widths = []

    def spy(rng, out, n):
        widths.append(out.shape[1])
        return simplex_batches(rng, out, n)

    monkeypatch.setattr(var, "simplex_batches", spy)
    for n in (100_001,) if columns == 2 else (100_000, 100_001):
        results = set()
        for budget in budgets:
            monkeypatch.setattr(var, "_MC_BLOCK_BYTES", budget)
            widths.clear()
            mc = var.verify_certificate(cert, n, seed=n)
            results.add((mc.ratio, mc.sigma))
        assert len(results) == 1, (n, results)
    assert widths == [min(columns, 2500)] * (1 if k == 1 else 2)


@pytest.mark.parametrize("k,degree", [(1, 4), (5, 6), (12, 6), (120, 3)])
def test_verify_certificate_does_not_depend_on_the_slice(k, degree, monkeypatch):
    # One block per slice, one whole group per slice (the group-wide
    # evaluation, kept as the slow-path oracle) and the default slice.
    # n = 100_001 and 123_457 end in a partial group and a short block.
    cert = _mc_certificate(k, degree)
    default = var._mc_slice
    spans = []
    results = {}
    for rule in (lambda width: width, lambda width: var._MC_BATCH, default):

        def spy(width, rule=rule):
            spans.append((width, rule(width)))
            return spans[-1][1]

        monkeypatch.setattr(var, "_mc_slice", spy)
        for n in (100_000, 100_001, 123_457):
            mc = var.verify_certificate(cert, n, seed=n)
            results.setdefault(n, []).append((mc.ratio, mc.sigma))
    for n, got in results.items():
        assert got[0] == got[1] == got[2], (n, got)
    width = spans[0][0]
    assert {span for _, span in spans} == {width, var._MC_BATCH, default(width)}
    assert default(width) <= var._MC_BATCH // 2 and default(width) % width == 0


def _traced_peak(cert, sample_count):
    """The traced peak of one verify_certificate call, in bytes."""
    np.random.default_rng(0)  # numpy.random imports on first use; keep that out of the peak
    tracemalloc.start()
    try:
        var.verify_certificate(cert, sample_count, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_certificate_memory_does_not_grow_with_k():
    # a sample buffer of (k + 1) x _MC_BATCH floats and its spare would take 64 MB
    assert _traced_peak(_mc_certificate(200, 3), 100_000) < 3 * 2**20


def test_verify_certificate_memory_at_degree_8():
    # 17 power-sum rows and two product stacks: slices keep them at 10,000 points
    assert _traced_peak(_mc_certificate(5, 8), 100_000) < 4 * 2**20


def test_min_k_for():
    table = [var.mk_lower_bound(k, 2) for k in range(1, 13)]
    k, cert = var.min_k_for(1, 2.0, table)
    assert k == 1 and cert.lower_bound > 0
    k, cert = var.min_k_for(2, 2.0, table)
    assert cert.lower_bound > 1.0
    assert all(c.lower_bound <= 1.0 for c in table if c.k < k)
    with pytest.raises(var.CertificateCapExceeded):
        var.min_k_for(5, 1e-6, table)
    with pytest.raises(ValueError):
        var.min_k_for(2, 0.0, table)


def test_min_k_for_compares_exact_values():
    def cert(k, bound):
        return var.VariationalCertificate(k=k, degree=0, basis=((),), coefficients=(1.0,), exact_bound=bound)

    # threshold (2t - 2)/L = 6 exactly: a bound equal to it does not exceed it
    table = [cert(2, Fraction(6)), cert(3, Fraction(6) + Fraction(1, 10**40))]
    assert var.min_k_for(2, Fraction(1, 3), table)[0] == 3
    with pytest.raises(var.CertificateCapExceeded, match="threshold 6 "):
        var.min_k_for(2, Fraction(1, 3), table[:1])


def test_basis_cap():
    with pytest.raises(ValueError):
        var.basis_partitions(100, 30)
