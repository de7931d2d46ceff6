import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apgaps.characters as chars
from apgaps.arith import crt_unit_lift, euler_phi, factorize, prime_power_arrays
from apgaps.checks import check_phi_star_partition
from test_arith import chebyshev_psi, mobius


def characters(r):
    """Every character mod r, in the group's enumeration order."""
    grp = chars.character_group(r)
    return [chars.Character(grp, ex) for ex in map(tuple, grp.coords.tolist())]


def row(chi):
    """Index of chi in its group's enumeration order: its exponents as a mixed-radix number."""
    i = 0
    for a, g in zip(chi.exponents, chi.group.generators):
        i = i * g.order + a
    return i


def conductor(chi):
    return int(chi.group.conductors[row(chi)])


def value_exponent(chi, n):
    """k with chi(n) = zeta_e^k, or None when gcd(n, r) > 1."""
    u = int(chi.group.index_of[n % chi.modulus])
    return None if u < 0 else int(chi.group.exponents(row(chi), u))


def value(chi, n):
    """chi(n) by definition: zeta_e^k on the units, 0 off them."""
    k = value_exponent(chi, n)
    return 0j if k is None else complex(np.exp(2j * np.pi * k / chi.group.exponent))


def values_vector(chi):
    """chi(n) for n = 0..r-1 as a complex vector (zero off the units)."""
    grp = chi.group
    vec = np.zeros(grp.r, dtype=np.complex128)
    vec[grp.unit_values] = np.exp(2j * np.pi * grp.exponents(row(chi)) / grp.exponent)
    return vec


def conductor_by_enumeration(chi):
    """Oracle conductor: smallest f | r with chi constant on unit classes mod f."""
    r = chi.group.r
    units = [int(u) for u in chi.group.unit_values]
    for f in chars.divisors(r):
        buckets: dict[int, int] = {}
        ok = True
        for u in units:
            k = value_exponent(chi, u)
            prev = buckets.setdefault(u % f, k)
            if prev != k:
                ok = False
                break
        if ok:
            return f
    return r


def is_principal(chi):
    """The oracle's principal character: the zero exponent vector, read without conductors."""
    return not any(chi.exponents)


def is_primitive(chi):
    return conductor(chi) == chi.modulus


def primitivize(chi):
    """The primitive character mod conductor(chi) inducing chi, read from primitive_rows."""
    grp_f = chars.character_group(conductor(chi))
    return chars.Character(grp_f, tuple(grp_f.coords[chi.group.primitive_rows[row(chi)]].tolist()))


def conductor_split(chi, q, d):
    """conductor(chi) = q1 * d1 with q1 | q and d1 | d, for chi mod q*d with gcd(q, d) = 1."""
    if math.gcd(q, d) != 1 or chi.modulus != q * d:
        raise ValueError("need gcd(q, d) = 1 and a character mod q*d")
    return math.gcd(conductor(chi), q), math.gcd(conductor(chi), d)


def phi_star(r):
    return sum(mobius(r // d) * euler_phi(d) for d in chars.divisors(r))


def psi_chi(x, chi):
    """Sum of Lambda(n) chi(n) over n <= x, fsum per component."""
    P, W = prime_power_arrays(int(x))
    vals = values_vector(chi)[P % chi.modulus]
    return complex(math.fsum(W * vals.real), math.fsum(W * vals.imag))


def induced_psi_gap(x, chi):
    return abs(abs(psi_chi(x, chi)) - abs(psi_chi(x, primitivize(chi))))


def dirichlet_T(coeffs, chi):
    """T(chi) = sum_{n=1..N} a_n chi(n)."""
    return complex(np.sum(coeffs * values_vector(chi)[np.arange(1, len(coeffs) + 1) % chi.modulus]))


def exp_sum_S(coeffs, x):
    """S(x) = sum_{n=1..N} a_n e(n x)."""
    return complex(np.sum(coeffs * np.exp(2j * np.pi * np.arange(1, len(coeffs) + 1) * x)))


def mult_to_additive_check(m, coeffs):
    """(m/phi(m) sum* |T(chi)|^2, sum over reduced j of |S(j/m)|^2)."""
    lhs = m / euler_phi(m) * chars._star_T_squares(m, np.asarray(coeffs, dtype=np.complex128))
    return lhs, math.fsum(abs(exp_sum_S(coeffs, j / m)) ** 2 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def test_group_sizes_and_primitive_counts():
    for r, n_chars, n_prim in [(1, 1, 1), (3, 2, 1), (4, 2, 1), (8, 4, 2), (12, 4, 1)]:
        cs = characters(r)
        assert len(cs) == n_chars == euler_phi(r)
        assert sum(1 for c in cs if is_primitive(c)) == n_prim
        assert sum(1 for c in cs if is_principal(c)) == 1
        assert [row(c) for c in cs] == list(range(n_chars))


def test_modulus_one_character_is_primitive_constant():
    (chi,) = characters(1)
    assert is_primitive(chi) and is_principal(chi)
    assert value(chi, 5) == 1 and value(chi, 12) == 1


@given(st.integers(1, 120), st.data())
def test_multiplicativity_on_units(r, data):
    grp = chars.character_group(r)
    units = [int(u) for u in grp.unit_values]
    m = data.draw(st.sampled_from(units))
    n = data.draw(st.sampled_from(units))
    for chi in characters(r)[:6]:
        assert value(chi, m * n) == pytest.approx(value(chi, m) * value(chi, n), abs=1e-12)


def test_vanishing_off_units():
    for r in (6, 9, 20):
        for chi in characters(r):
            for n in range(2 * r):
                if math.gcd(n, r) > 1:
                    assert value(chi, n) == 0
                else:
                    assert abs(value(chi, n)) == pytest.approx(1.0, abs=1e-12)


def test_conductor_examples_and_oracle():
    for chi in characters(15):
        if is_principal(chi):
            assert conductor(chi) == 1
    chi3 = next(c for c in characters(3) if not is_principal(c))
    assert conductor(chi3) == 3
    chi6 = next(c for c in characters(6) if not is_principal(c))
    assert conductor(chi6) == 3
    for r in range(1, 81):
        for chi in characters(r):
            assert conductor(chi) == conductor_by_enumeration(chi)


def test_primitivize_agrees_on_units():
    for r in (6, 12, 40, 45):
        for chi in characters(r):
            hat = primitivize(chi)
            assert hat.modulus == conductor(chi)
            assert is_primitive(hat)
            for n in range(1, 3 * r):
                if math.gcd(n, r) == 1:
                    assert value(chi, n) == pytest.approx(value(hat, n), abs=1e-12)


def test_generators_are_crt_lifts_of_the_local_generators():
    # each generator is its local generator mod p^e and 1 mod r / p^e, in [1, r)
    for r in range(1, 2001):
        want = []
        for p, e in factorize(r).factors:
            for val, order in chars._local_generators(p, e):
                lift = crt_unit_lift(val, p**e, r // p**e)
                assert 0 < lift < r and lift % p**e == val and lift % (r // p**e) == 1 % (r // p**e)
                want.append((lift, order))
        assert [(g.value, g.order) for g in chars.CharacterGroup(r).generators] == want, r


def oracle_primitivize(chi):
    """The per-character primitivization that primitive_rows replaced: one value per generator."""
    f = conductor(chi)
    grp_f = chars.character_group(f)
    r = chi.group.r
    e_r = chi.group.exponent
    exps = []
    for g in grp_f.generators:
        n = g.value
        while math.gcd(n, r) != 1:
            n += f
        k = value_exponent(chi, n)
        assert k is not None
        num = k * g.order
        if num % e_r != 0:
            raise ArithmeticError("conductor computation inconsistent with values")
        exps.append((num // e_r) % g.order)
    return chars.Character(grp_f, tuple(exps))


def oracle_conductor_partition_check(r, F):
    """The list-based partition check that the row-table version replaced."""
    lhs = [F(oracle_primitivize(chi)) for chi in characters(r) if not is_principal(chi)]
    rhs = [
        F(chi1)
        for r1 in chars.divisors(r)
        for chi1, star in zip(characters(r1), chars.character_group(r1).star_rows)
        if star
    ]
    return sum(lhs) == sum(rhs) and len(lhs) == len(rhs)


def test_primitivize_matches_per_character_oracle():
    for r in [*range(1, 201), 720, 1024, 1155]:
        for chi in characters(r):
            got, want = primitivize(chi), oracle_primitivize(chi)
            assert (got.modulus, got.exponents) == (want.modulus, want.exponents), chi


def test_conductor_partition_check_matches_list_oracle():
    rng = random.Random(5)
    table = {}
    seen = {"new": [], "oracle": []}

    def weight(chi, side):
        key = (chi.modulus, chi.exponents)
        seen[side].append(key)
        if key not in table:
            table[key] = rng.randrange(1, 1 << 30)
        return table[key]

    for r in [*range(1, 201), 720, 1155]:
        for side in seen:
            seen[side].clear()
        got = chars.conductor_partition_check(r, lambda chi: weight(chi, "new"))
        want = oracle_conductor_partition_check(r, lambda chi: weight(chi, "oracle"))
        assert got is want is True, r
        # both checks hand F the same characters, with the same multiplicities
        assert sorted(seen["new"]) == sorted(seen["oracle"]), r


def test_conductor_partition_check_reads_primitive_rows(monkeypatch):
    grp = chars.character_group(45)
    rows = grp.primitive_rows.copy()
    i = int(np.flatnonzero(grp.conductors == 45)[0])
    rows[i] = (rows[i] + 1) % grp.phi  # one character sent to the wrong primitive
    monkeypatch.setitem(grp.__dict__, "primitive_rows", rows)
    assert not chars.conductor_partition_check(45, lambda chi: hash((chi.modulus, chi.exponents)))


def test_conductor_split():
    g12 = chars.character_group(12)
    split = {chi.exponents: conductor_split(chi, 3, 4) for chi in characters(12)}
    values = sorted(split.values())
    assert (1, 1) in values  # principal
    assert (3, 1) in values  # induced from the nontrivial character mod 3
    for chi in characters(12):
        q1, d1 = conductor_split(chi, 3, 4)
        assert 3 % q1 == 0 and 4 % d1 == 0 and q1 * d1 == conductor(chi)
        if is_primitive(chi):
            assert (q1, d1) == (3, 4)
    with pytest.raises(ValueError):
        conductor_split(characters(12)[0], 6, 2)


def test_phi_star_values_and_divisor_sum():
    assert phi_star(1) == 1
    assert phi_star(2) == 0
    assert [phi_star(d) for d in chars.divisors(12)] == [1, 0, 1, 1, 0, 1]
    for r in range(1, 151):
        assert phi_star(r) == chars.phi_star_by_enumeration(r)
    for r in range(1, 201):
        assert sum(phi_star(d) for d in chars.divisors(r)) == euler_phi(r)


def test_conductor_partition_check_random_weights():
    rng = random.Random(11)
    for r in (45, 60, 97):
        table = {}

        def weight(chi):
            key = (chi.modulus, chi.exponents)
            if key not in table:
                table[key] = rng.randrange(1, 1 << 20)
            return table[key]

        assert chars.conductor_partition_check(r, weight)


def test_psi_chi_examples():
    (one,) = characters(1)
    assert psi_chi(10, one).real == pytest.approx(chebyshev_psi(10), rel=1e-12)
    chi4 = next(c for c in characters(4) if not is_principal(c))
    got = psi_chi(10, chi4)
    assert got.real == pytest.approx(math.log(5) - math.log(7), rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert psi_chi(1.5, chi4) == 0
    for chi in characters(12):
        assert abs(psi_chi(500, chi)) <= chebyshev_psi(500) + 1e-9


def test_induced_psi_gap():
    chi6_nonprin = next(c for c in characters(6) if not is_principal(c))
    assert induced_psi_gap(200, primitivize(chi6_nonprin)) == 0.0
    # principal mod 6 against the constant: the gap is the Lambda mass at 2 and 3
    chi0 = next(c for c in characters(6) if is_principal(c))
    mass = math.fsum(
        math.log(p) for p in (2, 3) for k in range(1, 8) if p**k <= 100
    )
    assert induced_psi_gap(100, chi0) == pytest.approx(mass, rel=1e-12)
    # induced from mod 3: both sides recomputed by direct enumeration
    x = 200
    chi3 = primitivize(chi6_nonprin)
    direct_mod6 = math.fsum((value(chi6_nonprin, n) * w).real for n, w in _prime_powers(x))
    direct_mod3 = math.fsum((value(chi3, n) * w).real for n, w in _prime_powers(x))
    assert induced_psi_gap(x, chi6_nonprin) == pytest.approx(
        abs(abs(direct_mod6) - abs(direct_mod3)), abs=1e-9
    )


def _prime_powers(x):
    P, W = prime_power_arrays(int(x))
    return [(int(p), float(w)) for p, w in zip(P, W)]


def test_dirichlet_T_and_exp_sum():
    (one,) = characters(1)
    assert dirichlet_T(np.ones(5), one) == pytest.approx(5.0)
    chi3 = next(c for c in characters(3) if not is_principal(c))
    got = dirichlet_T(np.ones(3), chi3)
    assert got == pytest.approx(1 + value(chi3, 2), abs=1e-12)
    a = np.array([0.3, -1.2, 2.5, 0.1])
    assert exp_sum_S(a, 0.0) == pytest.approx(np.sum(a))


def test_farey_spacing():
    # independent enumeration for r = 3, D = 2
    pts = set()
    for r1 in (1, 3):
        for d in (1, 2):
            m = d * r1
            for j in range(1, m + 1):
                if math.gcd(j, m) == 1:
                    pts.add(Fraction(j, m))
    ordered = sorted(pts)
    want = min(b - a for a, b in zip(ordered, ordered[1:]))
    assert chars.farey_spacing_min(3, 2) == want == Fraction(1, 6)
    for r in (2, 3, 5, 7, 11):
        assert chars.farey_spacing_min(r, 1) == Fraction(1, r)
    assert chars.farey_spacing_min(1, 1) == Fraction(1)
    for r in range(1, 13):
        for D in range(1, 6):
            assert chars.farey_spacing_min(r, D) >= Fraction(1, r * D * D)


def farey_spacing_by_fractions(r, D):
    """Oracle: the sorted set of Fractions that farey_spacing_min replaced."""
    pts = set()
    for r1 in chars.divisors(r):
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1:
                continue
            m = d * r1
            for j in range(1, m + 1):
                if math.gcd(j, m) == 1:
                    pts.add(Fraction(j, m))
    if len(pts) < 2:
        return Fraction(1)
    ordered = sorted(pts)
    return min(b - a for a, b in zip(ordered, ordered[1:]))


def test_farey_spacing_matches_fraction_oracle():
    for r in range(1, 21):
        for D in range(1, 11):
            assert chars.farey_spacing_min(r, D) == farey_spacing_by_fractions(r, D)
    # about 8,600 points with denominators up to 930
    assert chars.farey_spacing_min(31, 30) == farey_spacing_by_fractions(31, 30)
    for r, D in ((0, 3), (3, 0), (-1, 2), (10**6 + 1, 1), (10**4, 11)):
        with pytest.raises(ValueError):
            chars.farey_spacing_min(r, D)


def farey_spacing_by_float_sort(r, D):
    """Oracle: the former farey_spacing_min, a set of reduced pairs and one Fraction per gap."""
    pts = set()
    for r1 in chars.divisors(r):
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1:
                continue
            m = d * r1
            for j in range(1, m + 1):
                if math.gcd(j, m) == 1:
                    pts.add((j, m))
    if len(pts) < 2:
        return Fraction(1)
    ordered = sorted(pts, key=lambda p: p[0] / p[1])
    return min(Fraction(j2 * m1 - j1 * m2, m1 * m2) for (j1, m1), (j2, m2) in zip(ordered, ordered[1:]))


def test_farey_spacing_matches_float_sort_oracle_on_check_grid():
    for r in range(1, 21):  # the (r, D) of checks.check_farey
        for D in range(1, 11):
            assert chars.farey_spacing_min(r, D) == farey_spacing_by_float_sort(r, D)


@given(st.integers(1, 40), st.data())
def test_farey_spacing_matches_float_sort_oracle_sampled(D, data):
    r = data.draw(st.integers(1, min(10**6 // (D * D), 3000 // D)))
    assert chars.farey_spacing_min(r, D) == farey_spacing_by_float_sort(r, D)


def test_large_sieve_trivial_and_random():
    lhs, rhs, ratio = chars.large_sieve_check(6, 3, np.zeros(10))
    assert lhs == 0.0 and rhs == 0.0
    a = np.zeros(50)
    a[17] = 1.0
    lhs, rhs, _ = chars.large_sieve_check(12, 4, a)
    assert lhs <= rhs
    rng = np.random.default_rng(5)
    for _ in range(20):
        N = int(rng.integers(1, 800))
        r = int(rng.integers(1, 40))
        D = int(rng.integers(1, 8))
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs, rhs, _ = chars.large_sieve_check(r, D, coeffs)
        assert lhs <= rhs * (1 + 1e-12)


def test_large_sieve_rejects_r_or_D_below_one():
    for r, D in ((6, 0), (0, 3), (-2, 3), (0, 0)):
        with pytest.raises(ValueError, match=r"^need r, D >= 1$"):
            chars.large_sieve_check(r, D, np.ones(10))


def test_mult_to_additive_bound():
    rng = np.random.default_rng(9)
    for m in (3, 8, 15, 41, 100):
        coeffs = rng.normal(size=300) + 1j * rng.normal(size=300)
        lhs, rhs = mult_to_additive_check(m, coeffs)
        assert lhs <= rhs * (1 + 1e-9)


def test_orthogonality_exact():
    rng = random.Random(3)
    for r in list(range(1, 30)) + [45, 64, 81, 100]:
        for _ in range(4):
            m = rng.randrange(1, 4 * r + 2)
            n = rng.randrange(1, 4 * r + 2)
            assert chars.orthogonality_check_exact(r, m, n)


def test_root_of_unity_sum_both_outcomes():
    cases = (
        (2, [1, 1], True),
        (2, [1, 0], False),
        (3, [1, 1, 1], True),
        (3, [2, 1, 1], False),
        (4, [1, 0, 1, 0], True),
        (4, [1, 1, 0, 0], False),
    )
    for e, counts, is_zero in cases:
        assert chars._root_of_unity_sum_is_zero(np.array(counts), e) is is_zero


def test_cyclotomic_degree_is_phi():
    for n in range(1, 61):
        poly = chars._cyclotomic(n)
        assert len(poly) - 1 == euler_phi(n) and poly[-1] == 1


def test_star_sum_membership():
    # the constant function is primitive but excluded from star sums
    (one,) = characters(1)
    assert is_primitive(one) and not one.group.star_rows[row(one)]
    chi3 = next(c for c in characters(3) if not is_principal(c))
    assert chi3.group.star_rows[row(chi3)]
    chi6 = next(c for c in characters(6) if not is_principal(c))
    assert not is_primitive(chi6) and not chi6.group.star_rows[row(chi6)]


def test_star_rows_match_per_character_definition():
    for m in range(1, 300):
        grp = chars.character_group(m)
        star = np.array([is_primitive(chi) and not is_principal(chi) for chi in characters(m)], dtype=bool)
        assert np.array_equal(grp.star_rows, star)


def star_T_squares_by_matrix(m, coeffs):
    """Oracle star sum: the values of every starred character on the units, times the binned coefficients."""
    grp = chars.character_group(m)
    binned = np.zeros(m, dtype=np.complex128)
    np.add.at(binned, np.arange(1, len(coeffs) + 1) % m, coeffs)
    T = np.exp(2j * np.pi * grp.exponents(grp.star_rows) / grp.exponent) @ binned[grp.unit_values]
    return float(np.sum(np.abs(T) ** 2))


def test_star_sum_fft_matches_character_matrix():
    # m = 1, 2 have no generators and, like every m = 2 (mod 4), no starred character;
    # m with several generators (8, 15, 240, 480, ...) take the fftn path
    rng = np.random.default_rng(11)
    for m in list(range(1, 121)) + [240, 480]:
        N = int(rng.integers(1, 3 * m + 2))
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        want = star_T_squares_by_matrix(m, coeffs)
        assert chars._star_T_squares(m, coeffs) == pytest.approx(want, rel=1e-12, abs=0.0), m


def _traced(fn):
    """(kept, peak) bytes allocated by fn, starting from an empty group cache."""
    chars.character_group.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_group_memory_is_linear_in_phi():
    # phi(4096)^2 int64 exponents would take 32 MiB, phi(4099)^2 128 MiB.
    kept, peak = _traced(lambda: chars.character_group(4096).conductors)
    assert kept < 1 << 20 and peak < 8 << 20
    kept, peak = _traced(lambda: value(chars.Character(chars.character_group(4099), (1,)), 2))
    assert kept < 1 << 20 and peak < 1 << 20


def test_phi_star_check_memory_grows_quadratically():
    """What verify-identities --max-r N keeps grows like N^2 (O(phi) per group), not N^3."""
    kept1, peak1 = _traced(lambda: check_phi_star_partition(300))
    kept2, peak2 = _traced(lambda: check_phi_star_partition(600))
    assert kept2 < 5 * kept1 and peak2 < 5 * peak1
