"""Certified lower bounds for the Maynard functional M_k.

Trial functions are symmetric polynomials on the simplex
R_k = {t in [0,1]^k : sum t_i <= 1}, spanned by monomial symmetric
polynomials m_lambda indexed by integer partitions. Both quadratic forms

    I(F)   = integral of F^2 over R_k
    sum_J  = k * integral over R_{k-1} of (integral of F dt_1)^2

reduce to exact rational Gram matrices through the Dirichlet integral

    int_{R_n} (1 - sum t)^c  prod t_i^{a_i} dt = c! prod(a_i!) / (n + c + sum a_i)!

Both Gram matrices come from one walk over overlap patterns (_gram). A
form pins at most one coordinate: none for I, and t_1, the integrated one,
for J. A pattern's integral factors over the coordinates, patterns that
differ only by an order within a run of equal parts are merged, and the
cost of an entry depends on the degree only, not on k. All entries of a
matrix are integers over one denominator: (k + 2D)! for I and
lcm(1 .. D + 1)^2 (k + 1 + 2D)! for J, D the basis degree.

Each exact value has one form, and each float is a rendering of it taken
once. mk_lower_bound renders both Gram matrices (_float_gram, scaled by
k!) and takes the top generalized eigenvalue of (B, A) from one dense
eigensolve of L^-1 B L^-T, where A = L L^T. Any feasible quotient is a
valid lower bound for M_k, so the certificate keeps the exact quotient of
the computed float coefficients (exact_bound): they are integers over one
power of two, so both forms are integer quadratic forms. The reported
float (lower_bound, the "lambda" column) is that rational rounded down;
k is selected from the rational. A certificate's table row is written
(row), read back (from_row) and re-derived (check_exact_bound) here alone.
Every basis, read back or computed, comes from basis_partitions, which
holds k to the desk bound MAX_K.

Monte-Carlo integration gives an independent check of every certificate.
The trial function F = sum c_lambda m_lambda is one polynomial in the
power sums p_1 ... p_D, its coefficients combined exactly and rounded
once. The inner t_1 integral of the J side is integrated exactly, as one
polynomial in the power sums of the other coordinates and the powers of
the upper limit. Both sides are sampled by one loop over
comb_lemmas.simplex_batches, the sampler the random lemma sweeps use too,
in blocks of _MC_BLOCK_BYTES of coordinates whatever k is. The sampler
draws the next block on a worker thread while this loop takes the power
sums of the current one, blocks alternating between two buffers, with the
values of one inline draw. The power sums fill slices of whole blocks, at
most half a group of _MC_BATCH points, and both polynomials are evaluated
once per slice into one vector of a group's values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .comb_lemmas import column_sums, partitions_of, simplex_batches

BASIS_SIZE_CAP = 200
# Desk bound on k for every certificate (basis_partitions) and for maycond. A
# certificate at k = 10**4 and degree <= 2 takes under 0.2 s; the Gram factorials grow with k.
MAX_K = 10**4

ExactGram = tuple[list[list[int]], int]  # Python-int numerators over one denominator


def _factorial_product(exponents) -> int:
    out = 1
    for a in exponents:
        out *= math.factorial(a)
    return out


def basis_partitions(k: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of degree <= max_degree with at most k parts, low degree first; 1 <= k <= MAX_K."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k > MAX_K:
        raise ValueError(f"desk bound is k <= {MAX_K}")
    parts = itertools.chain.from_iterable(partitions_of(d, min(k, d) if d else 0) for d in range(max_degree + 1))
    out = tuple(itertools.islice(parts, BASIS_SIZE_CAP + 1))
    if len(out) > BASIS_SIZE_CAP:
        raise ValueError(f"basis of degree {max_degree} at k = {k} exceeds the cap of {BASIS_SIZE_CAP} functions")
    return out


def _mult_factorial(partition) -> int:
    out = 1
    for _, grp in itertools.groupby(partition):
        out *= math.factorial(len(list(grp)))
    return out


def _n_arrangements(partition, coords: int) -> int:
    """Distinct placements of the parts on `coords` labelled coordinates."""
    return math.perm(coords, len(partition)) // _mult_factorial(partition)


def _pinned_splits(partition, pinned: int, free: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Placements of `partition` with 0 or 1 pinned coordinates, grouped by split.

    A split is (on_pinned, rest, count): the exponents on the pinned
    coordinates, the multiset rest of the other parts, descending, and its
    placements _n_arrangements(rest, free) on the free coordinates. With
    nothing pinned the one split is ((), partition); with one pinned
    coordinate it is ((0,), partition) and ((v,), partition without one v)
    for each distinct part v. Splits with no placement are left out.
    """
    splits = [((0,) * pinned, tuple(partition))]
    if pinned:
        for v in sorted(set(partition), reverse=True):
            rest = list(partition)
            rest.remove(v)
            splits.append(((v,), tuple(rest)))
    counted = ((on_pinned, rest, _n_arrangements(rest, free)) for on_pinned, rest in splits)
    return tuple(c for c in counted if c[2])


@lru_cache(maxsize=None)
def _held_patterns(partition, runs, free: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Placements of `partition` on held + free coordinates, merged by their held exponents.

    The held coordinates come in runs of the given lengths, and placements
    that differ only by an order within a run are merged: each pattern is
    (on_held, w), with the exponents on the held coordinates descending
    within every run (0 where empty), and w the number of orders of each
    run times _n_arrangements(nu, free) * prod(nu!), nu the other parts.
    That is every factor of the pattern's weight that does not depend on
    the other basis function, when that function is constant on each run.
    Patterns with no placement are left out. One run is peeled at a time,
    so partitions that share a remainder share its patterns through the
    cache.
    """
    if not runs:
        mult = _n_arrangements(partition, free)
        return (((), mult * _factorial_product(partition)),) if mult else ()
    r = runs[0]
    out = []
    for size in range(min(r, len(partition)) + 1):
        for chosen in dict.fromkeys(itertools.combinations(partition, size)):
            remaining = list(partition)
            for v in chosen:
                remaining.remove(v)
            orders = math.factorial(r) // (_mult_factorial(chosen) * math.factorial(r - size))
            block = chosen + (0,) * (r - size)
            out += [(block + tail, orders * w) for tail, w in _held_patterns(tuple(remaining), runs[1:], free)]
    return tuple(out)


def _gram(k: int, basis, pinned: int, pin_weight, denominator) -> ExactGram:
    """Gram matrix of the basis from its overlap patterns: entry (i, j) is num[i][j] / den.

    `pinned` coordinates are held fixed: none for I, t_1 for J. Each split
    of lambda there (_pinned_splits: its pinned exponents, the multiset
    `rest` of its other parts, their count) holds those parts on the next
    coordinates. mu is split the same way, and its other parts are placed
    over the held and the free coordinates. Times
    denominator(|lambda| + |mu|), the integral of a pattern is an integer:
    pin_weight(lambda's pinned exponents, mu's), times (a + b)! for each
    held coordinate where lambda has a and mu has b, times the weight
    _held_patterns gives the pattern. The sum over mu's patterns depends
    only on rest and mu's unpinned parts, so it is made once per such
    pair. den = denominator(2D), D the basis degree, is a multiple of each
    entry's own denominator; no Fraction and no float is made.
    """
    n = len(basis)
    if n == 0:
        raise ValueError("basis must be nonempty")
    top = max(map(sum, basis))
    fact = [math.factorial(i) for i in range(2 * top + 1)]
    den = denominator(2 * top)
    held_sums: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}  # by (rest, mu's unpinned parts)
    num = [[0] * n for _ in range(n)]
    splits = [_pinned_splits(p, pinned, k - pinned) for p in basis]
    for i, lam in enumerate(basis):
        for j in range(i, n):
            mu = basis[j]
            total = 0
            for lam_pinned, rest, cnt in splits[i]:
                for mu_pinned, mu_rest, _ in splits[j]:
                    part = held_sums.get((rest, mu_rest))
                    if part is None:
                        part = 0
                        runs = tuple(len(list(run)) for _, run in itertools.groupby(rest))
                        for on_held, w in _held_patterns(mu_rest, runs, k - pinned - len(rest)):
                            for a, b in zip(rest, on_held):
                                w *= fact[a + b]
                            part += w
                        held_sums[rest, mu_rest] = part
                    total += cnt * pin_weight(lam_pinned, mu_pinned) * part
            num[i][j] = num[j][i] = total * (den // denominator(sum(lam) + sum(mu)))
    return num, den


def gram_I(k: int, basis) -> ExactGram:
    """Gram matrix of the basis under the F^2 integral, exact.

    No coordinate is pinned: one monomial of m_lambda * m_mu with exponents
    a_i integrates to prod(a_i!) over (k + |lambda| + |mu|)!.
    """
    return _gram(k, basis, 0, lambda lam_pinned, mu_pinned: 1, lambda deg: math.factorial(k + deg))


def gram_J(k: int, basis) -> ExactGram:
    """Gram matrix of the basis under the summed J functional, exact.

    Coordinate t_1, the one integrated, is pinned, with exponents a_1 and
    b_1 of lambda and mu on it. Symmetry of the basis collapses the k
    coordinate choices to a factor k times the t_1 term; the inner
    integral's upper limit 1 - t_2 - ... - t_k enters through the
    (1 - sum)^c Dirichlet factor. A monomial pair whose other coordinates
    carry the combined exponents r_i integrates to
    k (a_1 + b_1 + 2)! prod(r_i!) / ((a_1 + 1)(b_1 + 1)(k + 1 + deg)!),
    deg = |lambda| + |mu|; with L = lcm(1 .. D + 1), D the basis degree,
    its numerator over L^2 (k + 1 + deg)! is an integer, and everything but
    prod(r_i!) is the pinned weight.
    """
    L = math.lcm(*range(1, max(map(sum, basis), default=0) + 2))

    def pin_weight(lam_pinned, mu_pinned):
        a1, b1 = lam_pinned[0], mu_pinned[0]
        return k * math.factorial(a1 + b1 + 2) * (L // (a1 + 1)) * (L // (b1 + 1))

    return _gram(k, basis, 1, pin_weight, lambda deg: L * L * math.factorial(k + 1 + deg))


def _float_gram(k: int, gram: ExactGram) -> np.ndarray:
    """The float Gram matrix: each entry num * k! / den, correctly rounded by int / int division.

    The k! scale (the uniform probability measure on the simplex) keeps
    entries representable at large k and cancels in Rayleigh quotients.
    """
    num, den = gram
    scale = math.factorial(k)
    return np.array([[v * scale / den for v in row] for row in num])


# ---------------------------------------------------------------------------
# generalized Rayleigh maximization


class RayleighError(RuntimeError):
    pass


def max_rayleigh(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """Top generalized eigenpair of (B, A) with A positive definite.

    With the Cholesky factor A = L L^T the pencil becomes the symmetric
    matrix C = L^-1 B L^-T; one dense eigensolve of C gives its top
    eigenpair (lam, y), and c = L^-T y.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(A))
        raise RayleighError(f"Gram matrix not numerically positive definite (cond ~ {cond:.3e})") from exc
    C = np.linalg.solve(L, np.linalg.solve(L, B).T)
    lams, ys = np.linalg.eigh(C)
    return float(lams[-1]), np.linalg.solve(L.T, ys[:, -1])


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class VariationalCertificate:
    k: int
    degree: int
    basis: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]
    exact_bound: Fraction  # the float coefficients' quotient, rationally exact

    @property
    def basis_size(self) -> int:
        return len(self.basis)

    @property
    def lower_bound(self) -> float:
        """exact_bound rounded down to a float: the certified value reported and used."""
        f = float(self.exact_bound)
        return math.nextafter(f, -math.inf) if f > self.exact_bound else f

    def row(self, mc: MCVerification | None = None) -> dict:
        """The certificate as a table row, with the Monte-Carlo check's ratio and band if given."""
        return {
            "k": self.k,
            "degree": self.degree,
            "basis_size": self.basis_size,
            "lambda": self.lower_bound,
            "exact_bound": str(self.exact_bound),
            "basis": [list(p) for p in self.basis],
            "coefficients": list(self.coefficients),
            "mc_ratio": mc.ratio if mc else None,
            "mc_ci": list(mc.band) if mc else None,
        }

    @classmethod
    def from_row(cls, row: dict) -> VariationalCertificate:
        """The certificate a row() holds, its k, degree, basis and coefficients checked; exact_bound as written."""
        k, degree = row["k"], row["degree"]
        if type(k) is not int or type(degree) is not int or degree < 0:
            raise ValueError("k and degree must be integers, degree >= 0")
        basis = tuple(tuple(p) for p in row["basis"])
        if basis != basis_partitions(k, degree):
            raise ValueError(f"basis is not the degree-{degree} basis at k = {k}")
        coefficients = tuple(row["coefficients"])
        if len(coefficients) != len(basis):
            raise ValueError(f"{len(coefficients)} coefficients for {len(basis)} basis functions")
        if not all(type(c) in (int, float) and math.isfinite(c) for c in coefficients):
            raise ValueError("coefficients must be finite numbers")
        return cls(k=k, degree=degree, basis=basis, coefficients=coefficients, exact_bound=Fraction(row["exact_bound"]))

    def check_exact_bound(self) -> None:
        """Raise ValueError unless the coefficients' exact quotient over the exact Gram pair is exact_bound."""
        try:
            exact = _exact_quotient(self.coefficients, gram_I(self.k, self.basis), gram_J(self.k, self.basis))
        except RayleighError as exc:
            raise ValueError(f"the certificate at k = {self.k}: {exc}") from None
        if exact != self.exact_bound:
            raise ValueError(f"the certificate at k = {self.k} does not reproduce its exact_bound")


def _exact_quotient(c, A_exact, B_exact) -> Fraction:
    """The quotient c^T B c / c^T A c of the float vector c, exactly.

    Each coefficient is m_i / 2^s exactly, with one s for all of them, so
    both forms are integer quadratic forms in m over the numerators of the
    exact Gram matrices, and the common 2^2s cancels.
    """
    ratios = [float(ci).as_integer_ratio() for ci in c]
    scale = max((q for _, q in ratios), default=1)
    m = [p * (scale // q) for p, q in ratios]
    live = [i for i, mi in enumerate(m) if mi]

    def form(num) -> int:
        return sum(m[i] * sum(m[j] * num[i][j] for j in live) for i in live)

    (num_A, den_A), (num_B, den_B) = A_exact, B_exact
    a = form(num_A)
    if a <= 0:
        raise RayleighError("coefficient vector has nonpositive A-norm")
    return Fraction(form(num_B) * den_A, a * den_B)


def mk_lower_bound(k: int, max_degree: int) -> VariationalCertificate:
    """Best quotient over the symmetric polynomial basis of bounded degree."""
    basis = basis_partitions(k, max_degree)
    A_exact, B_exact = gram_I(k, basis), gram_J(k, basis)
    A, B = _float_gram(k, A_exact), _float_gram(k, B_exact)
    _, c = max_rayleigh(A, B)
    if float(c @ B @ c) <= 0:
        raise RayleighError("optimizer returned a function with vanishing J mass")
    norm = float(c @ A @ c)
    if not norm > 0:  # the float Gram matrix A has lost its positive definiteness
        raise RayleighError(f"optimizer returned a function with non-positive A-norm {norm:.3e}")
    # normalize for reproducibility: unit A-norm, leading significant entry positive
    c = c / math.sqrt(norm)
    pivot = int(np.argmax(np.abs(c)))
    if c[pivot] < 0:
        c = -c
    return VariationalCertificate(
        k=k,
        degree=max_degree,
        basis=basis,
        coefficients=tuple(float(v) for v in c),
        exact_bound=_exact_quotient(c, A_exact, B_exact),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo verification


@lru_cache(maxsize=None)
def _set_partitions(s: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if s == 0:
        return ((),)
    out = []
    for smaller in _set_partitions(s - 1):
        for bi in range(len(smaller)):
            out.append(smaller[:bi] + (smaller[bi] + (s - 1,),) + smaller[bi + 1 :])
        out.append(smaller + ((s - 1,),))
    return tuple(out)


def _powersum_expansion(partition: tuple[int, ...]) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """m_lambda as a rational combination of power-sum products.

    Inclusion-exclusion over coincidence patterns of the ordered placement:
    each set partition pi of the parts contributes prod over blocks of
    (-1)^(|B|-1) (|B|-1)! p_{sum of block}, divided by the multiplicity
    factorials of lambda.
    """
    s = len(partition)
    denom = _mult_factorial(partition)
    terms: dict[tuple[int, ...], Fraction] = {}
    for pi in _set_partitions(s):
        coef = Fraction(1, denom)
        powers = []
        for block in pi:
            coef *= Fraction((-1) ** (len(block) - 1) * math.factorial(len(block) - 1))
            powers.append(sum(partition[i] for i in block))
        key = tuple(sorted(powers))
        terms[key] = terms.get(key, Fraction(0)) + coef
    return tuple((c, key) for key, c in sorted(terms.items()) if c != 0)


def _column_power_sums(cols: np.ndarray, maxpow: int, out: np.ndarray, power: np.ndarray) -> np.ndarray:
    """out[r - 1] = p_r, the sum over the rows of cols**r, for r = 1 .. maxpow.

    cols holds one coordinate per row and one point per column, and power
    is a buffer of its shape. Each power is one multiply over all of cols
    into power (repeated multiplication), and each p_r adds the rows in
    order (column_sums), so a point's power sums are the same floats at any
    number of columns.
    """
    x = cols
    for r in range(maxpow):
        if r:
            x = np.multiply(x, cols, out=power)
        column_sums(x, out=out[r])
    return out


def _trial_coefficients(coefficients, basis) -> dict[tuple[int, ...], Fraction]:
    """F = sum c_lambda m_lambda as exact coefficients of power-sum products.

    A key is the sorted tuple of the powers r of one product of the p_r.
    """
    exact: dict[tuple[int, ...], Fraction] = {}
    for c, lam in zip(coefficients, basis):
        if c:
            cf = Fraction(c)
            for coef, key in _powersum_expansion(tuple(lam)):
                exact[key] = exact.get(key, Fraction(0)) + cf * coef
    return exact


def _inner_integral(exact: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """The integral of F over t_1 from 0 to u, exactly, from F's power-sum coefficients.

    With q_r the power sums of the other coordinates, p_r = t_1^r + q_r.
    Each product of the p_r expands by choosing, for the m copies of each
    power r in it, j of them to contribute t_1^r (C(m, j) ways); the
    resulting t_1^e integrates to u^(e + 1) / (e + 1). The result is a
    polynomial in the same key format: with P the largest power in F,
    rows 1 .. P stand for q_1 .. q_P and row P + j for u^j, so every
    key ends with exactly one row above P.
    """
    P = max((key[-1] for key, w in exact.items() if w and key), default=0)
    out: dict[tuple[int, ...], Fraction] = {}
    for key, w in exact.items():
        if not w:
            continue
        powers = sorted(set(key))
        counts = [key.count(r) for r in powers]
        for js in itertools.product(*(range(m + 1) for m in counts)):
            e = sum(j * r for j, r in zip(js, powers))
            coef = w / (e + 1)
            qkey = ()
            for r, m, j in zip(powers, counts, js):
                coef *= math.comb(m, j)
                qkey += (r,) * (m - j)
            gkey = qkey + (P + e + 1,)
            out[gkey] = out.get(gkey, Fraction(0)) + coef
    return out


class _PowerSumPolynomial:
    """One polynomial in power sums, its exact coefficients rounded to float once.

    The coefficients come as a dict keyed by the sorted tuple of the powers
    r of one product of the p_r: _trial_coefficients gives those of
    F = sum c_lambda m_lambda, summed exactly over the expansions of the
    m_lambda, and _inner_integral those of F's inner t_1 integral. The
    products are taken in lexicographic order of their keys, which walks
    the tree of products depth first: each product is the last product one
    power shorter times one power sum, so one buffer row per length is
    enough. An evaluation is one multiply per product plus an accumulation
    in that fixed order; no BLAS call is made, so the value does not depend
    on the thread count.
    """

    def __init__(self, exact: dict[tuple[int, ...], Fraction], width: int):
        keys = {key[:i] for key, w in exact.items() if w for i in range(1, len(key) + 1)}
        self.constant = float(exact.get((), 0))
        self.keys = tuple(sorted(keys))
        self.weights = tuple(float(exact.get(key, 0)) for key in self.keys)
        self.max_power = max((key[-1] for key in self.keys), default=0)
        depth = max((len(key) for key in self.keys), default=1)
        self._products = np.empty((depth - 1, width))
        self._term = np.empty(width)

    def __call__(self, psums: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F at n points from psums[r - 1] = p_r, shape (>= max_power, n).

        The values go into out, of length n (a new array if None), which is
        returned. A point's value does not depend on n.
        """
        n = psums.shape[1]
        out = np.empty(n) if out is None else out
        term = self._term[:n]
        products = self._products[:, :n]
        out.fill(self.constant)
        for key, w in zip(self.keys, self.weights):
            d = len(key)
            if d == 1:
                row = psums[key[0] - 1]
            else:
                prefix = psums[key[0] - 1] if d == 2 else products[d - 3]
                row = np.multiply(prefix, psums[key[-1] - 1], out=products[d - 2])
            if w:
                out += np.multiply(row, w, out=term)
        return out


# Monte-Carlo samples per group. The values of a group's points fill one
# vector of this length, squared in place, and the group sums are added in
# order, so this value is part of the bit pattern of every Monte-Carlo
# result. The power sums and polynomials are evaluated on slices of at most
# half a group (_mc_slice), so only that vector has a group's length, and
# nothing grows with k.
_MC_BATCH = 20_000
# Bytes of coordinates per sampled block: the block, the sampler's spare
# and the power buffer hold (k + 1) x width floats each, with width the
# largest divisor of _MC_BATCH within this budget over the k + 1 rows. A
# point's power sums and values do not depend on the width, so this value
# sets the memory and no result.
_MC_BLOCK_BYTES = 256 * 1024


def _mc_slice(width: int) -> int:
    """Points per evaluation slice: whole blocks of `width`, at most half a group unless one block is more.

    A point's value does not depend on the slice, so this sets the memory
    of the power-sum and polynomial buffers and no result.
    """
    return width * max(1, (_MC_BATCH // 2) // width)


@dataclass(frozen=True)
class MCVerification:
    ratio: float
    sigma: float
    samples: int

    @property
    def band(self) -> tuple[float, float]:
        """ratio -/+ 5 sigma: the interval a certified value must lie in (a row's mc_ci)."""
        return self.ratio - 5 * self.sigma, self.ratio + 5 * self.sigma

    def contains(self, value: float) -> bool:
        """Whether value lies in the band, widened to ratio -/+ 1e-12 if narrower."""
        lo, hi = self.band
        return min(lo, self.ratio - 1e-12) <= value <= max(hi, self.ratio + 1e-12)


def verify_certificate(cert: VariationalCertificate, sample_count: int = 100_000, seed: int = 0) -> MCVerification:
    """Independent Monte-Carlo estimate of the certified quotient.

    Uniform simplex sampling by exponential spacings (simplex_batches).
    Each block holds one coordinate per row, and its width comes from
    _MC_BLOCK_BYTES over the k + 1 rows, so the sampler's memory does not
    grow with k; the width divides _MC_BATCH, so blocks tile the groups of
    _MC_BATCH points. A block's power sums take one pass over it per power
    and fill its columns of a slice of whole blocks (_mc_slice, at most
    10,000 points). F is evaluated on each full slice and at each group's
    end, as one polynomial in the power sums p_1 ... p_D of its points,
    and the inner t_1 integral of the J side as one polynomial in the power
    sums q_r of the other coordinates and the powers of the upper limit u,
    integrated exactly (_inner_integral), with no quadrature nodes. The
    values land in one vector of a group's length, which is squared in
    place for the group's sums of v^2 and v^4, so a point's value and a
    group's sums do not depend on the slice. Both sides run through one
    sampling loop: the I side draws k + 1 coordinates per point, the J side
    k, each from the same generator in turn.
    """
    if sample_count < 10**5:
        raise ValueError("need at least 1e5 samples")
    if all(c == 0.0 for c in cert.coefficients):
        raise ValueError("zero trial function")
    k = cert.k
    rng = np.random.default_rng(seed)
    group = min(_MC_BATCH, sample_count)
    # the widest block within the budget that tiles a group
    cap = min(group, max(1, _MC_BLOCK_BYTES // (8 * (k + 1))))
    width = next(w for w in range(cap, 0, -1) if group % w == 0)
    span = _mc_slice(width)
    exact = _trial_coefficients(cert.coefficients, cert.basis)
    F = _PowerSumPolynomial(exact, span)
    G = _PowerSumPolynomial(_inner_integral(exact), span)
    D = F.max_power
    # rows below D: p_r for F, q_r for G; rows D and up: u, u^2, ... for G
    psums = np.empty((G.max_power, span))
    vals = np.empty(group)
    draws = np.empty((k + 1, width))
    power = np.empty((k, width))

    def mean_square(rows: int, block_sums, values) -> tuple[float, float]:
        """The mean of v**2 over all samples and the variance of that mean.

        Each block holds `rows` coordinates of uniform simplex points.
        block_sums(block, out) writes their power sums into out, the block's
        columns of psums, and values(psums, out) evaluates a slice's into
        its part of vals.
        """
        tot = 0.0
        tot_sq = 0.0
        done = fill = start = 0  # samples summed, those of the current group, and its slice's first
        for block in simplex_batches(rng, draws[:rows], sample_count):
            at = fill - start
            block_sums(block, psums[:, at : at + block.shape[1]])
            fill += block.shape[1]
            done += block.shape[1]
            end = fill == group or done == sample_count
            if end or fill - start == span:
                values(psums[:, : fill - start], vals[start:fill])
                start = fill
            if end:
                v = np.square(vals[:fill], out=vals[:fill])
                tot += float(np.sum(v))
                tot_sq += float(np.sum(np.square(v, out=v)))
                fill = start = 0
        mean = tot / sample_count
        return mean, max(tot_sq / sample_count - mean**2, 0.0) / sample_count

    def trial_sums(block: np.ndarray, out: np.ndarray) -> None:
        _column_power_sums(block[:k], D, out, power[:, : block.shape[1]])

    def inner_sums(block: np.ndarray, out: np.ndarray) -> None:
        rest = block[: k - 1]
        _column_power_sums(rest, D, out, power[: k - 1, : block.shape[1]])
        # u = 1 - q_1, the sum of the other coordinates
        np.subtract(1.0, out[0] if D else column_sums(rest), out=out[D])

    def inner_integral(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        for r in range(D + 1, len(rows)):
            np.multiply(rows[r - 1], rows[D], out=rows[r])
        return G(rows, out)

    # Probability-measure means: the simplex volumes cancel in the quotient,
    # quotient = k^2 * E[(inner integral)^2] / E[F^2], so no factorial appears.
    mean_i, var_i = mean_square(k + 1, trial_sums, F)
    if k == 1:
        # no other coordinates: q = 0 and u = 1
        point = np.zeros((G.max_power, 1))
        point[D:] = 1.0
        inner = float(G(point)[0])
        mean_j = inner * inner
        var_j = 0.0
    else:
        mean_j, var_j = mean_square(k, inner_sums, inner_integral)

    ratio = k * k * mean_j / mean_i
    rel = math.sqrt(var_j / mean_j**2 + var_i / mean_i**2) if mean_j > 0 else math.sqrt(var_i) / mean_i
    sigma = abs(ratio) * rel
    return MCVerification(ratio=ratio, sigma=sigma, samples=sample_count)


# ---------------------------------------------------------------------------
# k selection


class CertificateCapExceeded(LookupError):
    def __init__(self, threshold: float, best: float, kmax: int):
        super().__init__(
            f"no tabulated k reaches the threshold {threshold:.6g} (best certified bound "
            f"{best:.6g} at k <= {kmax})"
        )
        self.threshold = threshold


def min_k_for(t: int, L, table) -> tuple[int, VariationalCertificate]:
    """Least tabulated k whose exact certified bound exceeds (2t - 2)/L.

    L may be a float or a Fraction and is taken exactly; each certificate's
    exact_bound is compared with the rational threshold, so k is selected
    from exact values. Certificates are lower bounds, so the answer is
    sound but possibly not minimal among all k.
    """
    L = Fraction(L)
    if L <= 0:
        raise ValueError("need L > 0")
    threshold = (2 * t - 2) / L
    best = 0.0
    kmax = 0
    for cert in sorted(table, key=lambda c: c.k):
        best = max(best, cert.lower_bound)
        kmax = max(kmax, cert.k)
        if cert.exact_bound > threshold:
            return cert.k, cert
    raise CertificateCapExceeded(float(threshold), best, kmax)
