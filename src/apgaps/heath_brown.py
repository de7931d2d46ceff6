"""Heath-Brown's identity for the von Mangoldt function.

The k-fold form expands Lambda(n), for n <= x, as

    sum_{j=1..k} (-1)^(j-1) C(k,j)
        sum_{n = u_1 ... u_j v_1 ... v_j, v_i <= z} log(u_1) mu(v_1) ... mu(v_j)

with the Moebius factors truncated at z = floor(x^(1/k)). hb_lambda_table
evaluates the right-hand side at every n <= x (it must reproduce Lambda
exactly); hb_decompose_sum_multi splits sum_{n<=x} Lambda(n) f(n), for real
weight rows f, into dyadic boxes: one structured array of components, a row
per (j, box vector).

The decomposition enumerates every j-tuple as numpy arrays, one slot at a
time in the order v_1 .. v_j, u_2 .. u_j, u_1. A prefix is held as its
product, its coefficient (-1)^(j-1) C(k,j) mu(v_1)...mu(v_i) and an integer
box key; a slot expands each prefix over its values (squarefree v <= z, or
u <= x / product) with a ragged repeat. The last slot, u_1, gives n and the
weight coeff * log(u_1), and one bincount per weight row sums the tuples of
each box. Box keys are mixed-radix digits, the box exponents of
u_1 .. u_j, v_1 .. v_j, so sorted keys are the components in
(j, u_boxes, v_boxes) order. Expansion is depth-first in chunks of at most
_CHUNK tuples, and per-chunk box sums are merged in bounded batches, so
memory does not grow with the number of tuples (about 1.5e8 at x = 1e5,
k = 3).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import _exact_sum, floor_power, mobius_table, von_mangoldt_table


def _dirichlet(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Dirichlet convolution (f * g)(n) = sum over d | n of f(d) g(n/d)
    for 1 <= n <= x = len(f) - 1, one strided update per nonzero f(d)."""
    x = len(f) - 1
    out = np.zeros(x + 1)
    for d in np.flatnonzero(f).tolist():
        out[d::d] += f[d] * g[1 : x // d + 1]
    return out


def hb_lambda_table(x: int, k: int) -> np.ndarray:
    """Array T with T[n] = the k-fold expansion of Lambda(n), for 0 <= n <= x."""
    if not 1 <= k <= 4:
        raise ValueError("need 1 <= k <= 4")
    if x < 1:
        raise ValueError("need x >= 1")
    z = floor_power(x, Fraction(1, k))
    a1 = np.zeros(x + 1)  # mu restricted to [1, z]
    a1[1 : z + 1] = mobius_table(z)[1:]
    logs = np.zeros(x + 1)
    logs[1:] = np.log(np.arange(1, x + 1, dtype=np.float64))
    ones = np.ones(x + 1)
    # A_j: the j-fold Dirichlet convolution of a1; B_j: log * 1^{*(j-1)}
    a_j, b_j = a1, logs
    total = np.zeros(x + 1)
    for j in range(1, k + 1):
        if j > 1:
            a_j = _dirichlet(a1, a_j)
            b_j = _dirichlet(b_j, ones)
        total += (-1) ** (j - 1) * math.comb(k, j) * _dirichlet(a_j, b_j)
    return total


# Tuples expanded per chunk of the decomposition. The chunk size bounds the
# working set; it changes neither the components nor their tuple counts.
_CHUNK = 1 << 14


# Weights the decomposition takes in all, rows * (floor(x) + 1): 8 MiB of
# float64. At the bound, x = 1e5 and k = 3 peak at about 90 MiB.
MAX_WEIGHTS = 1 << 20


def check_decompose_args(x: int, k: int, rows: int) -> None:
    """Raise ValueError unless 1 <= x <= 1e5, 1 <= k <= 3 and rows * (x + 1) <= MAX_WEIGHTS."""
    if not 1 <= x <= 10**5 or not 1 <= k <= 3:
        raise ValueError("decomposition is desk-bounded to 1 <= x <= 1e5, 1 <= k <= 3")
    weights = rows * (x + 1)
    if weights > MAX_WEIGHTS:
        raise ValueError(f"hb is desk-bounded to trials * (floor(x) + 1) <= {MAX_WEIGHTS} weights, got {weights}")


class _Groups:
    """Running tuple counts and weight-row sums per integer key.

    Chunks are added as (keys, counts, sums) with sums of shape (rows, keys);
    they are merged once the unmerged keys outnumber both _CHUNK and the
    merged ones, so memory stays bounded and each key is re-merged O(1)
    times on average.
    """

    def __init__(self):
        self.chunks = []
        self.merged = self.fresh = 0

    def add(self, keys, counts, sums):
        self.chunks.append((keys, counts, sums))
        self.fresh += len(keys)
        if self.fresh > max(_CHUNK, self.merged):
            self.merge()

    def merge(self):
        keys, inv = np.unique(np.concatenate([c[0] for c in self.chunks]), return_inverse=True)
        # float sums of integer counts below 2^53 are exact
        counts = np.bincount(inv, weights=np.concatenate([c[1] for c in self.chunks]), minlength=len(keys))
        sums = np.concatenate([c[2] for c in self.chunks], axis=1)
        sums = np.array([np.bincount(inv, weights=row, minlength=len(keys)) for row in sums])
        self.chunks = [(keys, counts.astype(np.int64), sums)]
        self.merged, self.fresh = len(keys), 0
        return self.chunks[0]


def _real(w: np.ndarray) -> np.ndarray:
    """w as float64; complex or empty weights raise ValueError."""
    if np.iscomplexobj(w) or w.size == 0:
        hint = "pass a complex f as two rows, its real and imaginary parts"
        raise ValueError(f"weights must be real and non-empty, got {w.dtype} of shape {w.shape}; {hint}")
    return w.astype(np.float64, copy=False)


def hb_decompose_sum_multi(x: float, k: int, weights) -> tuple[list[float], np.ndarray]:
    """Decompose sum_{n<=x} Lambda(n) f(n) for several real weight rows f at once.

    weights has shape (nf, floor(x) + 1) with nf >= 1; weights[i, n] is f_i(n)
    (column 0 is never read). Returns (totals, components); totals[i] is the
    correctly rounded sum (arith._exact_sum, == math.fsum) of the component
    values for row i and must match
    direct_lambda_sum(x, weights[i]). components is a structured array, one
    row per (j, box vector) in (j, u_boxes, v_boxes) order, with fields j;
    u_boxes and v_boxes, the k exponents b of the dyadic boxes [2^b, 2^(b+1))
    of u_1 .. u_j and v_1 .. v_j, -1 past j; tuple_count; and values, one sum
    per weight row with the factor (-1)^(j-1) C(k, j) included.
    """
    xi = int(math.floor(x))
    w = np.asarray(weights)
    if w.ndim != 2 or w.shape[1] != xi + 1:
        raise ValueError(f"weights must have shape (nf, {xi + 1}), got {w.shape}")
    rows = _real(w)
    check_decompose_args(xi, k, len(rows))
    z = floor_power(xi, Fraction(1, k))
    mu = mobius_table(z)
    logs = np.zeros(xi + 1)
    logs[1:] = np.log(np.arange(1, xi + 1, dtype=np.float64))
    radix = xi.bit_length()  # box exponents run over 0 .. radix - 1
    box = np.zeros(xi + 1, dtype=np.int64)
    for b in range(radix):
        box[2**b : 2 ** (b + 1)] = b
    sqf = np.flatnonzero(mu[1 : z + 1]) + 1  # the v values: mu(v) != 0, v <= z
    mu_sqf = mu[sqf]
    n_sqf = np.zeros(z + 1, dtype=np.int64)  # n_sqf[m] = #{v in sqf : v <= m}
    n_sqf[1:] = np.cumsum(mu[1 : z + 1] != 0)

    def expand(slots, prod, coeff, key, groups):
        # fill slots[0] for every prefix: child t of the flat child list is
        # value number t - starts[parent] of its parent; _CHUNK children at a time
        kind, place = slots[0]
        cap = xi // prod
        lens = n_sqf[np.minimum(cap, z)] if kind == "v" else cap
        ends = np.cumsum(lens)
        starts = ends - lens
        last = len(slots) == 1
        if last:
            # u_1 is the most significant digit: key = prefix key + box(u_1) * place
            prefixes, pid = np.unique(key, return_inverse=True)
            nbins = len(prefixes) * radix
        for lo in range(0, int(ends[-1]), _CHUNK):
            hi = min(lo + _CHUNK, int(ends[-1]))
            p0, p1 = np.searchsorted(ends, [lo, hi - 1], side="right")
            span = np.minimum(ends[p0 : p1 + 1], hi) - np.maximum(starts[p0 : p1 + 1], lo)
            parent = np.repeat(np.arange(p0, p1 + 1), span)
            off = np.arange(lo, hi) - starts[parent]
            if kind == "v":
                val = sqf[off]
                c = coeff[parent] * mu_sqf[off]
            else:
                val = off + 1
                c = coeff[parent]
            p = prod[parent] * val
            if not last:
                expand(slots[1:], p, c, key[parent] + box[val] * place, groups)
                continue
            local = pid[parent] * radix + box[val]
            counts = np.bincount(local, minlength=nbins)
            hit = np.flatnonzero(counts)
            wt = c * logs[val]
            sums = np.array([np.bincount(local, weights=row[p] * wt, minlength=nbins)[hit] for row in rows])
            groups.add(prefixes[hit // radix] + hit % radix * place, counts[hit], sums)

    dtype = [("j", np.int64), ("u_boxes", np.int64, (k,)), ("v_boxes", np.int64, (k,))]
    dtype += [("tuple_count", np.int64), ("values", np.float64, (len(rows),))]
    one = np.ones(1, dtype=np.int64)
    parts = []
    for j in range(1, k + 1):
        # key digits, most significant first: u_1 .. u_j, then v_1 .. v_j, so
        # sorted keys are sorted (u_boxes, v_boxes); slots are filled v_1 .. v_j,
        # u_2 .. u_j, u_1
        slots = [("v", radix ** (j - i)) for i in range(1, j + 1)]
        slots += [("u", radix ** (2 * j - i)) for i in range(2, j + 1)]
        slots.append(("u", radix ** (2 * j - 1)))
        groups = _Groups()
        expand(slots, one, (-1) ** (j - 1) * math.comb(k, j) * one, 0 * one, groups)
        keys, counts, sums = groups.merge()
        digits = (keys[:, None] // radix ** np.arange(2 * j - 1, -1, -1)) % radix
        part = np.empty(len(keys), dtype)
        part["j"], part["tuple_count"], part["values"] = j, counts, sums.T
        part["u_boxes"] = part["v_boxes"] = -1  # the padding past j
        part["u_boxes"][:, :j], part["v_boxes"][:, :j] = digits[:, :j], digits[:, j:]
        parts.append(part)
    components = np.concatenate(parts)
    return [_exact_sum(r) for r in components["values"].T], components


def direct_lambda_sum(x: float, weights) -> float:
    """Oracle side: sum_{n<=x} Lambda(n) f(n) straight from the Lambda table.

    weights is one real row of length floor(x) + 1 with weights[n] = f(n).
    The terms are summed with one rounding (arith._exact_sum, == math.fsum).
    """
    xi = int(math.floor(x))
    w = np.asarray(weights)
    if w.shape != (xi + 1,):
        raise ValueError(f"weights must have shape ({xi + 1},), got {w.shape}")
    w = _real(w)
    idx, lam = _lambda_support(xi)
    return _exact_sum(lam * w[idx])


@lru_cache(maxsize=1)
def _lambda_support(xi: int) -> tuple[np.ndarray, np.ndarray]:
    """The n <= xi with Lambda(n) != 0 and their Lambda(n), read only: hb
    checks every weight row against the one table of its x."""
    lam = von_mangoldt_table(xi)
    idx = np.flatnonzero(lam)
    vals = lam[idx]
    idx.flags.writeable = vals.flags.writeable = False
    return idx, vals
