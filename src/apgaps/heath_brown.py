"""Heath-Brown's identity for the von Mangoldt function.

The k-fold form expands Lambda(n), for n <= x, as

    sum_{j=1..k} (-1)^(j-1) C(k,j)
        sum_{n = u_1 ... u_j v_1 ... v_j, v_i <= z} log(u_1) mu(v_1) ... mu(v_j)

with the Moebius factors truncated at z = floor(x^(1/k)). hb_lambda evaluates
the right-hand side pointwise (it must reproduce Lambda exactly); the
decomposition routines split the same sum into dyadic boxes, one component
per (j, box vector), and report a per-component breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import floor_power, mobius_table, von_mangoldt_table


def kth_root_floor(x: int, k: int) -> int:
    """Exact floor(x**(1/k)) for integers x >= 1, k >= 1."""
    if x < 1 or k < 1:
        raise ValueError("need x, k >= 1")
    return floor_power(x, Fraction(1, k))


@lru_cache(maxsize=16)
def hb_lambda_table(x: int, k: int) -> np.ndarray:
    """Array T with T[n] = the k-fold expansion of Lambda(n), for 0 <= n <= x."""
    if not 1 <= k <= 4:
        raise ValueError("need 1 <= k <= 4")
    if x < 1:
        raise ValueError("need x >= 1")
    z = kth_root_floor(x, k)
    mu = mobius_table(x).astype(np.float64)
    logs = np.zeros(x + 1)
    logs[1:] = np.log(np.arange(1, x + 1, dtype=np.float64))

    # A_j: j-fold Dirichlet convolution of mu restricted to [1, z]
    a1 = np.zeros(x + 1)
    a1[1 : z + 1] = mu[1 : z + 1]
    # B_j: log * 1^{*(j-1)}
    a_j = a1.copy()
    b_j = logs.copy()
    total = np.zeros(x + 1)
    for j in range(1, k + 1):
        if j > 1:
            a_next = np.zeros(x + 1)
            for d in range(1, z + 1):
                if a1[d]:
                    a_next[d :: d] += a1[d] * a_j[1 : x // d + 1]
            a_j = a_next
            b_next = np.zeros(x + 1)
            for d in range(1, x + 1):
                b_next[d :: d] += b_j[d]
            b_j = b_next
        conv = np.zeros(x + 1)
        for d in np.flatnonzero(a_j).tolist():
            conv[d :: d] += a_j[d] * b_j[1 : x // d + 1]
        total += (-1) ** (j - 1) * math.comb(k, j) * conv
    total.setflags(write=False)
    return total


def hb_lambda(n: int, x: float, k: int) -> float:
    """Value of the k-fold expansion at n; equals Lambda(n) for all n <= x."""
    xi = int(math.floor(x))
    if not 1 <= n <= xi:
        raise ValueError("need 1 <= n <= x")
    return float(hb_lambda_table(xi, k)[n])


@dataclass(frozen=True)
class HBComponent:
    """One dyadic component of the decomposed sum.

    u_boxes[i] and v_boxes[i] are the exponents b of the dyadic boxes
    [2^b, 2^(b+1)); slot u_1 carries the log factor, every v slot carries a
    Moebius factor truncated at z.
    """

    k: int
    j: int
    sign: int
    weight: int
    u_boxes: tuple[int, ...]
    v_boxes: tuple[int, ...]
    tuple_count: int
    values: tuple[complex, ...]

    @property
    def box_sizes(self) -> tuple[int, ...]:
        return tuple(2**b for b in self.u_boxes + self.v_boxes)


def component_constraints_ok(comp: HBComponent, x: int) -> bool:
    """Dyadic and truncation constraints for one component."""
    z = kth_root_floor(x, comp.k)
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


def hb_decompose_sum_multi(x: float, k: int, fs) -> tuple[list[complex], list[HBComponent]]:
    """Decompose sum_{n<=x} Lambda(n) f(n) for several f at once.

    Returns (totals, components); totals[i] is the fsum of component values
    for fs[i] and must match the direct Lambda-weighted sum.
    """
    xi = int(math.floor(x))
    if xi > 10**5 or not 1 <= k <= 3:
        raise ValueError("decomposition is desk-bounded to x <= 1e5, k <= 3")
    z = kth_root_floor(xi, k)
    nf = len(fs)
    farr = np.empty((nf, xi + 1), dtype=np.complex128)
    for i, f in enumerate(fs):
        farr[i] = [0.0] + [f(n) for n in range(1, xi + 1)]
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
            HBComponent(
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


def hb_decompose_sum(x: float, k: int, f) -> tuple[complex, list[HBComponent]]:
    totals, components = hb_decompose_sum_multi(x, k, [f])
    return totals[0], components


def direct_lambda_sum(x: float, f) -> complex:
    """Oracle side: sum_{n<=x} Lambda(n) f(n) straight from the Lambda table."""
    xi = int(math.floor(x))
    lam = von_mangoldt_table(xi)
    vals = [lam[n] * f(n) for n in range(2, xi + 1) if lam[n]]
    return complex(math.fsum(v.real for v in map(complex, vals)), math.fsum(v.imag for v in map(complex, vals)))
