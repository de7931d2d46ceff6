"""Dirichlet characters via the unit-group structure of Z/rZ.

A character is an exponent vector on a fixed generator set of (Z/rZ)*,
obtained by CRT over the prime-power factors of r. Values are exact roots
of unity, read as integer exponents k with chi(n) = zeta_e^k for the
common order e, so identity checks stay in exact integer arithmetic; no
complex value is formed outside the FFT of the star sums. A Character
record (group, exponents) exists only to name a character to the weight F
of conductor_partition_check.

Each group has one exponent table, K[i, u] = k with chi_i(u-th unit) =
zeta_e^k, computed only by CharacterGroup.exponents and never stored whole
(phi(r)^2 entries): readers build the slice they need, and a group keeps
O(r) memory. Conductors are read from it by their definition, the least
f | r with chi trivial on the units = 1 mod f, at prime powers; a composite
r multiplies the conductors of its prime-power factors. Primitivization
reads it too, one slice per conductor f at lifts of the generators mod f:
primitive_rows gives each character's primitive inducing character as a
row mod f, for the whole group at once. conductor_partition_check compares
those rows with the rows of conductor r1 in each divisor group mod r1.

Summation conventions: phi_star_by_enumeration counts all primitive
characters (the constant function mod 1 included), while star-restricted
sums run over primitive nonprincipal characters only. The star convention
lives in one place, CharacterGroup.star_rows.

The large sieve's star sums never build character values at all: the
units, in enumeration order, are the C-order grid of the generator
orders, so the sums T(chi) of every character mod m are one FFT over that
grid (O(phi log phi) time and O(m) memory per modulus).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from .arith import crt_unit_lift, euler_phi, factorize


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _primitive_root(p: int) -> int:
    qs = [q for q, _ in factorize(p - 1).factors]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


@dataclass(frozen=True)
class _Gen:
    value: int  # generator lifted mod r (CRT: = local gen at p**e, = 1 elsewhere)
    order: int


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators of (Z/p^e Z)* as (value mod p^e, order)."""
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(2**e - 1, 2), (5, 2 ** (e - 2))]
    g = _primitive_root(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % p**e, (p - 1) * p ** (e - 1))]


class CharacterGroup:
    """Unit group structure mod r with deterministic generator choice.

    Characters and units are both indexed by exponent vectors on the
    generators, enumerated by itertools.product (last generator fastest).
    """

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("modulus must be >= 1")
        self.r = r
        gens: list[_Gen] = []
        for p, e in factorize(r).factors:
            for val, order in _local_generators(p, e):
                gens.append(_Gen(crt_unit_lift(val, p**e, r // p**e), order))
        self.generators = tuple(gens)
        self.exponent = math.lcm(*(g.order for g in gens)) if gens else 1
        self.phi = euler_phi(r)

    @cached_property
    def coords(self) -> np.ndarray:
        """Exponent vector of each unit (and character), one row each in enumeration order."""
        vecs = np.array(list(itertools.product(*(range(g.order) for g in self.generators))), dtype=np.int64)
        return vecs.reshape(self.phi, len(self.generators))

    @cached_property
    def unit_values(self) -> np.ndarray:
        """The units mod r in enumeration order."""
        r = self.r
        vals = np.full(self.phi, 1 % r, dtype=np.int64)
        for j, g in enumerate(self.generators):
            pows = np.array([pow(g.value, i, r) for i in range(g.order)], dtype=np.int64)
            vals = vals * pows[self.coords[:, j]] % r
        return vals

    @cached_property
    def index_of(self) -> np.ndarray:
        """Position of n in unit_values, or -1 when gcd(n, r) > 1."""
        index_of = np.full(self.r, -1, dtype=np.int64)
        index_of[self.unit_values] = np.arange(self.phi)
        return index_of

    @cached_property
    def _weights(self) -> np.ndarray:
        return np.array([self.exponent // g.order for g in self.generators], dtype=np.int64)

    def exponents(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Slice K[rows, cols] of the exponent table, chi_i(unit_values[u]) = zeta_e^K[i, u].

        Only the slice is built, and nothing is kept.
        """
        c = self.coords
        return (c[rows] * self._weights) @ c[cols].T % self.exponent

    @cached_property
    def conductors(self) -> np.ndarray:
        """Per character: the least f | r with chi trivial on the units = 1 mod f.

        The conductor is multiplicative over the prime powers q of r, and the
        row of a character mod r is the mixed-radix number formed by the rows
        of its components mod each q; so only prime powers read the table.
        """
        powers = [p**e for p, e in factorize(self.r).factors]
        if len(powers) > 1:
            return reduce(np.multiply.outer, [character_group(q).conductors for q in powers]).ravel()
        out = np.full(self.phi, self.r, dtype=np.int32)  # r < 2**31 whenever phi(r) rows fit in memory
        for f in reversed(divisors(self.r)[1:-1]):  # descending, so the least f is written last
            cols = np.flatnonzero(self.unit_values % f == 1)
            step = max(1, (1 << 18) // len(cols))  # rows per slice of <= 2**18 entries
            for lo in range(0, self.phi, step):
                rows = slice(lo, lo + step)
                out[rows][~self.exponents(rows, cols).any(axis=1)] = f
        out[0] = 1  # the principal character leads the enumeration
        return out

    @cached_property
    def star_rows(self) -> np.ndarray:
        """Per character: True iff it enters star-restricted sums, i.e. is primitive and nonprincipal."""
        star = self.conductors == self.r
        star[0] = False  # the principal character leads the enumeration
        star.setflags(write=False)
        return star

    @cached_property
    def primitive_rows(self) -> np.ndarray:
        """Per character: the row, mod its conductor f, of the primitive character inducing it.

        For each f the characters of conductor f read one exponent slice at
        lifts mod r of the generators of (Z/fZ)*; a value zeta_e^k on a
        generator of order o is zeta_o^(k o / e), and those exponents form
        the mixed-radix row mod f.
        """
        out = np.zeros(self.phi, dtype=np.int64)
        for f in set(self.conductors.tolist()):
            rows = np.flatnonzero(self.conductors == f)
            lifts, orders = [], []
            for g in character_group(f).generators:
                n = g.value
                while math.gcd(n, self.r) != 1:
                    n += f
                lifts.append(n)
                orders.append(g.order)
            num = self.exponents(rows, self.index_of[lifts]) * np.array(orders, dtype=np.int64)
            if np.any(num % self.exponent):
                raise ArithmeticError("conductor computation inconsistent with values")
            row = np.zeros(len(rows), dtype=np.int64)
            for j, o in enumerate(orders):
                row = row * o + num[:, j] // self.exponent
            out[rows] = row
        return out


@lru_cache(maxsize=4096)
def character_group(r: int) -> CharacterGroup:
    return CharacterGroup(r)


@dataclass(frozen=True, eq=False)
class Character:
    group: CharacterGroup
    exponents: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.group.r


def phi_star_by_enumeration(r: int) -> int:
    return int(np.count_nonzero(character_group(r).conductors == r))


def conductor_partition_check(r: int, F) -> bool:
    """Exact partition of nonprincipal characters mod r by conductor.

    The two sides read different tables. The left takes every nonprincipal
    character mod r to the primitive character its conductor and primitive
    row name (conductors[1:], primitive_rows[1:]); the right takes, for each
    divisor r1 > 1, the characters mod r1 with conductor r1. F is applied
    to the Character of each row.
    """

    def characters_at(f: int, rows) -> list[Character]:
        grp_f = character_group(f)
        return [Character(grp_f, ex) for ex in map(tuple, grp_f.coords[rows].tolist())]

    grp = character_group(r)
    conductors, rows = grp.conductors[1:], grp.primitive_rows[1:]
    lhs = [F(chi) for f in sorted(set(conductors.tolist())) for chi in characters_at(f, rows[conductors == f])]
    rhs = [
        F(chi)
        for r1 in divisors(r)[1:]
        for chi in characters_at(r1, character_group(r1).conductors == r1)
    ]
    return sum(lhs) == sum(rhs) and len(lhs) == len(rhs)


# ---------------------------------------------------------------------------
# Farey spacing and the large sieve


def _large_sieve_moduli(r: int, D: int) -> list[int]:
    """The moduli r1 d with r1 | r, d <= D and (d, r) = 1, by r1 then d."""
    return [r1 * d for r1 in divisors(r) for d in range(1, D + 1) if math.gcd(d, r) == 1]


def farey_spacing_min(r: int, D: int) -> Fraction:
    """Exact minimum gap of {j/(d*r1) : r1 | r, d <= D, (d, r) = 1, (j, d*r1) = 1}.

    A point set of size < 2 has no pair; the gap is defined as 1 there.
    """
    if r < 1 or D < 1:
        raise ValueError("need r, D >= 1")
    if r * D * D > 10**6:
        raise ValueError("enumeration bound exceeded")
    # m = d * r1 names its (r1, d): d is the part of m prime to r. So the
    # reduced pairs (j, m) are distinct points, one run of j per m.
    dens = np.array(_large_sieve_moduli(r, D))
    m = np.repeat(dens, dens)
    j = np.arange(1, len(m) + 1) - np.repeat(np.cumsum(dens) - dens, dens)
    keep = np.gcd(j, m) == 1
    j, m = j[keep], m[keep]
    if len(j) < 2:
        return Fraction(1)
    # Distinct points with denominators <= r D differ by >= 1/(r D)^2 >= 1e-12,
    # far above one ulp, so the float order of j/m is the exact order.
    order = np.argsort(j / m)
    j, m = j[order], m[order]
    num = j[1:] * m[:-1] - j[:-1] * m[1:]  # gap = num / den, both <= (r D)^2 < 2**63
    den = m[:-1] * m[1:]
    gaps = num / den
    near = np.flatnonzero(gaps <= gaps.min() * (1 + 1e-9))  # float ties: settled exactly
    return min(Fraction(int(num[i]), int(den[i])) for i in near)


def _star_T_squares(m: int, coeffs: np.ndarray) -> float:
    """Sum over primitive nonprincipal chi mod m of |T(chi)|^2, T(chi) = sum_n a_n chi(n), n = 1, 2, ...

    The a_n are binned by n mod m and read on the units in enumeration
    order, the C-order grid of the generator orders; T of every character
    is then one FFT over that grid. The FFT pairs the exponent vector v
    with conj(chi_v), and the star set is closed under conjugation, so the
    sum over star_rows is the same.
    """
    grp = character_group(m)
    if not grp.star_rows.any():  # m = 1 and m = 2 (mod 4): no primitive nonprincipal character
        return 0.0
    res = np.arange(1, len(coeffs) + 1, dtype=np.int64) % m
    s = np.empty(m, dtype=np.complex128)
    s.real = np.bincount(res, weights=coeffs.real, minlength=m)
    s.imag = np.bincount(res, weights=coeffs.imag, minlength=m)
    s = s[grp.unit_values]
    orders = [g.order for g in grp.generators]
    T = np.fft.fftn(s.reshape(orders)).ravel()
    T = T[grp.star_rows]
    return float(np.sum(T.real**2 + T.imag**2))


def large_sieve_check(r: int, D: int, coeffs) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) for the weighted star-sum against (N + r D^2) * sum |a_n|^2."""
    if r < 1 or D < 1:
        raise ValueError("need r, D >= 1")
    a = np.asarray(coeffs, dtype=np.complex128)
    N = len(a)
    lhs = math.fsum(m / character_group(m).phi * _star_T_squares(m, a) for m in _large_sieve_moduli(r, D))
    rhs = (N + r * D * D) * float(np.sum(np.abs(a) ** 2))
    return lhs, rhs, (lhs / rhs if rhs > 0 else 0.0)


# ---------------------------------------------------------------------------
# exact orthogonality via cyclotomic reduction


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly, rem = _poly_divmod(poly, _cyclotomic(d))
        if any(rem):
            raise ArithmeticError("nonzero remainder in exact polynomial division")
    return tuple(poly)


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of integer polynomials, ascending, by a monic den."""
    num = num[:]
    n = len(den) - 1
    quot = [0] * max(len(num) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + n]
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return quot, num[:n]


def _root_of_unity_sum_is_zero(counts: np.ndarray, e: int) -> bool:
    """Exact test of sum_k counts[k] * zeta_e^k == 0 (integer counts)."""
    return not any(_poly_divmod([int(c) for c in counts], _cyclotomic(e))[1])


def orthogonality_check_exact(r: int, m: int, n: int) -> bool:
    """Exact check of sum over chi mod r of chi(m) * conj(chi(n)).

    The sum must be phi(r) when m = n mod r on units, and 0 otherwise.
    """
    grp = character_group(r)
    um, un = grp.index_of[m % r], grp.index_of[n % r]
    if um < 0 or un < 0:
        return True  # every term vanishes exactly
    e = grp.exponent
    K = grp.exponents(cols=[um, un])
    counts = np.bincount((K[:, 0] - K[:, 1]) % e, minlength=e)
    if (m - n) % r == 0:
        return counts[0] == grp.phi and not np.any(counts[1:])
    return _root_of_unity_sum_is_zero(counts, e)
