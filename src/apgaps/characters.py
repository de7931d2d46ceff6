"""Dirichlet characters via the unit-group structure of Z/rZ.

A character is an exponent vector on a fixed generator set of (Z/rZ)*,
obtained by CRT over the prime-power factors of r. Values are exact roots
of unity, stored as an integer exponent k with chi(n) = zeta_e^k for the
common order e; complex rendering happens on demand, so identity checks can
stay in exact integer arithmetic.

Summation conventions: phi_star counts all primitive characters (the
constant function mod 1 included), while star-restricted sums run over
primitive nonprincipal characters only. Both conventions funnel through
in_star_sum / is_principal so the bookkeeping lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import euler_phi, factorize, mobius, prime_power_arrays

__all__ = [
    "CharacterGroup",
    "Character",
    "character_group",
    "enumerate_characters",
    "conductor",
    "primitivize",
    "conductor_split",
    "phi_star",
    "phi_star_by_enumeration",
    "in_star_sum",
    "conductor_partition_check",
    "psi_chi",
    "induced_psi_gap",
    "dirichlet_T",
    "exp_sum_S",
    "farey_spacing_min",
    "large_sieve_check",
    "mult_to_additive_check",
    "orthogonality_check_exact",
    "divisors",
]


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
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
    p: int
    pe: int  # the prime power p**e this generator belongs to
    kind: str  # "odd" | "two4" | "minus" | "five"


def _local_generators(p: int, e: int) -> list[tuple[int, int, str]]:
    """Generators of (Z/p^e Z)* as (value mod p^e, order, kind)."""
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2, "two4")]
        return [(2**e - 1, 2, "minus"), (5, 2 ** (e - 2), "five")]
    g = _primitive_root(p)
    pe = p**e
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % pe, (p - 1) * p ** (e - 1), "odd")]


class CharacterGroup:
    """Unit group structure mod r with deterministic generator choice."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("modulus must be >= 1")
        self.r = r
        gens: list[_Gen] = []
        for p, e in factorize(r).factors:
            pe = p**e
            cof = r // pe
            for val, order, kind in _local_generators(p, e):
                if cof > 1:
                    # CRT lift: = val mod p^e, = 1 mod r/p^e
                    inv = pow(pe, -1, cof)
                    lifted = (val + pe * ((1 - val) * inv % cof)) % r
                else:
                    lifted = val % r
                gens.append(_Gen(lifted, order, p, pe, kind))
        self.generators = tuple(gens)
        self.exponent = math.lcm(*(g.order for g in gens)) if gens else 1
        self.phi = euler_phi(r)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit_values, coords, index_of) in mixed-radix enumeration order."""
        r = self.r
        vals = np.array([1 % r], dtype=np.int64)
        coords = np.zeros((1, 0), dtype=np.int64)
        for g in self.generators:
            pows = np.empty(g.order, dtype=np.int64)
            pows[0] = 1
            for i in range(1, g.order):
                pows[i] = pows[i - 1] * g.value % r
            vals = (vals[:, None] * pows[None, :] % r).ravel()
            reps = np.repeat(coords, g.order, axis=0)
            newcol = np.tile(np.arange(g.order, dtype=np.int64), coords.shape[0])
            coords = np.column_stack([reps, newcol]) if coords.shape[1] else newcol[:, None]
        if not self.generators:
            coords = np.zeros((1, 0), dtype=np.int64)
        index_of = np.full(max(r, 1), -1, dtype=np.int64)
        index_of[vals] = np.arange(len(vals))
        return vals, coords, index_of

    @property
    def unit_values(self) -> np.ndarray:
        return self._tables[0]

    @property
    def coords(self) -> np.ndarray:
        return self._tables[1]

    @property
    def index_of(self) -> np.ndarray:
        return self._tables[2]

    @cached_property
    def zeta_powers(self) -> np.ndarray:
        e = self.exponent
        return np.exp(2j * np.pi * np.arange(e) / e)

    def coords_of(self, n: int) -> tuple[int, ...] | None:
        idx = int(self.index_of[n % self.r]) if self.r > 1 else 0
        if idx < 0:
            return None
        return tuple(int(c) for c in self.coords[idx])

    def character(self, exponents) -> "Character":
        ex = tuple(int(a) % g.order for a, g in zip(exponents, self.generators))
        if len(ex) != len(self.generators):
            raise ValueError("exponent vector length mismatch")
        return Character(self, ex)

    def characters(self) -> list["Character"]:
        out = [Character(self, ())] if not self.generators else []
        if self.generators:
            shape = [g.order for g in self.generators]
            idx = [0] * len(shape)
            while True:
                out.append(Character(self, tuple(idx)))
                j = len(shape) - 1
                while j >= 0:
                    idx[j] += 1
                    if idx[j] < shape[j]:
                        break
                    idx[j] = 0
                    j -= 1
                if j < 0:
                    break
        return out

    def __repr__(self):
        return f"CharacterGroup(r={self.r}, phi={self.phi})"


@lru_cache(maxsize=4096)
def character_group(r: int) -> CharacterGroup:
    return CharacterGroup(r)


def enumerate_characters(r: int) -> list["Character"]:
    return character_group(r).characters()


def _v(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class Character:
    group: CharacterGroup
    exponents: tuple[int, ...]

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group.r == other.group.r
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.group.r, self.exponents))

    @property
    def modulus(self) -> int:
        return self.group.r

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @cached_property
    def conductor(self) -> int:
        """Smallest modulus f | r through which the character factors."""
        f = 1
        by_pe: dict[int, list[tuple[_Gen, int]]] = {}
        for g, a in zip(self.group.generators, self.exponents):
            by_pe.setdefault(g.pe, []).append((g, a))
        for items in by_pe.values():
            kind = items[0][0].kind
            if kind == "odd":
                g, a = items[0]
                d = g.order // math.gcd(g.order, a)
                f *= 1 if d == 1 else g.p ** (1 + _v(d, g.p))
            elif kind == "two4":
                _, a = items[0]
                f *= 4 if a % 2 == 1 else 1
            else:
                # 2^e with e >= 3: components on -1 (order 2) and 5 (order 2^(e-2))
                a_minus = next(a for g, a in items if g.kind == "minus")
                g5, a5 = next((g, a) for g, a in items if g.kind == "five")
                d5 = g5.order // math.gcd(g5.order, a5)
                if d5 > 1:
                    f *= 2 ** (_v(d5, 2) + 2)
                elif a_minus % 2 == 1:
                    f *= 4
        return f

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.group.r

    def value_exponent(self, n: int) -> int | None:
        """k with chi(n) = zeta_e^k, or None when gcd(n, r) > 1."""
        c = self.group.coords_of(n)
        if c is None:
            return None
        e = self.group.exponent
        return sum(a * (e // g.order) * ci for a, g, ci in zip(self.exponents, self.group.generators, c)) % e

    def __call__(self, n: int) -> complex:
        k = self.value_exponent(n)
        if k is None:
            return 0j
        return complex(self.group.zeta_powers[k])

    @cached_property
    def values_vector(self) -> np.ndarray:
        """chi(n) for n = 0..r-1 as a complex vector (zero off the units)."""
        grp = self.group
        e = grp.exponent
        w = np.array([a * (e // g.order) % e for a, g in zip(self.exponents, grp.generators)], dtype=np.int64)
        k = (grp.coords @ w) % e if len(w) else np.zeros(len(grp.unit_values), dtype=np.int64)
        vec = np.zeros(max(grp.r, 1), dtype=np.complex128)
        vec[grp.unit_values] = grp.zeta_powers[k]
        return vec

    def __repr__(self):
        return f"Character(r={self.group.r}, exponents={self.exponents})"


def conductor(chi: Character) -> int:
    return chi.conductor


def primitivize(chi: Character) -> Character:
    """The primitive character mod conductor(chi) inducing chi."""
    f = chi.conductor
    grp_f = character_group(f)
    r = chi.group.r
    e_r = chi.group.exponent
    exps = []
    for g in grp_f.generators:
        n = g.value
        while math.gcd(n, r) != 1:
            n += f
        k = chi.value_exponent(n)
        assert k is not None
        num = k * g.order
        if num % e_r != 0:
            raise ArithmeticError("conductor computation inconsistent with values")
        exps.append((num // e_r) % g.order)
    return grp_f.character(tuple(exps))


def conductor_split(chi: Character, q: int, d: int) -> tuple[int, int]:
    """Split conductor(chi) = q1 * d1 with q1 | q, d1 | d for modulus q*d, gcd(q, d) = 1."""
    if math.gcd(q, d) != 1:
        raise ValueError("q and d must be coprime")
    if chi.group.r != q * d:
        raise ValueError("character modulus must equal q*d")
    f = chi.conductor
    q1 = 1
    for p, _ in factorize(q).factors:
        q1 *= p ** _v(f, p)
    d1 = f // q1
    return q1, d1


@lru_cache(maxsize=None)
def phi_star(r: int) -> int:
    """Number of primitive characters mod r (the constant function counts at r = 1)."""
    return sum(mobius(r // d) * euler_phi(d) for d in divisors(r))


def phi_star_by_enumeration(r: int) -> int:
    return sum(1 for chi in enumerate_characters(r) if chi.is_primitive)


def in_star_sum(chi: Character) -> bool:
    """Membership in star-restricted sums: primitive and nonprincipal."""
    return chi.is_primitive and not chi.is_principal


def conductor_partition_check(r: int, F) -> bool:
    """Exact partition of nonprincipal characters mod r by conductor.

    Both sides are enumerated independently: the left primitivizes every
    nonprincipal character mod r, the right walks primitive nonprincipal
    characters of each divisor modulus.
    """
    lhs = [F(primitivize(chi)) for chi in enumerate_characters(r) if not chi.is_principal]
    rhs = [
        F(chi1)
        for r1 in divisors(r)
        for chi1 in enumerate_characters(r1)
        if in_star_sum(chi1)
    ]
    return sum(lhs) == sum(rhs) and len(lhs) == len(rhs)


# ---------------------------------------------------------------------------
# weighted character sums


def psi_chi(x: float, chi: Character) -> complex:
    """Sum of Lambda(n) * chi(n) over n <= x, fsum per component."""
    if x < 1:
        raise ValueError("need x >= 1")
    P, W = prime_power_arrays(int(math.floor(x)))
    if len(P) == 0:
        return 0j
    vals = chi.values_vector[P % max(chi.group.r, 1)]
    return complex(math.fsum(W * vals.real), math.fsum(W * vals.imag))


def induced_psi_gap(x: float, chi: Character) -> float:
    """| |psi(x, chi)| - |psi(x, chi_hat)| | for the inducing primitive chi_hat."""
    return abs(abs(psi_chi(x, chi)) - abs(psi_chi(x, primitivize(chi))))


def dirichlet_T(coeffs, chi: Character) -> complex:
    """T(chi) = sum_{n=1..N} a_n chi(n)."""
    a = np.asarray(coeffs, dtype=np.complex128)
    n = np.arange(1, len(a) + 1, dtype=np.int64)
    vals = chi.values_vector[n % max(chi.group.r, 1)]
    return complex(np.sum(a * vals))


def exp_sum_S(coeffs, x: float) -> complex:
    """S(x) = sum_{n=1..N} a_n e(n x) with e(z) = exp(2 pi i z)."""
    a = np.asarray(coeffs, dtype=np.complex128)
    n = np.arange(1, len(a) + 1, dtype=np.float64)
    return complex(np.sum(a * np.exp(2j * np.pi * n * x)))


# ---------------------------------------------------------------------------
# Farey spacing and the large sieve


def farey_spacing_min(r: int, D: int) -> Fraction:
    """Exact minimum gap of {j/(d*r1) : r1 | r, d <= D, (d, r) = 1, (j, d*r1) = 1}.

    A point set of size < 2 has no pair; the gap is defined as 1 there.
    """
    if r < 1 or D < 1:
        raise ValueError("need r, D >= 1")
    if r * D * D > 10**6:
        raise ValueError("enumeration bound exceeded")
    pts: set[tuple[int, int]] = set()  # reduced (j, m), so equal points coincide
    for r1 in divisors(r):
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1:
                continue
            m = d * r1
            for j in range(1, m + 1):
                if math.gcd(j, m) == 1:
                    pts.add((j, m))
    if len(pts) < 2:
        return Fraction(1)
    # Distinct points with denominators <= r D differ by >= 1/(r D)^2 >= 1e-12,
    # far above one ulp, so the float order of j/m is the exact order.
    ordered = sorted(pts, key=lambda p: p[0] / p[1])
    return min(Fraction(j2 * m1 - j1 * m2, m1 * m2) for (j1, m1), (j2, m2) in zip(ordered, ordered[1:]))


@lru_cache(maxsize=512)
def _char_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(char x unit value matrix, star mask) for modulus m, enumeration order."""
    grp = character_group(m)
    chars = grp.characters()
    e = grp.exponent
    ew = np.array(
        [[a * (e // g.order) % e for a, g in zip(chi.exponents, grp.generators)] for chi in chars],
        dtype=np.int64,
    ).reshape(len(chars), len(grp.generators))
    K = ew @ grp.coords.T % e if ew.size else np.zeros((len(chars), len(grp.unit_values)), dtype=np.int64)
    M = grp.zeta_powers[K]
    star = np.array([in_star_sum(chi) for chi in chars], dtype=bool)
    return M, star


def _star_T_squares(m: int, coeffs: np.ndarray) -> float:
    """Sum over primitive nonprincipal chi mod m of |T(chi)|^2."""
    grp = character_group(m)
    buf = np.zeros(m, dtype=np.complex128)
    n = np.arange(1, len(coeffs) + 1, dtype=np.int64)
    np.add.at(buf, n % m, coeffs)
    s_units = buf[grp.unit_values]
    M, star = _char_matrix(m)
    T = M @ s_units
    return float(np.sum(np.abs(T[star]) ** 2))


def large_sieve_check(r: int, D: int, coeffs) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) for the weighted star-sum against (N + r D^2) * sum |a_n|^2."""
    a = np.asarray(coeffs, dtype=np.complex128)
    N = len(a)
    terms = []
    for r1 in divisors(r):
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1:
                continue
            m = r1 * d
            terms.append(m / euler_phi(m) * _star_T_squares(m, a))
    lhs = math.fsum(terms)
    rhs = (N + r * D * D) * float(np.sum(np.abs(a) ** 2))
    return lhs, rhs, (lhs / rhs if rhs > 0 else 0.0)


def mult_to_additive_check(m: int, coeffs) -> tuple[float, float]:
    """Per-modulus comparison of the weighted star sum with additive samples.

    Returns (m/phi(m) * sum_star |T|^2, sum over reduced j of |S(j/m)|^2).
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    lhs = m / euler_phi(m) * _star_T_squares(m, a)
    rhs = math.fsum(
        abs(exp_sum_S(a, j / m)) ** 2 for j in range(1, m + 1) if math.gcd(j, m) == 1
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# exact orthogonality via cyclotomic reduction


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d == n:
            continue
        poly = _poly_div_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


def _root_of_unity_sum_is_zero(counts: np.ndarray, e: int) -> bool:
    """Exact test of sum_k counts[k] * zeta_e^k == 0 (integer counts)."""
    poly = [int(c) for c in counts]
    den = list(_cyclotomic(e))
    # long division remainder by the monic minimal polynomial
    for i in range(len(poly) - 1, len(den) - 2, -1):
        c = poly[i]
        if c:
            for j, dj in enumerate(den):
                poly[i - len(den) + 1 + j] -= c * dj
    return not any(poly[: len(den) - 1])


def orthogonality_check_exact(r: int, m: int, n: int) -> bool:
    """Exact check of sum over chi mod r of chi(m) * conj(chi(n)).

    The sum must be phi(r) when m = n mod r on units, and 0 otherwise.
    """
    grp = character_group(r)
    cm, cn = grp.coords_of(m), grp.coords_of(n)
    if cm is None or cn is None:
        return True  # every term vanishes exactly
    e = grp.exponent
    chars = grp.characters()
    counts = np.zeros(e, dtype=np.int64)
    for chi in chars:
        km = chi.value_exponent(m)
        kn = chi.value_exponent(n)
        counts[(km - kn) % e] += 1
    if (m - n) % r == 0:
        return counts[0] == grp.phi and not np.any(counts[1:])
    return _root_of_unity_sum_is_zero(counts, e)
