"""End-to-end gap-bound pipeline for primes in one progression.

Given x, q = x^theta, residue a and a target count t, the chain is: validate
the (theta, radical) constraints, evaluate the level of distribution
L(theta), pick the least tabulated k whose certified variational bound
exceeds (2t - 2)/(L + eps/2), build an admissible k-tuple, and report the
resulting bound q * exp(2t/L) next to the tuple's actual scaled diameter.
A separate scan finds the tightest real constellation of t primes of the
class in (x/2, x].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import class_segments, least_root, primes_in_range, radical, rho_radical, trial_divide
from .variational import VariationalCertificate, min_k_for

THETA_MAX = Fraction(5, 12)
BRANCH_POINT = Fraction(2, 5)
# validate_config decides radical(q) <= (log x)^C by trial division up to
# min((log x)^C, RADICAL_TRIAL_CAP). A cofactor >= 2**64 left by it has every
# prime factor above that bound, which decides wherever the primes divided out
# times the bound reach (log x)^C, as they always do below the cap. Else the
# cofactor is replaced by its least root; one >= 2**64 is a prime above
# bound**2 or has two prime factors above the bound, which decides wherever the
# primes divided out times bound**2 reach (log x)^C. Only where that does not
# decide does Brent rho get RADICAL_RHO_STEPS squarings per split, and where it
# splits none, the question is reported open, never guessed.
RADICAL_TRIAL_CAP = 10**6
RADICAL_RHO_STEPS = 1 << 20
# constellation_search's desk bound on x, and on q (a larger q leaves at most
# one member of its class below x); gap searches only up to it
CONSTELLATION_MAX_X = 10**8


def level_L_exact(theta: Fraction, eps: Fraction = Fraction(0)) -> Fraction:
    """Piecewise level of distribution, exact; eps = 0 gives the limit value."""
    theta = Fraction(theta)
    eps = Fraction(eps)
    if not 0 < theta <= THETA_MAX:
        raise ValueError("need 0 < theta <= 5/12")
    if eps < 0 or eps >= Fraction(1, 20):
        raise ValueError("need 0 <= eps < 1/20")
    if theta < BRANCH_POINT - eps:
        return Fraction(1, 2) - theta - eps
    return Fraction(9, 20) - theta - eps


def abstract_B_consistency(theta) -> bool:
    """Exact identity 2 / (9/20 - theta) = 40 / (9 - 20 theta) on [2/5, 9/20)."""
    th = Fraction(theta)
    if not BRANCH_POINT <= th < Fraction(9, 20):
        raise ValueError("need 2/5 <= theta < 9/20")
    return 2 / (Fraction(9, 20) - th) == Fraction(40) / (9 - 20 * th)


def exponent_rate_exact(theta) -> Fraction:
    """2 / L(theta) in the eps -> 0 limit, as an exact rational."""
    return 2 / level_L_exact(Fraction(theta))


def D0(x: float) -> float:
    """loglog(x/2) / logloglog(x/2); domain-guarded to keep the value meaningful."""
    if x <= 2:
        raise ValueError("need x > 2")
    ll = math.log(math.log(x / 2))
    if not (ll > 1 and math.log(ll) > 1):
        raise ValueError("x below the domain guard: logloglog(x/2) must exceed 1")
    return ll / math.log(ll)


@dataclass(frozen=True)
class GapConfig:
    x: float
    q: int
    a: int
    t: int
    eta: float = 0.01
    C: float = 2.0
    eps: float = 1e-3

    @property
    def theta(self) -> float:
        return math.log(self.q) / math.log(self.x)


def validate_config(cfg: GapConfig) -> list[str]:
    """Every failed constraint is reported separately; empty list means valid."""
    errors: list[str] = []
    if not math.isfinite(cfg.x):
        errors.append("need finite x")
        return errors
    if cfg.x <= math.e:
        errors.append("x too small: need log x > 1")
        return errors
    if cfg.q < 1:
        errors.append("q must be >= 1")
        return errors
    if math.gcd(cfg.a, cfg.q) != 1:
        errors.append(f"gcd(a, q) = {math.gcd(cfg.a, cfg.q)} != 1")
    if cfg.t < 1:
        errors.append("t must be >= 1")
    finite = {name: math.isfinite(getattr(cfg, name)) for name in ("eps", "eta", "C")}
    errors += [f"need finite {name}" for name, ok in finite.items() if not ok]
    if finite["eps"] and not 0 < cfg.eps < Fraction(1, 20):
        errors.append("need 0 < eps < 1/20")
    theta = cfg.theta
    if theta <= 0:
        errors.append("need theta > 0: q = 1 gives theta = 0")
    if finite["eta"] and cfg.eta < 0:
        errors.append(f"need eta >= 0, got {cfg.eta}")
    if finite["eta"] and theta > 5 / 12 - cfg.eta:
        errors.append(f"theta = {theta:.6f} exceeds 5/12 - eta = {5 / 12 - cfg.eta:.6f}")
    if finite["C"]:
        try:
            rad_cap = math.log(cfg.x) ** cfg.C
        except OverflowError:  # above the float range, so above every radical
            rad_cap = math.inf
        if cfg.q > rad_cap:  # else radical(q) <= q fits
            errors += _radical_errors(cfg.q, rad_cap)
    return errors


@lru_cache(maxsize=8)
def _radical_errors(q: int, rad_cap: float) -> tuple[str, ...]:
    """The error, if any, of radical(q) <= rad_cap, found within a bounded time.

    Cached, so that validating a config again (as gap_bound does after the
    CLI has) does not repeat the trial division and rho.
    """
    bound = min(int(rad_cap), RADICAL_TRIAL_CAP)
    rad, m = trial_divide(q, bound)
    if m >= 2**64:
        if rad * (bound + 1) > rad_cap:  # always so below the cap
            # m > bound**2, so division ran to the bound: every prime factor of m is above it
            above = "it" if bound + 1 > rad_cap else f"{bound}, so radical(q) > {rad} * {bound}"
            return (f"radical(q) exceeds (log x)^C = {rad_cap:.6g}: q has a prime factor above {above}",)
        m = least_root(m, bound)
    if m < 2**64:
        rad *= radical(m)
    elif rad * bound**2 >= rad_cap:
        return (
            f"radical(q) exceeds (log x)^C = {rad_cap:.6g}: q has a factor above 2**64 with no prime factor "
            f"up to {bound}, not a perfect power, so radical(q) > {rad} * {bound}**2",
        )
    elif (rad_m := rho_radical(m, RADICAL_RHO_STEPS)) is None:
        return (
            f"radical(q) <= (log x)^C = {rad_cap:.6g} is undecided: q has a factor above 2**64 with "
            f"no prime factor up to {bound} that rho did not split in {RADICAL_RHO_STEPS} steps",
        )
    else:
        rad *= rad_m
    return (f"radical(q) = {rad} exceeds (log x)^C = {rad_cap:.6g}",) if rad > rad_cap else ()


# ---------------------------------------------------------------------------
# admissible tuples


@dataclass(frozen=True)
class AdmissibleTuple:
    """Sorted shifts starting at 0 plus a per-prime avoided-residue certificate.

    Only primes p <= k need a certificate; for p > k the k occupied classes
    cannot cover all p of them.
    """

    shifts: tuple[int, ...]
    certificate: dict[int, int] = field(hash=False)

    @property
    def k(self) -> int:
        return len(self.shifts)

    @property
    def diameter(self) -> int:
        return self.shifts[-1] - self.shifts[0] if self.shifts else 0


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    certificate: dict[int, int] | None
    violating_prime: int | None


def is_admissible(shifts) -> AdmissibilityResult:
    """Exhaustive residue check over primes p <= k."""
    shifts = tuple(shifts)
    if len(set(shifts)) != len(shifts) or list(shifts) != sorted(shifts):
        raise ValueError("shifts must be distinct and sorted")
    k = len(shifts)
    cert: dict[int, int] = {}
    for p in primes_in_range(1, max(k, 1)).tolist():
        hit = {h % p for h in shifts}
        if len(hit) == p:
            return AdmissibilityResult(False, None, int(p))
        cert[int(p)] = min(r for r in range(p) if r not in hit)
    return AdmissibilityResult(True, cert, None)


def admissible_primes_past_k(k: int) -> AdmissibleTuple:
    """First k primes exceeding k, shifted to start at 0.

    No prime p <= k divides any chosen prime, so the class of -p_min mod p
    is avoided by every shift; diameter grows like k log k. The certificate
    is is_admissible's: the least avoided residue for each p <= k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    lo, hi = k, max(2 * k, 16)
    ps: list[int] = []
    while len(ps) < k:
        ps = primes_in_range(lo, hi).tolist()
        hi *= 2
    shifts = tuple(p - ps[0] for p in ps[:k])
    check = is_admissible(shifts)
    if not check.admissible:
        raise AssertionError(f"construction produced an inadmissible tuple at p = {check.violating_prime}")
    return AdmissibleTuple(shifts, check.certificate)


# ---------------------------------------------------------------------------
# bound assembly and constellation search


@dataclass(frozen=True)
class GapBoundReport:
    k: int
    L: float
    bound: float  # q * exp(2 t / L)
    tuple_diameter: int
    scaled_diameter: int  # q * (h'_k - h'_1)
    certificate: VariationalCertificate  # the one that selected k
    threshold: float
    fits_D0: bool  # the tuple's largest shift is below D0(x); False where D0's domain guard fails


def gap_bound(cfg: GapConfig, table: list[VariationalCertificate]) -> GapBoundReport:
    """Select k, build the tuple, and report the bound q * exp(2t/L).

    Whether real constellations beat the bound is reported elsewhere and
    never asserted: the statement is asymptotic and desk-scale x need not
    qualify as large.
    """
    errors = validate_config(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    L_exact = level_L_exact(Fraction(cfg.theta), Fraction(cfg.eps))
    L_select = L_exact + Fraction(cfg.eps) / 2
    k, cert = min_k_for(cfg.t, L_select, table)
    tup = admissible_primes_past_k(k)
    try:
        fits = bool(tup.shifts[-1] < D0(cfg.x))
    except ValueError:
        fits = False
    L = float(L_exact)
    return GapBoundReport(
        k=k,
        L=L,
        bound=cfg.q * math.exp(2 * cfg.t / L),
        tuple_diameter=tup.diameter,
        scaled_diameter=cfg.q * tup.diameter,
        certificate=cert,
        threshold=float((2 * cfg.t - 2) / L_select),
        fits_D0=fits,
    )


@dataclass(frozen=True)
class ConstellationResult:
    found: bool
    count: int  # primes of the class in (x/2, x]
    gap: int | None
    primes: tuple[int, ...]

    def json_dict(self) -> dict:
        return asdict(self)


def constellation_search(x: float, q: int, a: int, t: int) -> ConstellationResult:
    """Minimal window of t consecutive primes = a (mod q) in (x/2, x].

    The class is streamed one sieve segment at a time. The last t - 1 primes
    of each segment are carried into the next, so every window is seen once,
    and a strict < across segments keeps the first minimal window.
    """
    if not math.isfinite(x):
        raise ValueError("need finite x")
    if x > CONSTELLATION_MAX_X:
        raise ValueError(f"desk bound is x <= {CONSTELLATION_MAX_X:g}")
    if t < 1:
        raise ValueError("need t >= 1")
    if q < 1:
        raise ValueError("need q >= 1")
    if q > CONSTELLATION_MAX_X:
        raise ValueError(f"desk bound is q <= {CONSTELLATION_MAX_X:g}")
    if math.gcd(a, q) != 1:
        raise ValueError("need gcd(a, q) = 1")
    lo, hi = int(math.floor(x / 2)), int(math.floor(x))
    if not 0 <= lo < hi:
        raise ValueError("need x >= 1")
    count, gap, window = 0, None, ()
    carry = np.empty(0, dtype=np.int64)
    for segment in class_segments(lo, hi, q, a % q):
        count += len(segment)
        ps = np.concatenate((carry, segment))
        if len(ps) >= t:
            widths = ps[t - 1 :] - ps[: len(ps) - t + 1]
            i = int(np.argmin(widths))  # the first minimal window ending in this segment
            if gap is None or widths[i] < gap:
                gap, window = int(widths[i]), tuple(int(p) for p in ps[i : i + t])
        carry = ps[max(len(ps) - (t - 1), 0) :]
    return ConstellationResult(gap is not None, count, gap, window)
