"""Named exact-identity checks behind the command line verifier.

Each check returns (name, passed, detail); the CLI turns any failure into a
nonzero exit with the failing identity named in the JSON payload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import characters as chars
from . import heath_brown as hb
from .arith import euler_phi, von_mangoldt_table
from .bv_sums import sandwich_check
from .characters import divisors


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def json_dict(self) -> dict:
        return asdict(self)


def check_phi_star_partition(max_r: int = 500) -> CheckResult:
    """Divisor sums of the primitive-character counts must recover phi(r)."""
    for r in range(1, max_r + 1):
        total = sum(chars.phi_star_by_enumeration(d) for d in divisors(r))
        if total != euler_phi(r):
            return CheckResult("phi-star-divisor-sum", False, f"failed at r = {r}: {total} != phi({r})")
    return CheckResult("phi-star-divisor-sum", True, f"all r <= {max_r}")


def check_conductor_partition(max_r: int = 200) -> CheckResult:
    """Nonprincipal characters partition by conductor, compared exactly as multisets of integer names."""
    for r in range(1, max_r + 1):
        if not chars.conductor_partition_check(r):
            return CheckResult("conductor-partition", False, f"failed at r = {r}")
    return CheckResult("conductor-partition", True, f"all r <= {max_r}")


def check_orthogonality(max_r: int = 100, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    for r in range(1, max_r + 1):
        for m, n in rng.integers(1, 3 * r + 2, size=(4, 2)).tolist():
            if not chars.orthogonality_check_exact(r, m, n):
                return CheckResult("orthogonality", False, f"failed at r = {r}, m = {m}, n = {n}")
    return CheckResult("orthogonality", True, f"all r <= {max_r}, 4 random pairs each")


def check_large_sieve(trials: int = 100, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        N = int(rng.integers(1, 2001))
        r = int(rng.integers(1, 51))
        D = int(rng.integers(1, 11))
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs, rhs, ratio = chars.large_sieve_check(r, D, a)
        if lhs > rhs * (1 + 1e-12):
            return CheckResult(
                "large-sieve", False, f"trial {i}: lhs {lhs:.6g} > rhs {rhs:.6g} at N={N}, r={r}, D={D}"
            )
        worst = max(worst, ratio)
    return CheckResult("large-sieve", True, f"{trials} trials, worst ratio {worst:.4f}")


def check_farey(max_r: int = 20, max_D: int = 10) -> CheckResult:
    for r in range(1, max_r + 1):
        for D in range(1, max_D + 1):
            gap = chars.farey_spacing_min(r, D)
            if gap < Fraction(1, r * D * D):
                return CheckResult("farey-spacing", False, f"gap {gap} < 1/(r D^2) at r={r}, D={D}")
    return CheckResult("farey-spacing", True, f"all r <= {max_r}, D <= {max_D}")


def check_hb_identity(x: int = 2000, ks=(1, 2, 3)) -> CheckResult:
    lam = von_mangoldt_table(x)
    for k in ks:
        table = hb.hb_lambda_table(x, k)
        err = float(np.max(np.abs(table[1:] - lam[1:])))
        if err > 1e-9:
            n = int(np.argmax(np.abs(table[1:] - lam[1:]))) + 1
            return CheckResult("hb-identity", False, f"k={k}: |expansion - Lambda| = {err:.2e} at n = {n}")
    return CheckResult("hb-identity", True, f"exact for n <= {x}, k in {tuple(ks)}")


def check_sandwich(trials: int = 200, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    for i in range(trials):
        x = float(rng.uniform(100.0, 1e6))
        r = int(rng.integers(1, 31))
        a = int(rng.integers(0, r)) if r > 1 else 0
        lam = float(rng.uniform(0.005, 1.0))
        ok, lower, psi, upper = sandwich_check(x, r, a, lam)
        if not ok:
            return CheckResult(
                "smoothed-sandwich", False, f"trial {i}: {lower:.6g} <= {psi:.6g} <= {upper:.6g} fails"
            )
    return CheckResult("smoothed-sandwich", True, f"{trials} random (x, r, a, lam) tuples")


def run_identity_suite(max_r: int = 200, seed: int = 0, sandwich_trials: int = 200) -> list[CheckResult]:
    return [
        check_phi_star_partition(max_r=max(max_r, 100)),
        check_conductor_partition(max_r=min(max_r, 200)),
        check_orthogonality(max_r=min(max_r, 100), seed=seed),
        check_large_sieve(seed=seed),
        check_farey(),
        check_hb_identity(),
        check_sandwich(trials=sandwich_trials, seed=seed),
    ]
