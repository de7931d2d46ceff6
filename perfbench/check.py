"""Output checker: every op's output against the reference recorded at the seed commit.

Rules, by field:
- integers, booleans, strings and lists of them must match exactly;
- floats must match within REL_TOL relative, the acceptance gate's oracle tolerance;
- certificates (rows with `exact_bound`): the exact bound may not fall below
  the recorded one by more than REL_TOL relative, and the float `lambda`,
  `basis` and `coefficients` describe the solver's trial function, so they
  are held to invariants instead of to the recording;
- fields that differed between the two recording seeds are seed-dependent
  and held to invariants only (see `_invariants`).
An op recorded as raising passes if it raises the same exception, exits 2
with a JSON error, or succeeds with output that meets the invariants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

REL_TOL = 1e-9
LAMBDA_TOL = 1e-5  # float quotient against its exact rational value
CERT_FREE = ("lambda", "basis", "coefficients")


@dataclass
class Outcome:
    """What one op did, as seen from outside the child process."""

    rc: int | None
    error: str | None
    stdout: str
    out_file: str | None = None
    stderr: str = ""

    def rows(self) -> list[dict]:
        text = self.out_file if self.out_file is not None else self.stdout
        return [json.loads(line) for line in text.splitlines() if line.strip()]


@dataclass
class Verdict:
    ok: bool  # exit 0 and every check passed
    failed: bool  # the outcome differs from the recorded one or a check failed
    problems: list[str] = field(default_factory=list)


def record(outcomes: list[Outcome]) -> dict:
    """Reference entry for one op from its outcomes at two different seeds."""
    first = outcomes[0]
    if first.error is not None:
        return {"rc": None, "error": first.error}
    rows = [o.rows() for o in outcomes]
    seed_dependent = sorted(
        {key for ra, rb in zip(rows[0], rows[1]) for key in ra if ra.get(key) != rb.get(key)}
    )
    return {"rc": first.rc, "error": None, "rows": rows[0], "seed_dependent": seed_dependent}


def check(outcome: Outcome, ref: dict, argv: list[str]) -> Verdict:
    if ref["error"] is not None:
        return _check_known_failure(outcome, ref, argv)
    if outcome.error is not None:
        return Verdict(False, True, [f"raised {outcome.error}; recorded exit {ref['rc']}"])
    if outcome.rc != ref["rc"]:
        return Verdict(False, True, [f"exit {outcome.rc}; recorded exit {ref['rc']}"])
    try:
        rows = outcome.rows()
    except json.JSONDecodeError as exc:
        return Verdict(False, True, [f"output is not JSON lines: {exc}"])
    problems = compare_rows(rows, ref["rows"], set(ref["seed_dependent"]))
    return Verdict(not problems and outcome.rc == 0, bool(problems), problems)


def _check_known_failure(outcome: Outcome, ref: dict, argv: list[str]) -> Verdict:
    if outcome.error == ref["error"]:
        return Verdict(False, False, [f"known failure: {outcome.error}"])
    if outcome.error is None and outcome.rc == 2 and _is_json_error(outcome.stderr):
        return Verdict(False, False, ["known failure, reported as a JSON error with exit 2"])
    if outcome.error is None and outcome.rc == 0:
        try:
            rows = outcome.rows()
        except json.JSONDecodeError as exc:
            return Verdict(False, True, [f"output is not JSON lines: {exc}"])
        problems = [] if rows else ["no output"]
        for row in rows:
            problems += _invariants(row, set(row))
            problems += _flag_args(row, argv)
        return Verdict(not problems, bool(problems), problems)
    got = outcome.error or f"exit {outcome.rc}"
    return Verdict(False, True, [f"{got}; recorded {ref['error']}"])


def _is_json_error(text: str) -> bool:
    lines = text.strip().splitlines()
    try:
        return bool(lines) and "error" in json.loads(lines[-1])
    except (json.JSONDecodeError, TypeError):
        return False


def _flag_args(row: dict, argv: list[str]) -> list[str]:
    """Integer flags of the command line that the row echoes back must match."""
    problems = []
    for i, arg in enumerate(argv[:-1]):
        key = arg.lstrip("-")
        if arg.startswith("--") and key in row and isinstance(row[key], int):
            if row[key] != int(argv[i + 1]):
                problems.append(f"{key} = {row[key]} but the command asked for {argv[i + 1]}")
    return problems


def compare_rows(rows: list[dict], ref_rows: list[dict], seed_dependent: set[str]) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} output rows; recorded {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        cert = "exact_bound" in ref
        for key, want in ref.items():
            if key not in row:
                problems.append(f"row {i}: field {key} missing")
            elif key in seed_dependent or (cert and key in CERT_FREE):
                continue
            elif cert and key == "exact_bound":
                got, rec = Fraction(row[key]), Fraction(want)
                if got < rec * (1 - Fraction(REL_TOL)):
                    problems.append(f"row {i}: exact_bound {float(got)!r} below recorded {float(rec)!r}")
            elif not same(row[key], want):
                problems.append(f"row {i}: {key} = {row[key]!r}; recorded {want!r}")
        problems += [f"row {i}: {p}" for p in _invariants(row, seed_dependent | (set(CERT_FREE) if cert else set()))]
    return problems


def same(got, want) -> bool:
    """Exact for everything but floats, which match within REL_TOL relative."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= REL_TOL * max(abs(want), abs(got)) or got == want
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def _invariants(row: dict, keys: set[str]) -> list[str]:
    """Checks that hold for any seed, on the fields not compared to the recording."""
    problems = []
    keys = keys & set(row)
    lam = row.get("lambda")
    if "exact_bound" in row and "lambda" in keys:
        exact = float(Fraction(row["exact_bound"]))
        if not exact > 0 or not abs(lam - exact) <= LAMBDA_TOL * exact:
            problems.append(f"lambda {lam!r} is not within {LAMBDA_TOL} of exact_bound {exact!r}")
    if "mc_ci" in keys and row.get("mc_ci") is not None:
        lo, hi = row["mc_ci"]
        if not lo <= lam <= hi:
            problems.append(f"Monte-Carlo interval [{lo!r}, {hi!r}] misses lambda {lam!r}")
    if "worst_rel_diff" in keys and not row["worst_rel_diff"] <= REL_TOL:
        problems.append(f"worst_rel_diff {row['worst_rel_diff']!r} above {REL_TOL}")
    if "counterexamples" in keys and row["counterexamples"] != []:
        problems.append(f"counterexamples {row['counterexamples']!r}")
    for flag in ("passed", "all_passed"):
        if flag in keys and row[flag] is not True:
            problems.append(f"{flag} is {row[flag]!r}")
    if "manifest_hash" in keys:
        h = row["manifest_hash"]
        if not (isinstance(h, str) and len(h) == 64 and all(c in "0123456789abcdef" for c in h)):
            problems.append(f"manifest_hash {h!r} is not a sha256 hex digest")
    return problems
