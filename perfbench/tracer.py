"""Span tracing for the traced benchmark run, installed from outside apgaps.

`install` replaces each public function named in TARGETS, in its defining
module and in every apgaps module that imported it by name, with a wrapper
that records a span: name, start, end, parent and the exception it raised,
if any. Spans stay in memory until the operation ends. Counters are derived
from arguments and return values only; byte counts are computed from array
sizes, not measured. Per-element helpers (euler_phi, factorize, mobius, the
per-modulus psi_residue_sums) are never wrapped: their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = "cli.main"
MIB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    error: str | None = None
    counters: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end, self.error, self.counters]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans for one process; each thread keeps its own stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            # A span opened on a worker thread with nothing above it hangs
            # off the root, so every span belongs to one tree.
            parent = stack[-1].id if stack else (0 if self.spans else None)
            span = Span(len(self.spans), name, parent, math.nan)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack().pop()

    def wrap(self, fn, name: str, count=None):
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            else:
                self.close(span)
            finally:
                # Counters come after the span has closed; on a raise they get
                # result None and count what the arguments alone tell.
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counters = count(bound.arguments, result)
            return result

        return traced

    def finish(self) -> list[list]:
        """Resolve deferred counters (callables) and return the spans as JSON rows."""
        for span in self.spans:
            for key, value in span.counters.items():
                if callable(value):
                    span.counters[key] = value()
        return [s.to_json() for s in self.spans]


# ---------------------------------------------------------------------------
# what is wrapped, and the per-layer metric each span's self time feeds


def _sieve(a, ps):
    if ps is None:
        return {}
    return {"span": max(int(a["hi"]) - int(a["lo"]), 0), "bytes": int(ps.nbytes)}


def _prime_powers(a, PW):
    if PW is None:
        return {}
    P, W = PW
    return {"prime_powers": int(len(P)), "bytes": int(P.nbytes + W.nbytes)}


def _moduli(a, rep):
    if rep is None:
        return {}
    return {"moduli": int(rep.term_count), "threads": int(a.get("threads", 1))}


def _gram(a, res):
    n = len(a["basis"])
    return {"basis_size": n, "entries": n * (n + 1) // 2}


def _rayleigh(a, res):
    import numpy as np

    A = a["A"]
    return {"cond_A": lambda: float(np.linalg.cond(A))}


def _certificate(a, cert):
    if cert is None:
        return {}
    return {"float_over_exact": float(cert.lower_bound - cert.exact_bound)}


def _mc(a, res):
    return {"samples": int(a["sample_count"])}


def _constellation(a, res):
    if res is None:
        return {}
    return {"primes": int(res.count)}


def _components(a, res):
    if res is None:
        return {}
    return {"components": len(res[1])}


def _grid(a, res):
    from apgaps import comb_lemmas

    den = int(a["max_denominator"])
    return {
        "tuples": lambda: sum(
            1 for d in range(1, den + 1) for _ in comb_lemmas.partitions_of(d, comb_lemmas.N_PARTS)
        )
    }


def _random(a, res):
    if res is None:
        return {}
    return {"tuples": int(res[0])}


# (module, function, metric fed by the span's self time, counters)
TARGETS = (
    ("arith", "primes_in_range", "arith.sieve_s", _sieve),
    ("arith", "prime_power_arrays", "arith.sieve_s", _prime_powers),
    ("arith", "primes_in_ap", "arith.sieve_s", None),
    ("arith", "von_mangoldt_table", "arith.sieve_s", None),
    ("arith", "mobius_table", "arith.sieve_s", None),
    ("bv_sums", "compute_E_b", "bv_sums.E_b_s", _moduli),
    ("bv_sums", "bdh_variance", "bv_sums.bdh_s", _moduli),
    ("bv_sums", "maynard_condition_sums", "bv_sums.maycond_s", _moduli),
    ("variational", "gram_I", "variational.gram_s", _gram),
    ("variational", "gram_J", "variational.gram_s", _gram),
    ("variational", "max_rayleigh", "variational.eig_s", _rayleigh),
    ("variational", "mk_lower_bound", "variational.cert_self_s", _certificate),
    ("variational", "verify_certificate", "variational.mc_s", _mc),
    ("gaps", "constellation_search", "gaps.constellation_s", _constellation),
    ("gaps", "gap_bound", "gaps.gap_bound_s", None),
    ("checks", "check_phi_star_partition", "checks.phi_star_s", None),
    ("checks", "check_conductor_partition", "checks.conductor_partition_s", None),
    ("checks", "check_orthogonality", "checks.orthogonality_s", None),
    ("checks", "check_large_sieve", "checks.large_sieve_s", None),
    ("checks", "check_farey", "checks.farey_s", None),
    ("checks", "check_hb_identity", "checks.hb_identity_s", None),
    ("checks", "check_sandwich", "checks.sandwich_s", None),
    ("characters", "phi_star_by_enumeration", "characters.s", None),
    ("characters", "conductor_partition_check", "characters.s", None),
    ("characters", "orthogonality_check_exact", "characters.s", None),
    ("characters", "large_sieve_check", "characters.s", None),
    ("characters", "farey_spacing_min", "characters.s", None),
    ("heath_brown", "hb_decompose_sum_multi", "heath_brown.decompose_s", _components),
    ("heath_brown", "direct_lambda_sum", "heath_brown.direct_s", None),
    ("comb_lemmas", "verify_trichotomy", "comb_lemmas.grid_s", _grid),
    ("comb_lemmas", "verify_comblem", "comb_lemmas.grid_s", _grid),
    ("comb_lemmas", "random_trichotomy_sweep", "comb_lemmas.random_s", _random),
    ("comb_lemmas", "random_comblem_sweep", "comb_lemmas.random_s", _random),
)

SELF_METRIC = {f"{mod}.{fn}": metric for mod, fn, metric, _ in TARGETS}
SELF_METRIC[ROOT] = "cli.self_s"


def install(tracer: Tracer) -> None:
    """Wrap every target, including the copies other modules imported by name."""
    for mod in {m for m, _, _, _ in TARGETS}:
        importlib.import_module(f"apgaps.{mod}")
    modules = [m for name, m in list(sys.modules.items()) if name == "apgaps" or name.startswith("apgaps.")]
    for mod, fn_name, _, count in TARGETS:
        original = getattr(sys.modules[f"apgaps.{mod}"], fn_name)
        traced = tracer.wrap(original, f"{mod}.{fn_name}", count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


PER_LAYER_UNITS = {
    "arith.sieve_s": "s",
    "arith.sieve_calls": "count",
    "arith.sieve_span": "count",
    "arith.prime_powers": "count",
    "arith.array_mb": "MiB",
    "bv_sums.bdh_s": "s",
    "bv_sums.E_b_s": "s",
    "bv_sums.maycond_s": "s",
    "bv_sums.moduli": "count",
    "bv_sums.us_per_modulus": "us",
    "bv_sums.scan_mb": "MiB",
    "bv_sums.thread_speedup": "ratio",
    "variational.gram_s": "s",
    "variational.gram_entries": "count",
    "variational.basis_size_max": "count",
    "variational.eig_s": "s",
    "variational.rayleigh_failures": "count",
    "variational.cert_self_s": "s",
    "variational.mc_s": "s",
    "variational.mc_samples": "count",
    "variational.mc_us_per_sample": "us",
    "variational.cond_A_max": "ratio",
    "variational.float_over_exact_max": "1",
    "gaps.constellation_s": "s",
    "gaps.constellation_primes": "count",
    "gaps.gap_bound_s": "s",
    "checks.phi_star_s": "s",
    "checks.conductor_partition_s": "s",
    "checks.orthogonality_s": "s",
    "checks.large_sieve_s": "s",
    "checks.farey_s": "s",
    "checks.hb_identity_s": "s",
    "checks.sandwich_s": "s",
    "characters.s": "s",
    "characters.calls": "count",
    "heath_brown.decompose_s": "s",
    "heath_brown.direct_s": "s",
    "heath_brown.components": "count",
    "comb_lemmas.grid_s": "s",
    "comb_lemmas.random_s": "s",
    "comb_lemmas.tuples_checked": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "trace.root_s": "s",
    "trace_overhead_ratio": "ratio",
}


def layer_metrics(ops: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `ops` holds each op's spans.

    A metric whose layer the workload never reaches reads 0. trace.root_s is
    the summed root-span time, which the self-time metrics add up to; the
    caller sets cli.output_bytes and trace_overhead_ratio.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    cond = []
    float_over_exact = []
    t_bdh: dict[bool, float] = {False: 0.0, True: 0.0}
    n_bdh = {False: 0, True: 0}
    for spans in ops:
        selfs = self_times(spans)
        kids: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        for s in spans:
            c = s.counters
            m[SELF_METRIC[s.name]] += selfs[s.id]
            if s.name == ROOT:
                m["trace.root_s"] += s.end - s.start
            elif s.name == "arith.primes_in_range":
                m["arith.sieve_calls"] += 1
                m["arith.sieve_span"] += c.get("span", 0)
            elif s.name == "arith.prime_power_arrays" and c:
                m["arith.prime_powers"] = max(m["arith.prime_powers"], c["prime_powers"])
                m["arith.array_mb"] = max(m["arith.array_mb"], c["bytes"] / MIB)
            elif s.name in ("bv_sums.compute_E_b", "bv_sums.bdh_variance", "bv_sums.maynard_condition_sums") and c:
                m["bv_sums.moduli"] += c["moduli"]
                scanned = max((d.counters.get("bytes", 0) for d in _descendants(s, kids)), default=0)
                m["bv_sums.scan_mb"] += c["moduli"] * scanned / MIB
                if s.name == "bv_sums.bdh_variance":
                    t_bdh[c["threads"] > 1] += s.end - s.start
                    n_bdh[c["threads"] > 1] += 1
            elif s.name in ("variational.gram_I", "variational.gram_J") and c:
                m["variational.gram_entries"] += c["entries"]
                m["variational.basis_size_max"] = max(m["variational.basis_size_max"], c["basis_size"])
            elif s.name == "variational.max_rayleigh" and c:
                cond.append(c["cond_A"])
            elif s.name == "variational.mk_lower_bound" and c:
                float_over_exact.append(c["float_over_exact"])
            elif s.name == "variational.verify_certificate" and c:
                m["variational.mc_samples"] += c["samples"]
            elif s.name == "gaps.constellation_search" and c:
                m["gaps.constellation_primes"] += c["primes"]
            elif s.name.startswith("characters."):
                m["characters.calls"] += 1
            elif s.name == "heath_brown.hb_decompose_sum_multi" and c:
                m["heath_brown.components"] += c["components"]
            elif s.name.startswith("comb_lemmas.") and c:
                m["comb_lemmas.tuples_checked"] += c["tuples"]
            # A failure counts once, where it was raised, not in each caller it passed through.
            if s.error == "RayleighError" and not any(k.error == "RayleighError" for k in kids.get(s.id, ())):
                m["variational.rayleigh_failures"] += 1
    kernel_s = m["bv_sums.bdh_s"] + m["bv_sums.E_b_s"] + m["bv_sums.maycond_s"]
    if m["bv_sums.moduli"]:
        m["bv_sums.us_per_modulus"] = kernel_s / m["bv_sums.moduli"] * 1e6
    if n_bdh[False] and n_bdh[True]:
        m["bv_sums.thread_speedup"] = t_bdh[False] / n_bdh[False] / (t_bdh[True] / n_bdh[True])
    if m["variational.mc_samples"]:
        m["variational.mc_us_per_sample"] = m["variational.mc_s"] / m["variational.mc_samples"] * 1e6
    if cond:
        m["variational.cond_A_max"] = max(cond)
    if float_over_exact:
        m["variational.float_over_exact_max"] = max(float_over_exact)
    return m


def _descendants(span: Span, kids: dict[int, list[Span]]):
    todo = list(kids.get(span.id, ()))
    while todo:
        s = todo.pop()
        yield s
        todo.extend(kids.get(s.id, ()))


def self_time_metrics() -> list[str]:
    """The metrics that together hold every span's self time."""
    return sorted(set(SELF_METRIC.values()))
