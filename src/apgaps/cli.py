"""Batch command surface: every experiment as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 verification failure, 2 usage error or solver
failure (a JSON error as the last line on stderr). A JSON config
file supplies defaults that explicit flags override; the default seed is 0,
and identical invocations produce byte-identical output files. Thread counts
and output paths are excluded from the manifest hash so parallel reruns stay
byte-identical.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import bv_sums, checks, comb_lemmas, gaps, variational
from .reports import ERROR_SUM_CSV_HEADER, RunManifest, default_versions, dump_csv, dump_json
from .variational import CertificateCapExceeded, RayleighError, VariationalCertificate


class UsageError(Exception):
    pass


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _get(args, conf: dict, name: str, default=None, required=False, cast=None):
    v = getattr(args, name, None)
    if v is None:
        v = conf.get(name, default)
    if v is None:
        if required:
            raise UsageError(f"missing required parameter: --{name.replace('_', '-')}")
        return None
    return cast(v) if cast else v


def _manifest(command: str, params: dict, seed: int) -> RunManifest:
    clean = {k: v for k, v in params.items() if k not in ("threads", "out", "manifest", "config") and v is not None}
    return RunManifest(
        command=command,
        params=clean,
        seed=seed,
        versions=default_versions(),
        started=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_manifest(manifest: RunManifest, args) -> None:
    path = getattr(args, "manifest", None)
    if path:
        manifest.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if getattr(args, "out", None):
            manifest.outputs.append(args.out)
        with open(path, "w") as fh:
            fh.write(json.dumps(manifest.json_dict(), sort_keys=True) + "\n")


def _parse_grid(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_identities(args) -> int:
    conf = _load_config(args)
    max_r = _get(args, conf, "max_r", 200, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    trials = _get(args, conf, "sandwich_trials", 200, cast=int)
    manifest = _manifest("verify-identities", {"max_r": max_r, "sandwich_trials": trials}, seed)
    results = checks.run_identity_suite(max_r=max_r, seed=seed, sandwich_trials=trials)
    lines = "".join(dump_json(r.json_dict(), manifest) for r in results)
    ok = all(r.passed for r in results)
    lines += dump_json({"all_passed": ok, "checks": len(results)}, manifest)
    _emit(lines, args.out)
    _finish_manifest(manifest, args)
    return 0 if ok else 1


def _emit_error_reports(reports, args, manifest) -> None:
    if args.csv:
        text = dump_csv([r.csv_row() for r in reports], ERROR_SUM_CSV_HEADER, manifest)
    else:
        text = "".join(dump_json(r.json_dict(), manifest) for r in reports)
    _emit(text, args.out)


def cmd_bv(args) -> int:
    conf = _load_config(args)
    q = _get(args, conf, "q", required=True, cast=int)
    b = _get(args, conf, "b", required=True, cast=float)
    threads = _get(args, conf, "threads", 1, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if q < 1:
        raise UsageError("q must be >= 1")
    if threads < 1:
        raise UsageError("threads must be >= 1")
    if args.grid:
        xs = _parse_grid(args.grid)
    else:
        xs = [_get(args, conf, "x", required=True, cast=float)]
    manifest = _manifest("bv", {"x": xs, "q": q, "b": b}, seed)
    reports = [bv_sums.compute_E_b(x, q, b, threads=threads) for x in xs]
    _emit_error_reports(reports, args, manifest)
    _finish_manifest(manifest, args)
    return 0


def cmd_bdh(args) -> int:
    conf = _load_config(args)
    q = _get(args, conf, "q", required=True, cast=int)
    threads = _get(args, conf, "threads", 1, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if q < 1:
        raise UsageError("q must be >= 1")
    if threads < 1:
        raise UsageError("threads must be >= 1")
    xs = _parse_grid(args.grid) if args.grid else [_get(args, conf, "x", required=True, cast=float)]
    Q_opt = _get(args, conf, "Q", cast=float)
    manifest = _manifest("bdh", {"x": xs, "q": q, "Q": Q_opt or "x/log(x)"}, seed)
    reports = []
    for x in xs:
        Q = Q_opt if Q_opt is not None else x / math.log(x)
        reports.append(bv_sums.bdh_variance(x, q, Q, threads=threads))
    _emit_error_reports(reports, args, manifest)
    _finish_manifest(manifest, args)
    return 0


def cmd_maycond(args) -> int:
    conf = _load_config(args)
    x = _get(args, conf, "x", required=True, cast=float)
    q = _get(args, conf, "q", required=True, cast=int)
    a = _get(args, conf, "a", required=True, cast=int)
    k = _get(args, conf, "k", required=True, cast=int)
    L = _get(args, conf, "L", required=True, cast=float)
    h = _get(args, conf, "h", 0, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    manifest = _manifest("maycond", {"x": x, "q": q, "a": a, "k": k, "L": L, "h": h}, seed)
    rep = bv_sums.maynard_condition_sums(x, q, a, h, k, L)
    _emit(dump_json(rep.json_dict(), manifest), args.out)
    _finish_manifest(manifest, args)
    return 0


def cmd_hb(args) -> int:
    conf = _load_config(args)
    x = _get(args, conf, "x", 10000.0, cast=float)
    k = _get(args, conf, "k", 2, cast=int)
    trials = _get(args, conf, "trials", 3, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if not (math.isfinite(x) and x >= 1):
        raise UsageError("x must be >= 1")
    manifest = _manifest("hb", {"x": x, "k": k, "trials": trials}, seed)
    from .heath_brown import check_decompose_args, direct_lambda_sum, hb_decompose_sum_multi

    xi = int(x)
    check_decompose_args(xi, k)
    rows = np.random.default_rng(seed).normal(size=(trials, xi + 1))
    totals, components = hb_decompose_sum_multi(x, k, rows)
    worst = 0.0
    for row, tot in zip(rows, totals):
        direct = direct_lambda_sum(x, row)
        worst = max(worst, abs(tot - direct) / max(1.0, abs(direct)))
    ok = worst <= 1e-9
    _emit(
        dump_json(
            {"x": x, "k": k, "trials": trials, "components": len(components), "worst_rel_diff": worst, "passed": ok},
            manifest,
        ),
        args.out,
    )
    _finish_manifest(manifest, args)
    return 0 if ok else 1


def cmd_comb(args) -> int:
    conf = _load_config(args)
    den = _get(args, conf, "denominator", 24, cast=int)
    n_random = _get(args, conf, "random", 0, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if den < 1:
        raise UsageError("denominator must be >= 1")
    if n_random < 0:
        raise UsageError("random must be >= 0")
    manifest = _manifest("comb", {"denominator": den, "random": n_random}, seed)
    grid = sum(1 for d in range(1, den + 1) for _ in comb_lemmas.partitions_of(d, comb_lemmas.N_PARTS))
    tri = comb_lemmas.verify_trichotomy(den)
    five = comb_lemmas.verify_comblem(den)
    out_rows = [
        {"check": "trichotomy", "checked": grid, "counterexamples": [list(t[1]) for t in tri]},
        {"check": "five-part-lemma", "checked": grid, "counterexamples": [list(t[1]) for t in five]},
    ]
    if n_random:
        (c1, b1), (c2, b2) = comb_lemmas.random_sweeps(n_random, seed=seed)
        out_rows.append({"check": "trichotomy-random", "checked": c1, "counterexamples": [list(t) for t in b1]})
        out_rows.append({"check": "five-part-lemma-random", "checked": c2, "counterexamples": [list(t) for t in b2]})
    text = "".join(dump_json(r, manifest) for r in out_rows)
    _emit(text, args.out)
    _finish_manifest(manifest, args)
    return 0 if not tri and not five and all(not r["counterexamples"] for r in out_rows) else 1


def _cert_row(cert: VariationalCertificate, mc=None) -> dict:
    row = cert.json_dict()
    row["mc_ratio"] = mc.ratio if mc else None
    row["mc_ci"] = [mc.ratio - 5 * mc.sigma, mc.ratio + 5 * mc.sigma] if mc else None
    row["basis"] = [list(p) for p in cert.basis]
    row["coefficients"] = list(cert.coefficients)
    return row


def cmd_mk(args) -> int:
    conf = _load_config(args)
    k = _get(args, conf, "k", required=True, cast=int)
    degree = _get(args, conf, "degree", 3, cast=int)
    samples = _get(args, conf, "mc_samples", 100000, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    manifest = _manifest("mk", {"k": k, "degree": degree, "mc_samples": samples}, seed)
    cert = variational.mk_lower_bound(k, degree)
    mc = variational.verify_certificate(cert, samples, seed=seed) if samples else None
    _emit(dump_json(_cert_row(cert, mc), manifest), args.out)
    _finish_manifest(manifest, args)
    if mc and not mc.contains(cert.lower_bound):
        return 1
    return 0


DEFAULT_KS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 26, 32, 40, 52, 64)


def cmd_certify(args) -> int:
    conf = _load_config(args)
    degree = _get(args, conf, "degree", 3, cast=int)
    kmax = _get(args, conf, "kmax", 64, cast=int)
    ks_opt = _get(args, conf, "ks")
    seed = _get(args, conf, "seed", 0, cast=int)
    ks = [int(v) for v in str(ks_opt).split(",")] if ks_opt else [k for k in DEFAULT_KS if k <= kmax]
    manifest = _manifest("certify", {"ks": ks, "degree": degree}, seed)
    rows = [_cert_row(variational.mk_lower_bound(k, degree)) for k in ks]
    for row, k in zip(rows, ks):
        row["log_k"] = math.log(k)
    _emit("".join(dump_json(r, manifest) for r in rows), args.out)
    _finish_manifest(manifest, args)
    return 0


def _load_table(path: str) -> list[VariationalCertificate]:
    table = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            table.append(
                VariationalCertificate(
                    k=row["k"],
                    degree=row["degree"],
                    basis=tuple(tuple(p) for p in row["basis"]),
                    coefficients=tuple(row["coefficients"]),
                    exact_bound=Fraction(row["exact_bound"]),
                )
            )
    return table


def cmd_gap(args) -> int:
    conf = _load_config(args)
    x = _get(args, conf, "x", required=True, cast=float)
    q = _get(args, conf, "q", required=True, cast=int)
    a = _get(args, conf, "a", required=True, cast=int)
    t = _get(args, conf, "t", required=True, cast=int)
    eps = _get(args, conf, "eps", 1e-3, cast=float)
    eta = _get(args, conf, "eta", 0.01, cast=float)
    C = _get(args, conf, "C", 2.0, cast=float)
    degree = _get(args, conf, "degree", 3, cast=int)
    kmax = _get(args, conf, "kmax", 64, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if q < 1:
        raise UsageError("q must be >= 1")
    cfg = gaps.GapConfig(x=x, q=q, a=a, t=t, eta=eta, C=C, eps=eps)
    errors = gaps.validate_config(cfg)
    manifest = _manifest("gap", {"x": x, "q": q, "a": a, "t": t, "eps": eps, "eta": eta, "C": C}, seed)
    if errors:
        _emit(dump_json({"errors": errors}, manifest), args.out)
        sys.stderr.write(json.dumps({"error": "; ".join(errors)}) + "\n")
        return 2
    table = _load_table(args.table) if args.table else variational.certificate_table(
        [k for k in DEFAULT_KS if k <= kmax], degree
    )
    report = gaps.gap_bound(cfg, table)
    found_gap = None
    found_primes: list[int] = []
    if x <= 10**8:
        res = gaps.constellation_search(x, q, a % q if q > 1 else 0, t)
        if res.found:
            found_gap = res.gap
            found_primes = list(res.primes)
    payload = {
        "x": x,
        "q": q,
        "a": a,
        "t": t,
        "theta": cfg.theta,
        "L": report.L,
        "k": report.k,
        "tuple_diameter": report.tuple_diameter,
        "scaled_diameter": report.scaled_diameter,
        "bound": report.bound,
        "found_gap": found_gap,
        "primes": found_primes,
        "fits_D0": report.fits_D0,
    }
    _emit(dump_json(payload, manifest), args.out)
    _finish_manifest(manifest, args)
    return 0


def cmd_constellation(args) -> int:
    conf = _load_config(args)
    x = _get(args, conf, "x", required=True, cast=float)
    q = _get(args, conf, "q", required=True, cast=int)
    a = _get(args, conf, "a", required=True, cast=int)
    t = _get(args, conf, "t", required=True, cast=int)
    seed = _get(args, conf, "seed", 0, cast=int)
    if q < 1:
        raise UsageError("q must be >= 1")
    manifest = _manifest("constellation", {"x": x, "q": q, "a": a, "t": t}, seed)
    res = gaps.constellation_search(x, q, a % q if q > 1 else 0, t)
    payload = {"x": x, "q": q, "a": a, "t": t}
    payload.update(res.json_dict())
    _emit(dump_json(payload, manifest), args.out)
    _finish_manifest(manifest, args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults, overridden by explicit flags")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--manifest", help="write the full run manifest (with timestamps) here")


class _Parser(argparse.ArgumentParser):
    """Parser whose errors end, like every other exit 2, with a JSON error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(json.dumps({"error": f"{self.prog}: {message}"}) + "\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="apgaps", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", help="run the exact-identity suites")
    p.add_argument("--max-r", dest="max_r", type=int)
    p.add_argument("--sandwich-trials", dest="sandwich_trials", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("bv", help="worst-case error sum over moduli d <= x^b")
    p.add_argument("--x", type=float)
    p.add_argument("--q", type=int)
    p.add_argument("--b", type=float)
    p.add_argument("--grid", help="comma-separated x values")
    p.add_argument("--threads", type=int)
    p.add_argument("--csv", action="store_true", help="CSV output")
    _add_common(p)
    p.set_defaults(func=cmd_bv)

    p = sub.add_parser("bdh", help="mean-square error sum over moduli up to Q")
    p.add_argument("--x", type=float)
    p.add_argument("--q", type=int)
    p.add_argument("--Q", type=float, help="default x/log(x)")
    p.add_argument("--grid", help="comma-separated x values")
    p.add_argument("--threads", type=int)
    p.add_argument("--csv", action="store_true", help="CSV output")
    _add_common(p)
    p.set_defaults(func=cmd_bdh)

    p = sub.add_parser("maycond", help="squarefree tau-weighted condition sums")
    for name, typ in (("x", float), ("q", int), ("a", int), ("k", int), ("L", float), ("h", int)):
        p.add_argument(f"--{name}", type=typ)
    _add_common(p)
    p.set_defaults(func=cmd_maycond)

    p = sub.add_parser("hb", help="dyadic decomposition check on random weights")
    p.add_argument("--x", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_hb)

    p = sub.add_parser("comb", help="subset-sum lemma scans")
    p.add_argument("--denominator", type=int)
    p.add_argument("--random", type=int, help="also run this many random real tuples")
    _add_common(p)
    p.set_defaults(func=cmd_comb)

    p = sub.add_parser("mk", help="variational lower bound certificate for one k")
    p.add_argument("--k", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_mk)

    p = sub.add_parser("certify", help="certificate table over a k range")
    p.add_argument("--kmax", type=int)
    p.add_argument("--ks", help="comma-separated explicit k list")
    p.add_argument("--degree", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gap", help="end-to-end gap bound report")
    for name, typ in (("x", float), ("q", int), ("a", int), ("t", int), ("eps", float), ("eta", float), ("C", float)):
        p.add_argument(f"--{name}", type=typ)
    p.add_argument("--degree", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--table", help="certificate table (JSON lines from certify)")
    _add_common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("constellation", help="tightest window of t primes of the class")
    for name, typ in (("x", float), ("q", int), ("a", int), ("t", int)):
        p.add_argument(f"--{name}", type=typ)
    _add_common(p)
    p.set_defaults(func=cmd_constellation)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except CertificateCapExceeded as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "threshold": exc.threshold}) + "\n")
        return 2
    except (RayleighError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
