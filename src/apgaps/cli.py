"""Batch command surface: every experiment as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 verification failure, 2 usage error, solver
failure or an integer too large for the computation (a JSON error as the
last line on stderr). `apgaps <cmd> --help` lists each option's default. A
JSON config file (--config) supplies any option that takes a value and is
range-checked like the flag; explicit flags override it, and unknown keys
are ignored. The default seed is 0, and
identical invocations produce byte-identical output files. Output paths and
the --threads option of bv and bdh, which selects nothing, are excluded from
the manifest hash: bdh runs on one thread, and bv sieves its reduced classes
a mod q on two threads wherever it sieves two or more of them apart, with
the bytes of one thread.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation

# Set before numpy loads OpenBLAS. The CLI's BLAS calls are small (one dense
# eigensolve per certificate, the subset-sum products of the lemma scans),
# and on them a second BLAS thread mostly spins: it costs CPU time and saves
# no wall time. A value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import bv_sums, checks, comb_lemmas, gaps, heath_brown, variational
from .reports import ERROR_SUM_CSV_HEADER, RunManifest, default_versions, dump_csv, dump_json
from .variational import CertificateCapExceeded, RayleighError, VariationalCertificate


def _require(args, *names: str) -> None:
    """Options without a default, which a config file may still supply."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required parameter: --{name}")


def _manifest(command: str, params: dict, seed: int) -> RunManifest:
    return RunManifest(
        command=command,
        params={k: v for k, v in params.items() if v is not None},
        seed=seed,
        versions=default_versions(),
        started=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def _emit(text: str, args, manifest: RunManifest) -> None:
    """Write the output to --out or stdout, then the manifest to --manifest if given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        manifest.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if args.out:
            manifest.outputs.append(args.out)
        with open(args.manifest, "w") as fh:
            fh.write(json.dumps(manifest.json_dict(), sort_keys=True) + "\n")


def _xs(args) -> list[float]:
    """The x values of bv and bdh: the --grid list if given, else --x."""
    if args.grid:
        return args.grid
    _require(args, "x")
    return [args.x]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_identities(args) -> int:
    manifest = _manifest("verify-identities", {"max_r": args.max_r, "sandwich_trials": args.sandwich_trials}, args.seed)
    results = checks.run_identity_suite(max_r=args.max_r, seed=args.seed, sandwich_trials=args.sandwich_trials)
    lines = "".join(dump_json(r.json_dict(), manifest) for r in results)
    ok = all(r.passed for r in results)
    lines += dump_json({"all_passed": ok, "checks": len(results)}, manifest)
    _emit(lines, args, manifest)
    return 0 if ok else 1


def _emit_error_reports(reports, args, manifest) -> None:
    if args.csv:
        text = dump_csv([r.csv_row() for r in reports], ERROR_SUM_CSV_HEADER, manifest)
    else:
        text = "".join(dump_json(r.json_dict(), manifest) for r in reports)
    _emit(text, args, manifest)


def cmd_bv(args) -> int:
    _require(args, "q", "b")
    xs = _xs(args)
    for x in xs:  # every x is checked before the first is computed
        bv_sums.check_E_b_args(x, args.q, args.b)
    manifest = _manifest("bv", {"x": xs, "q": args.q, "b": args.b}, args.seed)
    reports = [bv_sums.compute_E_b(x, args.q, args.b) for x in xs]
    _emit_error_reports(reports, args, manifest)
    return 0


def cmd_bdh(args) -> int:
    _require(args, "q")
    xs = _xs(args)
    for x in xs:  # every x is checked before the first is computed
        bv_sums.check_bdh_args(x, args.q, args.Q)
    manifest = _manifest("bdh", {"x": xs, "q": args.q, "Q": args.Q or "x/log(x)"}, args.seed)
    reports = [bv_sums.bdh_variance(x, args.q, args.Q) for x in xs]
    _emit_error_reports(reports, args, manifest)
    return 0


def cmd_maycond(args) -> int:
    _require(args, "x", "q", "a", "k", "L")
    x, q, a, k, L, h = args.x, args.q, args.a, args.k, args.L, args.h
    manifest = _manifest("maycond", {"x": x, "q": q, "a": a, "k": k, "L": L, "h": h}, args.seed)
    rep = bv_sums.maynard_condition_sums(x, q, a, h, k, L)
    _emit(dump_json(rep.json_dict(), manifest), args, manifest)
    return 0


def cmd_hb(args) -> int:
    x, k, trials = args.x, args.k, args.trials
    manifest = _manifest("hb", {"x": x, "k": k, "trials": trials}, args.seed)
    xi = int(x)
    heath_brown.check_decompose_args(xi, k, trials)
    rows = np.random.default_rng(args.seed).normal(size=(trials, xi + 1))
    totals, components = heath_brown.hb_decompose_sum_multi(x, k, rows)
    worst = 0.0
    for row, tot in zip(rows, totals):
        direct = heath_brown.direct_lambda_sum(x, row)
        worst = max(worst, abs(tot - direct) / max(1.0, abs(direct)))
    ok = worst <= 1e-9
    _emit(
        dump_json(
            {"x": x, "k": k, "trials": trials, "components": len(components), "worst_rel_diff": worst, "passed": ok},
            manifest,
        ),
        args,
        manifest,
    )
    return 0 if ok else 1


def cmd_comb(args) -> int:
    manifest = _manifest("comb", {"denominator": args.denominator, "random": args.random}, args.seed)
    grid, tri, five = comb_lemmas.grid_scan(args.denominator)
    out_rows = [
        {"check": "trichotomy", "checked": grid, "counterexamples": [list(t[1]) for t in tri]},
        {"check": "five-part-lemma", "checked": grid, "counterexamples": [list(t[1]) for t in five]},
    ]
    if args.random:
        (c1, b1), (c2, b2) = comb_lemmas.random_sweeps(args.random, seed=args.seed)
        out_rows.append({"check": "trichotomy-random", "checked": c1, "counterexamples": [list(t) for t in b1]})
        out_rows.append({"check": "five-part-lemma-random", "checked": c2, "counterexamples": [list(t) for t in b2]})
    text = "".join(dump_json(r, manifest) for r in out_rows)
    _emit(text, args, manifest)
    return 0 if all(not r["counterexamples"] for r in out_rows) else 1


def cmd_mk(args) -> int:
    _require(args, "k")
    manifest = _manifest("mk", {"k": args.k, "degree": args.degree, "mc_samples": args.mc_samples}, args.seed)
    cert = variational.mk_lower_bound(args.k, args.degree)
    mc = variational.verify_certificate(cert, args.mc_samples, seed=args.seed) if args.mc_samples else None
    _emit(dump_json(cert.row(mc), manifest), args, manifest)
    if mc and not mc.contains(cert.lower_bound):
        return 1
    return 0


DEFAULT_KS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 26, 32, 40, 52, 64)


def cmd_certify(args) -> int:
    ks = args.ks if args.ks is not None else [k for k in DEFAULT_KS if k <= args.kmax]
    manifest = _manifest("certify", {"ks": ks, "degree": args.degree}, args.seed)
    rows = [dict(variational.mk_lower_bound(k, args.degree).row(), log_k=math.log(k)) for k in ks]
    _emit("".join(dump_json(r, manifest) for r in rows), args, manifest)
    return 0


def _load_table(path: str) -> list[VariationalCertificate]:
    """Certificates from a certify table, each row checked by VariationalCertificate.from_row."""
    table = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                table.append(VariationalCertificate.from_row(json.loads(line)))
            except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"{path}, line {lineno}: malformed certificate row ({exc!r})") from None
    return table


def cmd_gap(args) -> int:
    _require(args, "x", "q", "a", "t")
    x, q, a, t, eps, eta, C = args.x, args.q, args.a, args.t, args.eps, args.eta, args.C
    cfg = gaps.GapConfig(x=x, q=q, a=a, t=t, eta=eta, C=C, eps=eps)
    errors = gaps.validate_config(cfg)
    manifest = _manifest("gap", {"x": x, "q": q, "a": a, "t": t, "eps": eps, "eta": eta, "C": C}, args.seed)
    if errors:
        _emit(dump_json({"errors": errors}, manifest), args, manifest)
        sys.stderr.write(json.dumps({"error": "; ".join(errors)}) + "\n")
        return 2
    if args.table:
        table = _load_table(args.table)
    else:
        table = [variational.mk_lower_bound(k, args.degree) for k in DEFAULT_KS if k <= args.kmax]
    report = gaps.gap_bound(cfg, table)
    if args.table:
        try:
            report.certificate.check_exact_bound()
        except ValueError as exc:
            raise ValueError(f"{args.table}: {exc}") from None
    found_gap = None
    found_primes: list[int] = []
    if x <= gaps.CONSTELLATION_MAX_X:
        res = gaps.constellation_search(x, q, a, t)
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
    _emit(dump_json(payload, manifest), args, manifest)
    return 0


def cmd_constellation(args) -> int:
    _require(args, "x", "q", "a", "t")
    x, q, a, t = args.x, args.q, args.a, args.t
    manifest = _manifest("constellation", {"x": x, "q": q, "a": a, "t": t}, args.seed)
    res = gaps.constellation_search(x, q, a, t)
    payload = {"x": x, "q": q, "a": a, "t": t}
    payload.update(res.json_dict())
    _emit(dump_json(payload, manifest), args, manifest)
    return 0


# ---------------------------------------------------------------------------
# parser


def _integer(text: str) -> int:
    """An integer option's value: an int literal, or an exact decimal such as 2e6 (2000000).

    2.5 and 1e-3 are refused, as int refuses them. Like an int literal, the
    value may have at most 4300 digits, checked before it is built.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(text) from None
    if not value.is_finite() or value.adjusted() >= 4300 or value != value.to_integral_value():
        raise ValueError(text)
    return int(value)


_integer.__name__ = "int"  # argparse names the type in "invalid int value: '2.5'"


def _checked(cast, ok, message: str):
    """An argparse type: cast(text), rejected with message unless ok(value)."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{message}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value: 'z'"
    return parse


_POSITIVE_INT = _checked(_integer, lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE_INT = _checked(_integer, lambda v: v >= 0, "must be >= 0")
_HB_X = _checked(float, lambda v: math.isfinite(v) and v >= 1, "x must be finite and >= 1")


def _k_list(text: str) -> list[int]:
    """The value of --ks: comma-separated integers >= 1, each read as an integer option is."""
    if not all(item.strip() for item in text.split(",")):
        raise argparse.ArgumentTypeError(f"empty item in '{text}'")
    return [_POSITIVE_INT(item) for item in text.split(",")]


_k_list.__name__ = "int"  # argparse names the type in "invalid int value: '2.5'"


def _x_list(text: str) -> list[float]:
    """The value of --grid: comma-separated floats, with no empty item."""
    items = text.split(",")
    if not any(item.strip() for item in items):
        raise argparse.ArgumentTypeError(f"no x value in '{text}'")
    if not all(item.strip() for item in items):
        raise argparse.ArgumentTypeError(f"empty item in '{text}'")
    return [float(item) for item in items]


_x_list.__name__ = "float"  # argparse names the type in "invalid float value: 'abc'"


def _option(*flags, **kwargs) -> tuple:
    """One add_argument call, made when its subcommand's parser is built."""
    return flags, kwargs


def _typed(*pairs) -> tuple:
    """Options with a type and nothing else: ("x", float) is _option("--x", type=float)."""
    return tuple(_option(f"--{name}", type=typ) for name, typ in pairs)


def _error_sum_options(max_x: int) -> tuple:
    """The options bv and bdh share; each x, of --x or --grid, is desk-bounded by max_x."""
    return (
        _option("--x", type=float, help=f"at most {max_x:g}"),
        *_typed(("q", _POSITIVE_INT)),
        _option("--grid", type=_x_list, help=f"comma-separated x values, each at most {max_x:g}"),
        _option(
            "--threads",
            type=_POSITIVE_INT,
            default=1,
            help="selects nothing; the input decides the thread count (default %(default)s)",
        ),
        _option("--csv", action="store_true", help="CSV output"),
    )


_COMMON_OPTIONS = (
    _option("--config", help="JSON file of option values, overridden by explicit flags"),
    _option("--seed", type=_integer, default=0, help="random seed (default %(default)s)"),
    _option("--out", help="output path (default stdout)"),
    _option("--manifest", help="write the full run manifest (with timestamps) here"),
)
_DEGREE = _option("--degree", type=_NONNEGATIVE_INT, default=3, help="basis degree (default %(default)s)")

# name: (handler, help, its options before the common ones), in the order --help lists them
_COMMANDS = {
    "verify-identities": (cmd_verify_identities, "run the exact-identity suites", (
        _option(
            "--max-r",
            type=_POSITIVE_INT,
            default=200,
            help="character-check moduli: phi* divisor sums for r <= MAX_R, the conductor partition for r <="
            " min(MAX_R, 200), orthogonality for r <= min(MAX_R, 100); the large-sieve (100 trials), Farey"
            " (r <= 20, D <= 10) and hb-identity (n <= 2000) checks keep their sizes (default %(default)s)",
        ),
        _option("--sandwich-trials", type=_POSITIVE_INT, default=200, help="sandwich trials (default %(default)s)"),
    )),
    "bv": (cmd_bv, "worst-case error sum over moduli d <= x^b", (
        *_error_sum_options(bv_sums.SIEVE_MAX_X),
        *_typed(("b", float)),
    )),
    "bdh": (cmd_bdh, "mean-square error sum over moduli up to Q", (
        *_error_sum_options(bv_sums.DENSE_MAX_X),
        _option("--Q", type=float, help="default x/log(x)"),
    )),
    "maycond": (cmd_maycond, "squarefree tau-weighted condition sums", (
        _option("--x", type=float, help=f"at most {bv_sums.SIEVE_MAX_X:g}"),
        *_typed(("q", _POSITIVE_INT), ("a", _integer)),
        _option("--k", type=_POSITIVE_INT, help=f"tuple size, at most {variational.MAX_K}"),
        *_typed(("L", float)),
        _option("--h", type=_integer, default=0, help="shift of the prime window (default %(default)s)"),
    )),
    "hb": (cmd_hb, "dyadic decomposition check on random weights", (
        _option("--x", type=_HB_X, default=10000.0, help="sums over n <= x, at most 1e5 (default %(default)s)"),
        _option("--k", type=_integer, default=2, help="order of the identity, 1 to 3 (default %(default)s)"),
        _option(
            "--trials",
            type=_POSITIVE_INT,
            default=3,
            help=f"random weight vectors, trials * (floor(x) + 1) <= {heath_brown.MAX_WEIGHTS} (default %(default)s)",
        ),
    )),
    "comb": (cmd_comb, "subset-sum lemma scans", (
        _option(
            "--denominator", type=_POSITIVE_INT, default=24, help="grid denominator, at most 48 (default %(default)s)"
        ),
        _option("--random", type=_NONNEGATIVE_INT, default=0, help="random tuples to scan (default %(default)s)"),
    )),
    "mk": (cmd_mk, "variational lower bound certificate for one k", (
        _option("--k", type=_integer, help=f"tuple size, at most {variational.MAX_K}"),
        _DEGREE,
        _option(
            "--mc-samples",
            type=_integer,
            default=100000,
            help="Monte-Carlo samples, 0 skips, else at least 100000 (default %(default)s)",
        ),
    )),
    "certify": (cmd_certify, "certificate table over a k range", (
        _option("--kmax", type=_POSITIVE_INT, default=64, help="largest k of the default list (default %(default)s)"),
        _option("--ks", type=_k_list, help=f"comma-separated explicit k list, each at most {variational.MAX_K}"),
        _DEGREE,
    )),
    "gap": (cmd_gap, "end-to-end gap bound report", (
        *_typed(("x", float), ("q", _POSITIVE_INT), ("a", _integer), ("t", _integer)),
        _option("--eps", type=float, default=gaps.GapConfig.eps, help="slack in L (default %(default)s)"),
        _option("--eta", type=float, default=gaps.GapConfig.eta, help="theta <= 5/12 - eta (default %(default)s)"),
        _option("--C", type=float, default=gaps.GapConfig.C, help="radical(q) <= (log x)^C (default %(default)s)"),
        _DEGREE,
        _option("--kmax", type=_POSITIVE_INT, default=64, help="largest tabulated k (default %(default)s)"),
        _option("--table", help="certificate table (JSON lines from certify)"),
    )),
    "constellation": (cmd_constellation, "tightest window of t primes of the class", (
        _option("--x", type=float, help=f"at most {gaps.CONSTELLATION_MAX_X:g}"),
        _option("--q", type=_POSITIVE_INT, help=f"at most {gaps.CONSTELLATION_MAX_X:g}"),
        *_typed(("a", _integer), ("t", _integer)),
    )),
}


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the subcommand's defaults, as strings argparse checks with each option's type."""
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("config file must hold a JSON object")
    types = {a.dest: a.type for a in parser._actions if a.nargs != 0 and a.dest != "config"}
    lists = {name for name, typ in types.items() if typ in (_k_list, _x_list)}
    # a list option's JSON array is read as the flag's comma-separated items, each checked by the type
    text = {k: ",".join(map(str, v)) if k in lists and isinstance(v, list) else str(v) for k, v in conf.items()}
    parser.set_defaults(**{k: text[k] for k, v in conf.items() if k in types and v is not None})


class _Parser(argparse.ArgumentParser):
    """Parser whose errors end, like every other exit 2, with a JSON error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(json.dumps({"error": f"{self.prog}: {message}"}) + "\n")
        raise SystemExit(2)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone if it names a subcommand, else of all of them.

    Either way the usage lines, help texts and errors of a command line
    naming that subcommand are the same.
    """
    ap = _Parser(prog="apgaps", description=__doc__)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a lone subparser still shows every command in the top-level usage
    metavar = "{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, help_text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options + _COMMON_OPTIONS:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func, parser=p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
        if args.config:
            _config_defaults(args.parser, args.config)
            args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except CertificateCapExceeded as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "threshold": exc.threshold}) + "\n")
        return 2
    except (RayleighError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
