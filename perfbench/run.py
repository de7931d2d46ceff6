"""Run one benchmark workload and print its metrics.

    python3 -m perfbench.run --workload certify --seed 3 --seconds 20 --trace 0
    python3 -m perfbench.run --workload all            # every workload, one table
    python3 -m perfbench.run --record-reference        # rewrite reference.json

Run from the repository root. The program is imported from `src/`; nothing is
installed. Each op is a fresh interpreter running `apgaps.cli.main(argv)`
(see worker.py), in a closed loop with one client: an op starts when the
previous one has ended. A pass runs every op of the workload once; passes
repeat while another one still fits in `--seconds` (at least one pass).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of one
traced pass, next to one untraced pass for the tracing overhead. The full
record (environment, every op, every span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import check, tracer
from perfbench.workloads import WORKLOADS, op_argvs
from perfbench.worker import BOOTSTRAP

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
SRC = ROOT / "src"
REFERENCE = PKG / "reference.json"
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_SAMPLES = 5  # dedicated set-up samples per run, besides one per op process

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRun:
    argv: list[str]
    outcome: check.Outcome
    verdict: check.Verdict | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None
    spans: list | None = None


@dataclass
class Pass:
    ops: list[OpRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    aborted: bool = False

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_mb for o in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if o.verdict is None or o.verdict.failed)

    @property
    def ok(self) -> int:
        return sum(1 for o in self.ops if o.verdict is not None and o.verdict.ok)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(job: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run one worker; returns (result or None, set-up seconds, stderr tail)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return None, 0.0, "deadline reached before the op started"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", BOOTSTRAP, json.dumps(job)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, 0.0, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0.0, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    return result, result["imported_at"] - t0, proc.stderr[-2000:]


def setup_sample(deadline: float) -> tuple[float, dict]:
    result, setup, err = spawn({"argv": None}, deadline)
    if result is None:
        raise BenchError(f"cannot start apgaps from {SRC}: {err}")
    if Path(result["apgaps_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"apgaps was imported from {result['apgaps_file']}, not from {SRC}")
    return setup, result


def run_pass(workload: str, seed: int, trace: bool, workdir: Path, reference: dict | None, deadline: float) -> Pass:
    table = workdir / "table.jsonl"
    table.unlink(missing_ok=True)
    ops = WORKLOADS[workload].ops
    p = Pass()
    for op, argv in zip(ops, op_argvs(workload, seed, str(table))):
        result, setup, err = spawn({"argv": argv, "trace": trace}, deadline)
        if result is None:
            p.ops.append(OpRun(argv, check.Outcome(None, "WorkerFailure", "", stderr=err)))
            p.problems.append(f"{op.key}: {err}")
            p.aborted = True
            break
        out_file = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            out_file = path.read_text() if path.exists() else ""
        outcome = check.Outcome(result["rc"], result["error"], result["stdout"], out_file, result["stderr"])
        run = OpRun(
            argv,
            outcome,
            wall_s=result["wall_s"],
            cpu_s=result["cpu_s"],
            peak_rss_mb=result["peak_rss_mb"],
            setup_s=setup,
            spans=result["spans"],
        )
        if reference is not None:
            ref = reference.get(workload, {}).get(op.key)
            if ref is None:
                raise BenchError(f"no reference output recorded for {workload}: {op.key}")
            run.verdict = check.check(outcome, ref, argv)
            if op.identical_to is not None and outcome.stdout != p.ops[op.identical_to].outcome.stdout:
                run.verdict.failed, run.verdict.ok = True, False
                run.verdict.problems.append(f"output differs from op {op.identical_to}, which must match it byte for byte")
        p.ops.append(run)
    return p


def output_bytes(p: Pass) -> int:
    return sum(len(o.outcome.stdout.encode()) + len((o.outcome.out_file or "").encode()) for o in p.ops)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (0.999, 0.99, 0.9, 0.5):
        if n * (1 - p) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(p * n))]
    return None


def environment(workload: str, seed: int, versions: dict) -> dict:
    env = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "loop": "closed, one client, ops in order",
    }
    env.update(versions)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read the reference outputs {REFERENCE}: {exc}") from exc


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    reference = load_reference()
    setup_sample(deadline)  # warm-up: byte-compiles src/ on a fresh checkout; not a sample
    setups, versions = [], {}
    for _ in range(SETUP_SAMPLES):
        s, info = setup_sample(deadline)
        setups.append(s)
        versions = info["versions"]

    passes: list[Pass] = []
    t_measure = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        p = run_pass(workload, seed, False, workdir, reference, deadline)
        passes.append(p)
        now = time.perf_counter()
        # A traced run needs one untraced pass only, as the base of the overhead ratio.
        if trace or p.aborted or (now - t_measure) + (now - t_pass) > seconds:
            break
    traced = None
    if trace and not passes[-1].aborted:
        traced = run_pass(workload, seed, True, workdir, reference, deadline)

    everything = passes + ([traced] if traced else [])
    attempted = sum(len(p.ops) for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [f"{' '.join(o.argv)}: {msg}" for p in everything for o in p.ops if o.verdict and o.verdict.failed for msg in o.verdict.problems]
    problems += [msg for p in everything for msg in p.problems]
    setups += [o.setup_s for p in passes for o in p.ops if o.setup_s is not None]

    samples = {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "setup_s": setups,
    }
    if trace:
        if traced is None or traced.aborted:
            metrics = {}
            problems.append("the traced pass did not complete")
        else:
            metrics = tracer.layer_metrics([[tracer.Span.from_json(r) for r in o.spans] for o in traced.ops])
            metrics["cli.output_bytes"] = float(output_bytes(traced))
            metrics["trace_overhead_ratio"] = traced.wall_s / passes[-1].wall_s
            layer_sum = sum(metrics[m] for m in tracer.self_time_metrics())
            if abs(layer_sum - metrics["trace.root_s"]) > 1e-9 * max(1.0, metrics["trace.root_s"]):
                problems.append(f"layer self times add to {layer_sum!r}, root spans to {metrics['trace.root_s']!r}")
        units = tracer.PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        ok = sum(p.ok for p in passes)
        metrics["ok_ratio"] = ok / sum(len(p.ops) for p in passes)
        units = E2E_UNITS
    return {
        "env": environment(workload, seed, versions),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items() if name in metrics},
        "samples": samples,
        "passes": [_pass_record(p) for p in passes],
        "traced_pass": _pass_record(traced) if traced else None,
        "elapsed_s": time.perf_counter() - start,
    }


def _pass_record(p: Pass) -> dict:
    return {
        "ops": [
            {
                "argv": o.argv,
                "rc": o.outcome.rc,
                "error": o.outcome.error,
                "ok": bool(o.verdict and o.verdict.ok),
                "failed": bool(o.verdict is None or o.verdict.failed),
                "problems": o.verdict.problems if o.verdict else [],
                "wall_s": o.wall_s,
                "cpu_s": o.cpu_s,
                "peak_rss_mb": o.peak_rss_mb,
                "setup_s": o.setup_s,
                "spans": o.spans,
            }
            for o in p.ops
        ],
        "problems": p.problems,
    }


def print_report(res: dict) -> None:
    env = res["env"]
    print(f"# workload {env['workload']} seed {env['seed']}: env {json.dumps(env, sort_keys=True)}")
    for i, p in enumerate(res["passes"] + ([res["traced_pass"]] if res["traced_pass"] else [])):
        label = "traced" if res["traced_pass"] is p else f"pass {i}"
        for o in p["ops"]:
            state = "ok" if o["ok"] else ("FAILED" if o["failed"] else "known failure")
            detail = "; ".join(o["problems"])
            print(f"#   {label}: {state:13s} wall {o['wall_s']:8.3f} s  cpu {o['cpu_s']:8.3f} s  rss {o['peak_rss_mb']:7.1f} MiB  {' '.join(o['argv'][:-2])}  {detail}")
    for name, m in res["metrics"].items():
        values = res["samples"].get(name)
        extra = ""
        if values is not None:
            tail = tail_percentile(values)
            extra = f"  (median of n={len(values)}" + (f", p{tail[0] * 100:g} {tail[1]:.6g})" if tail else "; too few samples for a tail percentile)")
        print(f"# {env['workload']:13s} {name:32s} {m['value']:14.6g} {m['unit']}{extra}")
    for msg in res["problems"]:
        print(f"# PROBLEM: {msg}")


def write_record(res: dict, trace: bool) -> Path:
    out = PKG / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{res['env']['workload']}-seed{res['env']['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(res, indent=1))
    return path


def record_reference(workdir: Path, names: list[str]) -> None:
    """Record each op's output at seeds 0 and 1; run only at a commit whose outputs are trusted."""
    deadline = time.perf_counter() + 3600.0
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        w = WORKLOADS[name]
        runs = [run_pass(name, seed, False, workdir, None, deadline) for seed in (0, 1)]
        if any(r.aborted for r in runs):
            raise BenchError(f"{name}: {runs[0].problems + runs[1].problems}")
        ref[name] = {op.key: check.record([r.ops[i].outcome for r in runs]) for i, op in enumerate(w.ops)}
        print(f"recorded {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    workdir = PKG / ".work" / str(os.getpid())
    try:
        if not (SRC / "apgaps" / "cli.py").is_file():
            raise BenchError(f"no apgaps sources under {SRC}")
        workdir.mkdir(parents=True, exist_ok=True)
        names = sorted(WORKLOADS) if args.workload in ("all", None) else [args.workload]
        if args.record_reference:
            record_reference(workdir, names)
            return 0
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            print_report(res)
            print(f"# full record: {write_record(res, bool(args.trace)).relative_to(ROOT)}")
            results.append(res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it
    if len(results) == 1:
        res = results[0]
        metrics = res["metrics"]
    else:
        res = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        metrics = {f"{r['env']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
