"""One benchmark operation in a fresh interpreter, so the sieve caches start cold.

The parent starts BOOTSTRAP with `python -c` and one JSON job argument. The
interpreter's start and `import apgaps.cli` come first, so the time from the
spawn to T_IMPORTED is the set-up time a user of the CLI pays. The job then
runs `apgaps.cli.main(argv)` with its output captured, optionally traced, and
the last line of standard output reports the result as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

BOOTSTRAP = (
    "import time, apgaps.cli; t = time.perf_counter(); from perfbench.worker import serve; serve(t)"
)


def serve(t_imported: float) -> None:
    job = json.loads(sys.argv[1])
    result = {"imported_at": t_imported, "apgaps_file": sys.modules["apgaps"].__file__}
    if job.get("argv") is None:
        result["versions"] = _versions()
    else:
        result.update(run_op(job["argv"], job["trace"]))
    sys.stdout.write(json.dumps(result) + "\n")


def run_op(argv: list[str], trace: bool) -> dict:
    import apgaps.cli

    tracer = None
    if trace:
        from perfbench.tracer import ROOT, Tracer, install

        tracer = Tracer()
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    rc = error = message = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        root = tracer.open(ROOT) if tracer else None
        try:
            rc = apgaps.cli.main(argv)
        except Exception as exc:  # the op failed; record it and let the run go on
            error, message = type(exc).__name__, str(exc)
        if root is not None:
            tracer.close(root, error)
        t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rc": rc,
        "error": error,
        "message": message,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "spans": tracer.finish() if tracer else None,
    }


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
