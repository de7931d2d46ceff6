"""The benchmark's workloads: fixed lists of `apgaps` CLI invocations.

Every invocation gets `--seed <workload seed>` appended; that seed is the
only input that varies between runs. Ops that name TABLE share one
temporary file inside the run's work directory.
"""

from __future__ import annotations

from dataclasses import dataclass

TABLE = "{T}"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # Index of an earlier op whose standard output this op must reproduce
    # byte for byte (the determinism contract across thread counts).
    identical_to: int | None = None

    @property
    def key(self) -> str:
        """Seed-free name of the op; the reference outputs are keyed by it."""
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


def _op(text: str, identical_to: int | None = None) -> Op:
    return Op(tuple(text.split()), identical_to)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "moduli-sweep",
            "per-modulus bv_sums kernels over ~1.6e4 moduli on a cache-sized prime array, 1 and 2 threads; arith nearly idle",
            (
                _op("bdh --x 2e5 --q 1"),
                _op("bdh --x 2e5 --q 1 --threads 2", identical_to=0),
                _op("bv --grid 1e4,1e5,1e6 --q 3 --b 0.2"),
            ),
        ),
        Workload(
            "large-x",
            "three cold sieves to 1e8 and ~90 passes over ~90 MB arrays: few moduli, huge working set",
            (
                _op("bv --x 1e8 --q 3 --b 0.25"),
                _op("maycond --x 1e8 --q 3 --a 1 --k 2 --L 0.2"),
                _op("constellation --x 1e8 --q 4 --a 1 --t 2"),
            ),
        ),
        Workload(
            "certify",
            "all variational: Gram enumeration to k=64, Maynard M5 at degree 6 with Monte-Carlo, the known k=12 crash, gap on the table",
            (
                _op(f"certify --kmax 64 --degree 3 --out {TABLE}"),
                _op("mk --k 5 --degree 6 --mc-samples 200000"),
                _op("mk --k 12 --degree 6 --mc-samples 100000"),
                _op(f"gap --x 1152921504606846976 --q 1048576 --a 1 --t 1 --table {TABLE}"),
            ),
        ),
        Workload(
            "identities",
            "the only workload running characters, heath_brown, comb_lemmas and checks",
            (
                _op("verify-identities"),
                _op("hb --x 2e4 --k 2 --trials 3"),
                _op("comb --denominator 30 --random 2000000"),
            ),
        ),
    )
}


def op_argvs(workload: str, seed: int, table_path: str) -> list[list[str]]:
    """The command lines of one pass over the workload, in order."""
    return [
        [arg.replace(TABLE, table_path) for arg in op.argv] + ["--seed", str(seed)]
        for op in WORKLOADS[workload].ops
    ]
