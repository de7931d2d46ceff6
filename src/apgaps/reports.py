"""Report records and their JSON/CSV renderings.

All float formatting goes through repr so identical runs produce
byte-identical files; manifest hashes cover only the reproducible fields
(command, parameters, seed, versions), never wall-clock timestamps.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field


ERROR_SUM_CSV_HEADER = "x,q,param,value,normalizer,ratio,terms"


@dataclass(frozen=True)
class ErrorSumReport:
    """One measured error sum with its trivial normalizer."""

    x: float
    q: int
    param_name: str  # "b" for worst-case sums, "Q" for the mean-square sum
    param: float
    value: float
    normalizer: float
    term_count: int

    @property
    def ratio(self) -> float:
        return self.value / self.normalizer

    def json_dict(self) -> dict:
        return {
            "x": self.x,
            "q": self.q,
            self.param_name: self.param,
            "value": self.value,
            "normalizer": self.normalizer,
            "ratio": self.ratio,
            "term_count": self.term_count,
        }

    def csv_row(self) -> str:
        return ",".join(
            repr(v) if isinstance(v, float) else str(v)
            for v in (self.x, self.q, self.param, self.value, self.normalizer, self.ratio, self.term_count)
        )


@dataclass(frozen=True)
class MaynardConditionReport:
    x: float
    q: int
    a: int
    h_m: int
    k: int
    L: float
    lhs1: float
    lhs2: float
    term_count: int
    skipped: int

    def json_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunManifest:
    """Provenance record for one command invocation."""

    command: str
    params: dict
    seed: int
    versions: dict = field(default_factory=dict)
    started: str | None = None
    finished: str | None = None
    outputs: list[str] = field(default_factory=list)

    def stable_hash(self) -> str:
        """Hash of the reproducible fields only; timestamps excluded."""
        payload = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "versions": self.versions,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "versions": self.versions,
            "started": self.started,
            "finished": self.finished,
            "outputs": self.outputs,
            "manifest_hash": self.stable_hash(),
        }


def default_versions() -> dict:
    import numpy

    from . import __version__

    return {
        "apgaps": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def dump_json(obj: dict, manifest: RunManifest | None = None) -> str:
    out = dict(obj)
    if manifest is not None:
        out["manifest_hash"] = manifest.stable_hash()
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


def dump_csv(rows: list[str], header: str, manifest: RunManifest | None = None) -> str:
    lines = [header]
    lines.extend(rows)
    if manifest is not None:
        lines.append(f"# manifest_hash={manifest.stable_hash()}")
    return "\n".join(lines) + "\n"
