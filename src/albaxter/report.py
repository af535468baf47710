"""Run configuration and machine-readable check reports.

Reports are deterministic for a fixed (config, seed, version): wall times
live in a separate "timing" section that canonical serialization excludes,
so two identical runs produce byte-identical canonical JSON.  Complex
numbers are serialized as [re, im] pairs.
"""

import json
import math
from dataclasses import dataclass, field, asdict

SCHEMA = "albaxter-report/1"


class ConfigError(ValueError):
    """Malformed run configuration (CLI exit code 2)."""


_CONFIG_FIELDS = {"N", "m", "alpha", "eta", "mu", "n_max", "tolerances",
                  "seed", "sample_counts", "output_path", "format"}


def _number(raw, name):
    # JSON true would read as 1.0: a bool is no number here
    if isinstance(raw[name], bool):
        raise ConfigError(f"{name} must be a number")
    try:
        return float(raw[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number") from exc


@dataclass
class RunConfig:
    N: int = 2
    m: int = 1
    alpha: float = 0.5
    mu: float = 1.3
    n_max: int = 5
    seed: int = 7
    newton_tol: float = 1e-12
    sample_counts: int = 16
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        # type, not isinstance: JSON true is a bool, which subclasses int
        if not (type(self.N) is int and self.N >= 1):
            raise ConfigError("N must be an integer >= 1")
        if not (type(self.m) is int and 0 <= self.m):
            raise ConfigError("m must be a nonnegative integer")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.mu) and self.mu != 0):
            raise ConfigError("mu must be nonzero and finite")
        if not (type(self.n_max) is int and self.n_max >= 1):
            raise ConfigError("n_max must be an integer >= 1")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ConfigError("seed must be an integer >= 0")
        if not (type(self.sample_counts) is int and self.sample_counts >= 1):
            raise ConfigError("sample_counts must be an integer >= 1")
        if not 0 < self.newton_tol < math.inf:
            raise ConfigError("tolerances.newton must be positive and finite")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError("output_path must be a string")
        if self.format not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kw = {}
        for name in ("N", "m", "n_max", "seed", "sample_counts"):
            if name in raw:
                kw[name] = raw[name]
        if "alpha" in raw and "eta" in raw:
            raise ConfigError("give alpha or eta, not both")
        if "alpha" in raw:
            kw["alpha"] = _number(raw, "alpha")
        elif "eta" in raw:
            eta = _number(raw, "eta")
            if not eta > 0:
                raise ConfigError("eta must be positive")
            kw["alpha"] = 1.0 / (1.0 + eta)
        if "mu" in raw:
            kw["mu"] = _number(raw, "mu")
        tol = raw.get("tolerances", {})
        if tol:
            if not isinstance(tol, dict):
                raise ConfigError("tolerances must be {newton}")
            unknown = sorted(f"tolerances.{k}" for k in set(tol) - {"newton"})
            if unknown:
                raise ConfigError(f"unknown config fields: {unknown}")
            if "newton" in tol:
                kw["newton_tol"] = _number(tol, "newton")
        if "output_path" in raw:
            kw["output_path"] = raw["output_path"]
        if "format" in raw:
            kw["format"] = raw["format"]
        return cls(**kw)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        d = asdict(self)
        d["tolerances"] = {"newton": d.pop("newton_tol")}
        return d


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if hasattr(v, "item"):  # numpy scalar
        return _jsonable(v.item())
    return v


@dataclass
class CheckRecord:
    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    wall_time: float

    def row(self):
        return {"check_id": self.check_id,
                "params": _jsonable(self.params),
                "residual": float(self.residual),
                "tolerance": float(self.tolerance),
                "pass": bool(self.passed)}


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)

    def extend(self, records):
        self.checks.extend(records)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    def canonical_dict(self):
        """Everything except timing; byte-stable across identical runs."""
        return {"schema": SCHEMA,
                "config": _jsonable(self.config),
                "checks": [c.row() for c in self.checks],
                "summary": self.summary()}

    def canonical_json(self):
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    def full_dict(self):
        d = self.canonical_dict()
        d["timing"] = {"per_check": {c.check_id: c.wall_time
                                     for c in self.checks},
                       "total_s": sum(c.wall_time for c in self.checks)}
        return d

    def to_json(self):
        return json.dumps(self.full_dict(), sort_keys=True, indent=2)
