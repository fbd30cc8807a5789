"""Run configuration and structured check reports.

A report is a list of check records plus a config echo and summary counts.
Every record names the check, cites the claim it verifies from a fixed
registry, and carries its inputs, computed values, slack, pass flag, and
the seed that generated any random inputs, so failing runs can be replayed.

Serialization is deterministic: records are sorted by a stable key, JSON
keys are sorted, and the only field excluded from the byte-for-byte
determinism contract is the timestamp. Floats in CSV are written with 17
significant digits; JSON uses Python's shortest round-trip representation.
All entropy-like values are stored in nats; the bits option converts them
at serialization time only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core import nats_to_bits
from .depolarizing import lambda_min

ENV_OUT_DIR = "DEPOLCAP_OUT_DIR"

# Every record cites one of these claims; the registry is the single place
# that states, in prose, what each check verifies.
CLAIM_REGISTRY = {
    "measures-closed-form":
        "the two-level output spectrum of the depolarizing channel gives "
        "S_min, nu_p and chi_star in closed form",
    "measures-consistency":
        "chi_star equals ln d minus S_min",
    "cp-range-witness":
        "the smallest Choi eigenvalue is nonnegative exactly on the "
        "admissible lambda range",
    "decomposition-reconstruction":
        "the depolarizing channel equals its mixture of conjugated uniform "
        "phase dampers, 2 d^2 (d+1) terms, 24 at d = 2",
    "omega-split":
        "the depolarizing channel splits into the off-diagonal corrected "
        "map and its averaged phase conjugations",
    "phase-average":
        "averaging the quadratic-phase damper family yields the "
        "off-diagonal corrected map",
    "diophantine-census":
        "the phase-matching quadruple census is 2 d^2 - d, with no "
        "wraparound solutions",
    "lieb-thirring":
        "Tr (A^(1/2) B A^(1/2))^p <= Tr (A^p B^p) for PSD A, B and p >= 1",
    "tensor-output-norm-bound":
        "the output p-norm of a phase damper tensored with the identity is "
        "at most d^(1-1/p) nu_p times the block-trace term",
    "local-unitary-invariance":
        "first-factor unitaries before the depolarizing channel leave "
        "output p-norms unchanged",
    "nu-p-multiplicativity":
        "the maximal output p-norm of the depolarizing channel tensored "
        "with any channel equals the product of the factor norms",
    "relative-entropy-tensor-bound":
        "output relative entropy against the product reference is at most "
        "the sum of the factor Holevo quantities, saturated by product "
        "optimizers",
    "chi-additivity":
        "the Holevo quantity of the depolarizing channel tensored with any "
        "channel is the sum of the factor quantities",
    "capacity-chain":
        "Shannon capacity with basis encoding equals chi_star equals "
        "ln d minus S_min, and the optimal prior is uniform",
    "capacity-monotone":
        "capacity is nondecreasing in lambda on [0, 1]",
}

# Value keys denominated in nats, converted when bits output is requested.
ENTROPY_VALUE_KEYS = {
    "s_min", "chi_star", "chi_closed", "shannon_capacity", "holevo_chi",
    "chi_product", "chi_delta", "chi_psi", "additivity_gap",
    "capacity_gap", "holevo_gap", "lhs", "rhs", "relent_min_slack",
    "relent_saturation_gap", "certificate_gap",
}

DEFAULT_TOLERANCES = {
    "reconstruction": 1e-10,
    "identity_checks": 1e-10,
    "lieb_thirring": 1e-10,
    "norm_bound": 1e-9,
    "invariance": 1e-10,
    "multiplicativity": 1e-8,
    "product_saturation": 1e-6,
    "relent_bound": 1e-6,
    "relent_saturation": 1e-6,
    "additivity": 1e-4,
    "capacity_chain": 1e-8,
    "holevo_agreement": 1e-6,
    "measures_consistency": 1e-12,
}


# The largest --trials. A verify cell at d d' = 36 holds its trials as one
# (trials, 36, 36) complex stack: about 0.2 GB at this count.
MAX_TRIALS = 10_000


class ConfigError(ValueError):
    """Invalid run configuration; maps to the usage-error exit code."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(name: str, x) -> float:
    # A JSON integer can lie beyond float range.
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{name} holds an integer beyond float range") from None


def _entries(name: str, value, valid, kind: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not all(valid(x) for x in value):
        raise ConfigError(f"{name} must be a list of {kind}, got {value!r}")
    # A repeated entry would give two records of one cell the same digest.
    if len(set(value)) < len(value):
        raise ConfigError(f"{name} must not repeat an entry, got {value!r}")
    return tuple(value)


@dataclass
class RunConfig:
    dims: tuple = (2, 3)
    lambdas: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    p_grid: tuple = (1.5, 2.0, 3.0)
    trials: int = 100
    seed: int = 0
    out: str | None = None
    format: str = "json"
    bits: bool = False
    strict: bool = False
    unchecked_lambda: bool = False
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # Values from a config file arrive as whatever JSON held; check the
        # types before converting, so that 2.7 is not truncated to 2.
        self.dims = _entries("dims", self.dims, _is_int, "integers")
        self.lambdas = tuple(_float("lambdas", x) for x in _entries(
            "lambdas", self.lambdas, _is_number, "numbers"))
        self.p_grid = tuple(_float("p_grid", p) for p in _entries(
            "p_grid", self.p_grid, _is_number, "numbers"))
        if not self.dims or not self.lambdas or not self.p_grid:
            raise ConfigError("dims, lambdas and p-grid must be non-empty")
        if not all(math.isfinite(x) for x in self.lambdas + self.p_grid):
            raise ConfigError("lambdas and p-grid entries must be finite")
        for name in ("trials", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("bits", "strict", "unchecked_lambda"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(
                    f"{name} must be true or false, got {getattr(self, name)!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if any(d < 2 for d in self.dims):
            raise ConfigError("dimensions must be at least 2")
        if any(d > 6 for d in self.dims):
            raise ConfigError("dimensions above 6 are out of scope")
        if any(p < 1.0 for p in self.p_grid):
            raise ConfigError("p-grid entries must be >= 1")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must lie in 1..{MAX_TRIALS}, got {self.trials}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}, "
                              "expected json or csv")
        if not self.unchecked_lambda:
            for d in self.dims:
                lo = lambda_min(d)
                for lam in self.lambdas:
                    if not lo <= lam <= 1.0:
                        raise ConfigError(
                            f"lambda {lam} outside [{lo:.6f}, 1] for d={d}; "
                            "pass --unchecked-lambda to allow")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object of name: value")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides {sorted(unknown)}")
        for name, value in self.tolerances.items():
            if not (_is_number(value)
                    and 0.0 <= _float(f"tolerance {name}", value) < math.inf):
                raise ConfigError(f"tolerance {name} must be a finite "
                                  f"non-negative number, got {value!r}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def child_seed(root: int, *index) -> int:
    """Stable per-check seed derived from the root seed and a fixed index
    path, independent of execution order."""
    ss = np.random.SeedSequence([int(root)] + [int(i) for i in index])
    return int(ss.generate_state(1)[0])


def serialize_matrix(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "shape": list(a.shape),
        "re": [float(x) for x in a.real.reshape(-1)],
        "im": [float(x) for x in a.imag.reshape(-1)],
    }


def deserialize_matrix(d: dict) -> np.ndarray:
    shape = tuple(int(s) for s in d["shape"])
    re = np.array(d["re"], dtype=float).reshape(shape)
    im = np.array(d["im"], dtype=float).reshape(shape)
    return re + 1j * im


def _finite_or_none(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _finite_or_none(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return _finite_or_none(obj)
    return obj


@dataclass
class CheckRecord:
    name: str
    inputs: dict
    values: dict
    passed: bool
    slack: float | None = None
    seed: int | None = None
    witness: dict | None = None
    warning: str | None = None

    def __post_init__(self):
        if self.name not in CLAIM_REGISTRY:
            raise ValueError(f"check name {self.name!r} not in the claim registry")
        self.inputs = _sanitize(self.inputs)
        self.values = _sanitize(self.values)
        self.slack = _finite_or_none(
            None if self.slack is None else float(self.slack))

    @property
    def claim(self) -> str:
        return CLAIM_REGISTRY[self.name]

    @property
    def sort_key(self) -> str:
        parts = [self.name]
        for k in sorted(self.inputs):
            parts.append(f"{k}={self.inputs[k]}")
        return "|".join(parts)

    @property
    def digest(self) -> str:
        payload = json.dumps({"name": self.name, "inputs": self.inputs},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_dict(self, bits: bool = False) -> dict:
        values = dict(self.values)
        if bits:
            for k in values:
                if k in ENTROPY_VALUE_KEYS and isinstance(values[k], float):
                    values[k] = nats_to_bits(values[k])
        out = {
            "name": self.name,
            "claim": self.claim,
            "digest": self.digest,
            "inputs": self.inputs,
            "values": values,
            "slack": self.slack,
            "passed": self.passed,
            "seed": self.seed,
        }
        if self.warning is not None:
            out["warning"] = self.warning
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Report:
    def __init__(self, command: str, config: RunConfig,
                 records: list[CheckRecord]) -> None:
        self.command = command
        self.config = config
        self.records = sorted(records, key=lambda r: r.sort_key)
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def warnings(self) -> list[str]:
        return [f"{r.sort_key}: {r.warning}"
                for r in self.records if r.warning is not None]

    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {
            "total": len(self.records),
            "passed": passed,
            "failed": len(self.records) - passed,
            "warnings": len(self.warnings),
        }

    def to_dict(self) -> dict:
        return {
            "tool": "depolcap",
            "version": __version__,
            "command": self.command,
            "units": "bits" if self.config.bits else "nats",
            "config": asdict(self.config),
            "records": [r.to_dict(bits=self.config.bits) for r in self.records],
            "summary": self.summary(),
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def to_csv(self) -> str:
        """Flat table: one row per record, fixed leading columns, then the
        union of input and value keys in sorted order."""
        input_keys = sorted({k for r in self.records for k in r.inputs})
        value_keys = sorted({k for r in self.records for k in r.values
                             if not isinstance(r.values[k], (dict, list))})
        header = (["name", "digest", "passed", "slack", "seed"]
                  + [f"in_{k}" for k in input_keys]
                  + [f"val_{k}" for k in value_keys])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in self.records:
            d = r.to_dict(bits=self.config.bits)
            row = [r.name, r.digest, str(r.passed).lower(),
                   _csv_cell(d["slack"]), _csv_cell(r.seed)]
            row += [_csv_cell(r.inputs.get(k)) for k in input_keys]
            row += [_csv_cell(d["values"].get(k)) for k in value_keys]
            writer.writerow(row)
        return buf.getvalue()

    def render(self) -> str:
        if self.config.format == "csv":
            return self.to_csv()
        return self.to_json()


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def resolve_out_path(out: str | None, command: str, fmt: str) -> str | None:
    """Output location: an explicit path wins (relative paths land in the
    directory named by the environment when set), otherwise the environment
    directory with a default filename, otherwise stdout (None)."""
    env_dir = os.environ.get(ENV_OUT_DIR)
    if out is not None:
        if env_dir and not os.path.isabs(out):
            return os.path.join(env_dir, out)
        return out
    if env_dir:
        return os.path.join(env_dir, f"{command}-report.{fmt}")
    return None
