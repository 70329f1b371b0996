"""Declarative, JSON-serializable run requests and responses.

A :class:`RunSpec` is the single request format understood by
:class:`~repro.api.session.Session`: it names components from the registries
(:mod:`repro.api.registry`) and carries overrides, seeds and a worker count.
Three kinds exist:

``simulate``
    Simulate a set of workload proxies and report per-program AVF/SER rows.
``stressmark``
    Run the GA stressmark search for one (config, fault-rate) scenario.
``sweep``
    A batch of runs: either an explicit ``runs`` list, or a ``base`` spec
    expanded over the Cartesian product of ``axes`` (e.g. every fault-rate
    model x both machine configurations).

Specs are plain data: ``RunSpec.from_json`` / ``to_json`` round-trip, and
``spec.digest`` is a stable content hash recorded in every
:class:`RunResult`'s provenance, so any result JSON can be traced back to
the exact request that produced it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Mapping, Optional

from repro.api import components as _components  # noqa: F401  (installs registries)
from repro.api.registry import (
    CONFIGS,
    FAULT_RATES,
    FITNESS_OBJECTIVES,
    SCALES,
    WORKLOAD_SUITES,
    suggest as _suggest,
)
from repro.experiments.runner import ExperimentScale
from repro.uarch.config import MachineConfig

#: The request kinds a Session understands.
RUN_KINDS = ("simulate", "stressmark", "sweep")

#: RunSpec fields a sweep's ``axes`` may vary.
SWEEPABLE_FIELDS = ("config", "fault_rates", "fitness", "scale", "seed", "suites", "workloads")


class SpecError(ValueError):
    """A spec document failed validation."""


def _field_names(datacls) -> list[str]:
    return [f.name for f in dataclass_fields(datacls)]


@dataclass(frozen=True)
class RunSpec:
    """One declarative run request (JSON-serializable, content-addressable).

    Component fields (``config``, ``fault_rates``, ``fitness``, ``scale``,
    ``suites``) hold registry *names*; ``config_overrides`` /
    ``scale_overrides`` are keyword overrides applied via
    ``MachineConfig.derive`` / ``ExperimentScale.derive``.  ``seed``
    overrides the GA seed of a stressmark search.  ``jobs`` picks the
    evaluation backend: one job runs in-process, more run the resilient
    worker pool.  ``retries`` / ``task_timeout`` tune that pool's
    :class:`~repro.parallel.resilience.RetryPolicy` (max attempts per item,
    per-item deadline in seconds); unset means the ``REPRO_RETRY_*``
    environment (or library defaults) applies.
    Sweep-only fields: ``base``, ``axes``, ``runs``.
    """

    kind: str
    name: str = ""
    config: str = "baseline"
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    fault_rates: str = "unit"
    suites: tuple[str, ...] = ()
    workloads: tuple[str, ...] = ()
    fitness: str = "balanced"
    scale: str = "quick"
    scale_overrides: Mapping[str, object] = field(default_factory=dict)
    jobs: Optional[int] = None
    seed: Optional[int] = None
    retries: Optional[int] = None
    task_timeout: Optional[float] = None
    base: Optional["RunSpec"] = None
    axes: Mapping[str, tuple] = field(default_factory=dict)
    runs: tuple["RunSpec", ...] = ()

    # ------------------------------------------------------------ validation

    def validate(self) -> "RunSpec":
        """Check shape and registry names; returns self so calls chain."""
        if self.kind not in RUN_KINDS:
            raise SpecError(
                f"unknown run kind {self.kind!r}{_suggest(self.kind, RUN_KINDS)} "
                f"(expected one of: {', '.join(RUN_KINDS)})"
            )
        self._check_component_names()
        self._check_overrides("config_overrides", self.config_overrides, _field_names(MachineConfig))
        self._check_overrides("scale_overrides", self.scale_overrides, _field_names(ExperimentScale))
        if self.jobs is not None and (not isinstance(self.jobs, int) or self.jobs < 1):
            raise SpecError(f"jobs must be a positive integer, got {self.jobs!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if self.retries is not None and (not isinstance(self.retries, int) or self.retries < 1):
            raise SpecError(f"retries must be a positive integer, got {self.retries!r}")
        if self.task_timeout is not None and (
            not isinstance(self.task_timeout, (int, float))
            or isinstance(self.task_timeout, bool)
            or self.task_timeout <= 0
        ):
            raise SpecError(f"task_timeout must be a positive number, got {self.task_timeout!r}")
        if self.kind == "sweep":
            self._validate_sweep()
        elif self.base is not None or self.axes or self.runs:
            raise SpecError(f"base/axes/runs are only valid for kind='sweep', not {self.kind!r}")
        return self

    def _check_component_names(self) -> None:
        CONFIGS.get(self.config)
        FAULT_RATES.get(self.fault_rates)
        FITNESS_OBJECTIVES.get(self.fitness)
        SCALES.get(self.scale)
        for suite in self.suites:
            WORKLOAD_SUITES.get(suite)

    @staticmethod
    def _check_overrides(label: str, overrides: Mapping[str, object], known: list[str]) -> None:
        if not isinstance(overrides, Mapping):
            raise SpecError(f"{label} must be a mapping, got {type(overrides).__name__}")
        for key in overrides:
            if key not in known:
                raise SpecError(f"unknown {label} field {key!r}{_suggest(key, known)}")

    def _validate_sweep(self) -> None:
        if not self.axes and not self.runs:
            raise SpecError("a sweep needs 'axes' (with a 'base' spec) and/or explicit 'runs'")
        if self.axes and self.base is None:
            raise SpecError("a sweep with 'axes' needs a 'base' spec to expand")
        # Component fields live on the children; a sweep-level value would be
        # silently ignored, so reject anything off its default (jobs and the
        # retry knobs are the exceptions — expand() inherits them into
        # children).
        defaults = RunSpec(kind="sweep")
        for leaf_field in ("config", "config_overrides", "fault_rates", "suites", "workloads",
                           "fitness", "scale", "scale_overrides", "seed"):
            if getattr(self, leaf_field) != getattr(defaults, leaf_field):
                raise SpecError(
                    f"{leaf_field!r} is ignored on a sweep — set it on the 'base' spec "
                    f"or the entries of 'runs' (or sweep over it via 'axes')"
                )
        for axis, values in self.axes.items():
            if axis not in SWEEPABLE_FIELDS:
                raise SpecError(
                    f"cannot sweep over field {axis!r}{_suggest(axis, SWEEPABLE_FIELDS)} "
                    f"(sweepable: {', '.join(SWEEPABLE_FIELDS)})"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(f"sweep axis {axis!r} must be a non-empty list of values")
        for child in self.expand():
            if child.kind == "sweep":
                raise SpecError("sweeps cannot nest: every expanded run must be simulate/stressmark")
            child.validate()

    # ------------------------------------------------------------- expansion

    def expand(self) -> list["RunSpec"]:
        """Children of a sweep (axes product first, then explicit runs).

        Sweep-level ``jobs`` / ``retries`` / ``task_timeout`` are inherited
        by children that do not set their own.
        """
        if self.kind != "sweep":
            return [self]
        children: list[RunSpec] = []
        if self.axes and self.base is not None:
            keys = list(self.axes)
            for combo in itertools.product(*(tuple(self.axes[key]) for key in keys)):
                overrides: dict[str, object] = {}
                for key, value in zip(keys, combo):
                    overrides[key] = tuple(value) if key in ("suites", "workloads") else value
                label = ",".join(f"{key}={value}" for key, value in zip(keys, combo))
                stem = self.base.name or self.name or "sweep"
                children.append(replace(self.base, name=f"{stem}[{label}]", **overrides))
        children.extend(self.runs)
        return [self._inherit(child) for child in children]

    def _inherit(self, child: "RunSpec") -> "RunSpec":
        overrides: dict[str, object] = {}
        if child.jobs is None and self.jobs is not None:
            overrides["jobs"] = self.jobs
        if child.retries is None and self.retries is not None:
            overrides["retries"] = self.retries
        if child.task_timeout is None and self.task_timeout is not None:
            overrides["task_timeout"] = self.task_timeout
        return replace(child, **overrides) if overrides else child

    def replace(self, **overrides: object) -> "RunSpec":
        """A copy with fields overridden (``dataclasses.replace``)."""
        return replace(self, **overrides)

    # ---------------------------------------------------------------- (de)ser

    def to_json_dict(self) -> dict:
        """Full, canonically ordered JSON form (the digest input)."""
        data: dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "config": self.config,
            "config_overrides": _jsonify(self.config_overrides),
            "fault_rates": self.fault_rates,
            "suites": list(self.suites),
            "workloads": list(self.workloads),
            "fitness": self.fitness,
            "scale": self.scale,
            "scale_overrides": _jsonify(self.scale_overrides),
            "jobs": self.jobs,
            # Specs once named an evaluation backend here.  Every digest
            # recorded so far hashed this slot, so it stays, always empty.
            "backend": "",
            "seed": self.seed,
        }
        # Resilience knobs are emitted only when set: digests of specs that
        # never mention them are unchanged, so results stored before these
        # fields existed still match their specs.
        if self.retries is not None:
            data["retries"] = self.retries
        if self.task_timeout is not None:
            data["task_timeout"] = self.task_timeout
        if self.kind == "sweep":
            data["base"] = self.base.to_json_dict() if self.base is not None else None
            data["axes"] = {key: list(values) for key, values in self.axes.items()}
            data["runs"] = [run.to_json_dict() for run in self.runs]
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        """Build a spec from a (possibly sparse) JSON mapping."""
        if not isinstance(data, Mapping):
            raise SpecError(f"a spec must be a JSON object, got {type(data).__name__}")
        known = _field_names(cls)
        kwargs: dict[str, object] = {}
        for key, value in data.items():
            if key in ("kernel_backend", "backend"):
                # Older specs could pin a kernel plane or an evaluation
                # backend, neither of which changed a result; dropped, such a
                # spec is (and digests as) its unpinned twin.
                continue
            if key not in known:
                raise SpecError(f"unknown spec field {key!r}{_suggest(key, known)}")
            kwargs[key] = value
        if "kind" not in kwargs:
            raise SpecError(f"a spec needs a 'kind' field (one of: {', '.join(RUN_KINDS)})")
        for key in ("suites", "workloads"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])  # type: ignore[arg-type]
        if kwargs.get("base") is not None and not isinstance(kwargs["base"], RunSpec):
            kwargs["base"] = cls.from_json_dict(kwargs["base"])  # type: ignore[arg-type]
        if "axes" in kwargs:
            kwargs["axes"] = {key: tuple(values) for key, values in dict(kwargs["axes"]).items()}  # type: ignore[union-attr]
        if "runs" in kwargs:
            kwargs["runs"] = tuple(
                run if isinstance(run, RunSpec) else cls.from_json_dict(run)
                for run in kwargs["runs"]  # type: ignore[union-attr]
            )
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "RunSpec":
        """Load and validate a spec from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        return cls.from_json(text).validate()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    # ---------------------------------------------------------------- digest

    @property
    def digest(self) -> str:
        """Stable sha256 content digest of the canonical JSON form."""
        canonical = json.dumps(self.to_json_dict(), separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Human-readable identifier used in printed output."""
        return self.name or f"{self.kind}:{self.config}/{self.fault_rates}"


def _jsonify(mapping: Mapping[str, object]) -> dict:
    """Deep-copy a (possibly nested) override mapping into plain dicts."""
    out: dict[str, object] = {}
    for key, value in mapping.items():
        out[key] = _jsonify(value) if isinstance(value, Mapping) else value
    return out


def _repro_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


@dataclass
class RunResult:
    """The JSON-serializable response to one :class:`RunSpec`.

    ``rows`` are flat table rows (one per simulated program); stressmark
    runs additionally carry the winning ``knobs`` table, per-group ``ser``
    and GA statistics (``ga``).  Sweeps hold per-child results in
    ``children`` with ``rows`` concatenated for convenience.  ``provenance``
    records the spec digest, repro version and resolved component names so a
    reloaded result is attributable without the original process.
    """

    spec: RunSpec
    rows: list[dict] = field(default_factory=list)
    knobs: Optional[dict] = None
    ser: Optional[dict] = None
    ga: Optional[dict] = None
    timing: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    children: list["RunResult"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def spec_digest(self) -> str:
        return str(self.provenance.get("spec_digest", self.spec.digest))

    # ---------------------------------------------------------------- (de)ser

    def to_json_dict(self) -> dict:
        data: dict[str, object] = {
            "spec": self.spec.to_json_dict(),
            "rows": self.rows,
            "knobs": self.knobs,
            "ser": self.ser,
            "ga": self.ga,
            "timing": self.timing,
            "provenance": self.provenance,
        }
        if self.children:
            data["children"] = [child.to_json_dict() for child in self.children]
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "RunResult":
        return cls(
            spec=RunSpec.from_json_dict(data["spec"]),  # type: ignore[arg-type]
            rows=list(data.get("rows") or []),  # type: ignore[arg-type]
            knobs=data.get("knobs"),  # type: ignore[arg-type]
            ser=data.get("ser"),  # type: ignore[arg-type]
            ga=data.get("ga"),  # type: ignore[arg-type]
            timing=dict(data.get("timing") or {}),  # type: ignore[arg-type]
            provenance=dict(data.get("provenance") or {}),  # type: ignore[arg-type]
            children=[cls.from_json_dict(child) for child in data.get("children") or []],  # type: ignore[union-attr]
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_json_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls.from_json(Path(path).read_text())


def build_provenance(spec: RunSpec, **resolved: object) -> dict:
    """Standard provenance block shared by every result the Session emits."""
    return {
        "spec_digest": spec.digest,
        "repro_version": _repro_version(),
        "kind": spec.kind,
        **resolved,
    }
