"""Jobs: one simulation described by primitives, and the one way to run it.

A :class:`JobSpec` is one (workload x design) simulation.  Sweeps build
specs (:func:`build_capacity_jobs`, :func:`build_policy_jobs`), the job
service parses them from client JSON (:meth:`JobSpec.from_dict`) and
``repro run`` builds one from its flags; all of them run specs through
:func:`execute_job`.  A spec holds only primitives, so it crosses process
boundaries cheaply and any process can rebuild its trace and configuration.

:attr:`JobSpec.job_id` (``workload/label[@engine]``) names a sweep cell in
checkpoint journals and failure reports.  :attr:`JobSpec.key`, a SHA-256
over the canonical fields, addresses the service's result store: two
submissions of the same simulation share a key whatever their field order,
so duplicates are free cache hits.  Results are deterministic functions of
the spec, so a key identifies a result, which is what lets the chaos
harness compare a faulted run with a clean one byte for byte.

``KEY_VERSION`` is folded into the hash: a change to the spec fields or to
simulation semantics that should invalidate stored results must bump it,
which retires every old key at once instead of silently serving stale data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..common.config import POLICY_LABELS, TelemetryConfig, policy_config
from ..common.errors import ProtocolError, WorkloadError
from ..common.integrity import canonical_json
from ..core.metrics import SimulationResult
from ..core.simulator import Simulator

# v2: workload-engine selection joined the spec (engine + engine_params);
# bumping retires every v1 key so cached results can never alias across
# the field change.
KEY_VERSION = 2


@dataclass(frozen=True)
class JobSpec:
    """One simulation, named by :attr:`job_id` and addressed by :attr:`key`."""

    workload: str
    design: str = "baseline"
    capacity_uops: int = 2048
    max_entries_per_line: int = 2
    num_instructions: int = 120_000
    warmup_instructions: int = 0
    seed: int = 7
    #: Workload engine and its parameters.  Parameters are normalized to a
    #: sorted tuple of (name, value) pairs so the spec stays hashable and
    #: two spellings of the same params produce the same content key.
    engine: str = "synthetic"
    engine_params: Tuple[Tuple[str, Any], ...] = ()
    #: The result's ``config_label``: the sweep-table column and the second
    #: part of :attr:`job_id`.  Empty means ``design``; capacity sweeps name
    #: their points ``OC_2K``, ``OC_4K`` and so on.
    label: str = ""
    #: Count telemetry events into ``SimulationResult.telemetry_events``.
    #: Such a job runs the stepped loop, the one that emits events.
    telemetry: bool = False

    def __post_init__(self) -> None:
        from ..workloads.engine import create_engine
        from ..workloads.suite import WORKLOAD_NAMES
        if self.workload not in WORKLOAD_NAMES:
            raise ProtocolError(
                f"unknown workload {self.workload!r}; "
                f"choose from {', '.join(WORKLOAD_NAMES)}")
        if self.design not in POLICY_LABELS:
            raise ProtocolError(
                f"unknown design {self.design!r}; "
                f"choose from {', '.join(POLICY_LABELS)}")
        for name in ("capacity_uops", "max_entries_per_line",
                     "num_instructions"):
            if getattr(self, name) <= 0:
                raise ProtocolError(f"{name} must be positive")
        if self.warmup_instructions < 0:
            raise ProtocolError("warmup_instructions must be >= 0")
        params = self.engine_params
        if isinstance(params, Mapping):
            params = tuple(params.items())
        try:
            normalized = tuple(sorted((str(name), value)
                                      for name, value in params))
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"engine_params must be a mapping or (name, value) "
                f"pairs: {error}") from error
        object.__setattr__(self, "engine_params", normalized)
        if not self.label:
            object.__setattr__(self, "label", self.design)
        try:
            # Instantiating validates the engine name and its parameter
            # names/types/ranges without running anything.
            create_engine(self.engine, workload=self.workload,
                          params=dict(normalized))
        except WorkloadError as error:
            raise ProtocolError(str(error)) from error

    @property
    def job_id(self) -> str:
        """Stable identity used for checkpointing and failure reports.

        Synthetic jobs keep the historical ``workload/label`` shape so old
        checkpoint journals still resume; other engines are suffixed so a
        checkpoint dir shared across engines never aliases cells.
        """
        base = f"{self.workload}/{self.label}"
        if self.engine == "synthetic" and not self.engine_params:
            return base
        return f"{base}@{self.engine}"

    def _set_fields(self) -> Dict[str, Any]:
        """Every field, but ``label`` and ``telemetry`` only when set.

        Leaving those two out at their defaults keeps every key computed
        before they joined the spec, while a spec that sets either (and so
        gets a different result) still hashes apart.
        """
        payload = {spec_field.name: getattr(self, spec_field.name)
                   for spec_field in fields(self)}
        if self.label == self.design:
            del payload["label"]
        if not self.telemetry:
            del payload["telemetry"]
        return payload

    def canonical(self) -> Dict[str, Any]:
        """The exact fields the content key hashes, version included."""
        payload: Dict[str, Any] = {"key_version": KEY_VERSION}
        payload.update(self._set_fields())
        return payload

    @property
    def key(self) -> str:
        """Content address: SHA-256 of the canonical spec JSON."""
        import hashlib   # here, not at the top: sweeps never hash
        digest = hashlib.sha256(
            canonical_json(self.canonical()).encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        payload = self._set_fields()
        payload["engine_params"] = dict(self.engine_params)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Parse an untrusted submission; :class:`ProtocolError` on junk.

        Unknown fields are rejected rather than ignored: a client that
        misspells ``seed`` must hear about it, not silently get the default
        (and a cache hit for a simulation it didn't ask for).
        """
        if not isinstance(data, Mapping):
            raise ProtocolError(
                f"job spec must be an object, got {type(data).__name__}")
        known = {spec_field.name: spec_field for spec_field in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ProtocolError(
                f"unknown job spec field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}")
        if "workload" not in data:
            raise ProtocolError("job spec is missing required field "
                                "'workload'")
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if name in ("workload", "design", "engine", "label"):
                if not isinstance(value, str):
                    raise ProtocolError(f"field {name!r} must be a string")
            elif name == "telemetry":
                if not isinstance(value, bool):
                    raise ProtocolError("field 'telemetry' must be a "
                                        "boolean")
            elif name == "engine_params":
                if not isinstance(value, Mapping):
                    raise ProtocolError(
                        "field 'engine_params' must be an object")
                for param, param_value in value.items():
                    if not isinstance(param, str):
                        raise ProtocolError(
                            "engine_params keys must be strings")
                    if isinstance(param_value, bool) or not isinstance(
                            param_value, (str, int, float)):
                        raise ProtocolError(
                            f"engine_params[{param!r}] must be a string "
                            "or number")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"field {name!r} must be an integer")
            kwargs[name] = value
        return cls(**kwargs)


def capacity_label(capacity_uops: int) -> str:
    """The sweep-table label of one capacity point (e.g. ``OC_2K``)."""
    return f"OC_{capacity_uops // 1024}K"


def build_capacity_jobs(workloads: Sequence[str],
                        capacities: Sequence[int],
                        num_instructions: int,
                        warmup_instructions: int = 0,
                        seed: int = 7,
                        telemetry: bool = False,
                        engine: str = "synthetic",
                        engine_params: Optional[Mapping[str, Any]] = None
                        ) -> List[JobSpec]:
    """Specs of a Fig. 3/4 capacity sweep, in canonical (workload-major)
    order: the baseline design at each capacity."""
    params = tuple(sorted((engine_params or {}).items()))
    return [JobSpec(workload=name, capacity_uops=capacity,
                    num_instructions=num_instructions,
                    warmup_instructions=warmup_instructions, seed=seed,
                    engine=engine, engine_params=params,
                    label=capacity_label(capacity), telemetry=telemetry)
            for name in workloads for capacity in capacities]


def build_policy_jobs(workloads: Sequence[str],
                      labels: Sequence[str],
                      capacity_uops: int,
                      max_entries_per_line: int,
                      num_instructions: int,
                      warmup_instructions: int = 0,
                      seed: int = 7,
                      telemetry: bool = False,
                      engine: str = "synthetic",
                      engine_params: Optional[Mapping[str, Any]] = None
                      ) -> List[JobSpec]:
    """Specs of a Fig. 15-22 policy sweep, one per design in ``labels``,
    in canonical order."""
    params = tuple(sorted((engine_params or {}).items()))
    return [JobSpec(workload=name, design=design,
                    capacity_uops=capacity_uops,
                    max_entries_per_line=max_entries_per_line,
                    num_instructions=num_instructions,
                    warmup_instructions=warmup_instructions, seed=seed,
                    engine=engine, engine_params=params, telemetry=telemetry)
            for name in workloads for design in labels]


def execute_job(spec: JobSpec) -> SimulationResult:
    """Run one spec to completion in the current process.

    Sweeps (serial and forked), service workers and ``repro run`` all run
    specs here, so the same spec gives the same result on every path: the
    trace and configuration are rebuilt deterministically from the spec's
    primitives, and the simulator checks its invariants strictly.

    Counters-only specs take the fast serve loop; telemetry specs keep the
    stepped loop, the one that emits events.  The two give equal results.
    The fast loop's trace views stay cached: only a caller that knows it is
    done with a trace may release them, as the sweep runner does between
    traces (:func:`repro.core.fastpath.release_views`).
    """
    # Imported here: experiment.py builds its sweeps on top of this module,
    # so a module-level import would be circular.
    from ..core.experiment import workload_trace

    config = dataclasses.replace(
        policy_config(spec.design, spec.capacity_uops,
                      spec.max_entries_per_line),
        warmup_instructions=spec.warmup_instructions)
    if spec.telemetry:
        config = dataclasses.replace(
            config, telemetry=TelemetryConfig(enabled=True))
    else:
        config = config.with_fast_mode()
    trace = workload_trace(spec.workload, spec.num_instructions,
                           seed=spec.seed, engine=spec.engine,
                           engine_params=dict(spec.engine_params))
    return Simulator(trace, config, spec.label, strict=True).run()
