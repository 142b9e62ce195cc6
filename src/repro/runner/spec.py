"""Declarative campaign specifications.

A *campaign* is a grid of (algorithm × adversary × predicate × n ×
seeds) cells, each executed for a number of independently seeded runs.
Campaigns are described by plain-data specs so that they can be

* expanded deterministically into concrete :class:`RunSpec`s,
* hashed into stable cache keys (same spec → same key, across
  processes and interpreter invocations), and
* serialised to/from JSON for the ``repro campaign --spec`` CLI path.

Seed derivation is cryptographic (SHA-256 over the cell configuration
and run index), so per-run seeds are reproducible, independent of
Python's randomised string hashing, and statistically independent
across cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

#: Bump when the cached record layout (or run semantics) changes in a
#: way that invalidates previously cached results.
#: 2: strict (non-lossy) cache serialisation + reduced records with
#:    reducer-fingerprinted keys.
CACHE_SCHEMA_VERSION = 2


def stable_hash(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``payload``.

    Canonical means sorted keys and no insignificant whitespace, so the
    digest is stable across interpreter invocations and processes
    (unlike the built-in ``hash``, which is randomised for strings).
    """
    # repro-lint: ignore[S401]: canonical cache-key encoding, frozen since PR 1 — adding allow_nan=False or dropping default=str would change digests and invalidate every existing cache
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def derive_seed(base_seed: int, cell_key: str, run_index: int) -> int:
    """Deterministic 63-bit per-run seed from (campaign seed, cell, run)."""
    material = f"{base_seed}|{cell_key}|{run_index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1


def _validate_backend(backend: Optional[str]) -> None:
    """Fail at spec-construction time (with the registry's did-you-mean)
    instead of once per run inside the workers.  Imported lazily: this
    module is otherwise dependency-free."""
    if backend is not None:
        from repro.simulation.backends import get_backend

        get_backend(backend)


def cell_cache_key(**fields: object) -> str:
    """Stable cache-key prefix for one experiment cell.

    Experiment drivers call this with every input that determines the
    cell's results (experiment id, n, alpha, runs, seed, max_rounds,
    thresholds, adversary description, ...); the schema version is mixed
    in so stale cache entries are never reused across format changes.
    """
    return stable_hash({"schema": CACHE_SCHEMA_VERSION, **fields})


# ----------------------------------------------------------------------
# Component specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm by registry name plus constructor parameters."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlgorithmSpec":
        return cls(name=str(data["name"]), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class AdversarySpec:
    """An adversary by runner-factory name plus parameters."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdversarySpec":
        return cls(name=str(data["name"]), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class WorkloadSpec:
    """An initial-value workload by generator name plus parameters."""

    name: str = "random"
    params: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(name=str(data.get("name", "random")), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class PredicateSpec:
    """A communication predicate by name plus parameters."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredicateSpec":
        return cls(name=str(data["name"]), params=dict(data.get("params", {})))


# ----------------------------------------------------------------------
# Concrete runs and the campaign grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully concrete simulation run of a campaign.

    Everything that determines the run's result is part of this spec, so
    :meth:`config_hash` is a sound cache key.
    """

    algorithm: AlgorithmSpec
    adversary: AdversarySpec
    workload: WorkloadSpec
    n: int
    seed: int
    run_index: int
    max_rounds: int = 60
    min_rounds: int = 0
    predicate: Optional[PredicateSpec] = None
    #: Engine backend for this run (``None`` = the runner's default).
    #: Result-identical backends never change a run's result, so the
    #: backend is deliberately *excluded* from
    #: :meth:`as_dict`/:meth:`config_hash`; the runner additionally
    #: refuses to cache runs on backends that are not result-identical.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_backend(self.backend)

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm.as_dict(),
            "adversary": self.adversary.as_dict(),
            "workload": self.workload.as_dict(),
            "n": self.n,
            "seed": self.seed,
            "run_index": self.run_index,
            "max_rounds": self.max_rounds,
            "min_rounds": self.min_rounds,
            "predicate": self.predicate.as_dict() if self.predicate else None,
        }

    def config_hash(self) -> str:
        return stable_hash({"schema": CACHE_SCHEMA_VERSION, **self.as_dict()})

    def cell(self) -> Dict[str, object]:
        """The grid-cell identity of this run (everything but seed/index)."""
        return {
            "algorithm": self.algorithm.name,
            "algorithm_params": dict(self.algorithm.params),
            "adversary": self.adversary.name,
            "adversary_params": dict(self.adversary.params),
            "n": self.n,
            "predicate": self.predicate.name if self.predicate else None,
        }


@dataclass
class CampaignSpec:
    """A declarative grid of runs: algorithms × adversaries × ns × runs.

    ``expand()`` produces the full, deterministically ordered and
    deterministically seeded list of :class:`RunSpec`s; two expansions of
    equal specs yield byte-identical run configurations.
    """

    campaign_id: str
    algorithms: Sequence[AlgorithmSpec]
    adversaries: Sequence[AdversarySpec]
    ns: Sequence[int]
    runs: int = 10
    base_seed: int = 0
    max_rounds: int = 60
    min_rounds: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    predicates: Sequence[Optional[PredicateSpec]] = (None,)
    #: Engine backend for every run of the grid (``None`` = the
    #: runner's default).  Semantically invisible, so it participates
    #: in the JSON round-trip but never in run cache keys.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not self.algorithms or not self.adversaries or not self.ns:
            raise ValueError("campaign needs at least one algorithm, adversary and n")
        _validate_backend(self.backend)

    # -- expansion ---------------------------------------------------------------
    def cells(self) -> Iterator[Dict[str, object]]:
        for algorithm in self.algorithms:
            for adversary in self.adversaries:
                for predicate in self.predicates or (None,):
                    for n in self.ns:
                        yield {
                            "algorithm": algorithm,
                            "adversary": adversary,
                            "predicate": predicate,
                            "n": n,
                        }

    def expand(self) -> List[RunSpec]:
        specs: List[RunSpec] = []
        for cell in self.cells():
            cell_key = stable_hash(
                {
                    "algorithm": cell["algorithm"].as_dict(),
                    "adversary": cell["adversary"].as_dict(),
                    "predicate": cell["predicate"].as_dict() if cell["predicate"] else None,
                    "n": cell["n"],
                    "workload": self.workload.as_dict(),
                    "max_rounds": self.max_rounds,
                    "min_rounds": self.min_rounds,
                }
            )
            for run_index in range(self.runs):
                specs.append(
                    RunSpec(
                        algorithm=cell["algorithm"],
                        adversary=cell["adversary"],
                        predicate=cell["predicate"],
                        workload=self.workload,
                        n=cell["n"],
                        seed=derive_seed(self.base_seed, cell_key, run_index),
                        run_index=run_index,
                        max_rounds=self.max_rounds,
                        min_rounds=self.min_rounds,
                        backend=self.backend,
                    )
                )
        return specs

    # -- serialisation -----------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        data = {
            "campaign_id": self.campaign_id,
            "algorithms": [a.as_dict() for a in self.algorithms],
            "adversaries": [a.as_dict() for a in self.adversaries],
            "ns": list(self.ns),
            "runs": self.runs,
            "base_seed": self.base_seed,
            "max_rounds": self.max_rounds,
            "min_rounds": self.min_rounds,
            "workload": self.workload.as_dict(),
            "predicates": [p.as_dict() if p else None for p in self.predicates],
        }
        # Only emitted when set: keeps the config hash of existing specs
        # stable, and the backend never affects results anyway.
        if self.backend is not None:
            data["backend"] = self.backend
        return data

    def config_hash(self) -> str:
        return stable_hash({"schema": CACHE_SCHEMA_VERSION, **self.as_dict()})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return cls(
            campaign_id=str(data["campaign_id"]),
            algorithms=[AlgorithmSpec.from_dict(a) for a in data["algorithms"]],
            adversaries=[AdversarySpec.from_dict(a) for a in data["adversaries"]],
            ns=[int(n) for n in data["ns"]],
            runs=int(data.get("runs", 10)),
            base_seed=int(data.get("base_seed", 0)),
            max_rounds=int(data.get("max_rounds", 60)),
            min_rounds=int(data.get("min_rounds", 0)),
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            predicates=[
                PredicateSpec.from_dict(p) if p else None
                for p in data.get("predicates", [None])
            ],
            backend=data.get("backend"),
        )

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_json(self, path: Union[str, Path]) -> None:
        # repro-lint: ignore[A301]: writes a spec file to a path the user asked for (e.g. `repro-ho campaign --spec out.json` tooling); it is not shared queue/cache state, so the crash-atomic CacheStore publish protocol does not apply
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True, allow_nan=False),
            encoding="utf-8",
        )
