"""The declarative operator DAG: typed stage nodes over table-level workflows.

A *flow* composes the paper's four isolated tasks into one end-to-end data
preparation pipeline: detect errors, repair them, then match the cleaned
tables.  The graph layer is purely structural — no stage runs here:

- a :class:`StageNode` names one operator (``detect_errors``,
  ``impute_missing``, ``match_schemas``, ``match_entities``) and wires its
  input *ports* to upstream references;
- a reference is either ``inputs.<name>`` (a table handed to the engine at
  run time) or the name of another stage whose output feeds this port;
- edges are **typed**: table ports only accept producers of tables (flow
  inputs, ``detect_errors``, ``impute_missing``) — wiring a matching
  stage's pair list into a table port is a :class:`~repro.errors.ConfigError`
  at construction, not a crash mid-run.

Scheduling is deterministic and *insertion-order free*:
:meth:`FlowGraph.topological_order` is Kahn's algorithm with the ready set
kept lexicographically sorted, so the order is a pure function of the set
of stages and their edges — two programs that declare the same stages in
any order run them identically, which is what makes flow journals
addressable across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ConfigError

#: prefix a reference uses to name a flow input instead of a stage
INPUT_PREFIX = "inputs."

#: the operators a stage may declare, with their required input ports
STAGE_PORTS: dict[str, tuple[str, ...]] = {
    "detect_errors": ("table",),
    "impute_missing": ("table",),
    "match_schemas": ("left", "right"),
    "match_entities": ("left", "right"),
}

#: what each operator's output edge carries
STAGE_OUTPUT: dict[str, str] = {
    "detect_errors": "table",
    "impute_missing": "table",
    "match_schemas": "matches",
    "match_entities": "matches",
}

#: parameters each operator accepts (every kind also takes ``config`` —
#: per-stage PipelineConfig overrides — and ``fewshot``)
STAGE_PARAMS: dict[str, tuple[str, ...]] = {
    "detect_errors": ("attributes", "config", "fewshot"),
    "impute_missing": ("attribute", "type_hint", "config", "fewshot"),
    "match_schemas": ("config", "fewshot"),
    "match_entities": (
        "blocking_attribute", "blocking_method", "config", "fewshot"
    ),
}

#: parameters an operator cannot run without
REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "impute_missing": ("attribute",),
}


def is_input_ref(ref: str) -> bool:
    """Whether ``ref`` names a flow input rather than a stage."""
    return ref.startswith(INPUT_PREFIX)


def input_name(ref: str) -> str:
    """The flow-input name inside an ``inputs.<name>`` reference."""
    return ref[len(INPUT_PREFIX):]


@dataclass(frozen=True)
class StageNode:
    """One declared operator: a name, a kind, wired ports, and parameters.

    ``inputs`` maps each of the kind's ports to an upstream reference;
    ``params`` carries operator-specific knobs (attributes to scan, the
    attribute to impute, blocking settings, per-stage config overrides,
    a few-shot pool declaration).  Nodes are plain declarations — all
    validation happens when they join a :class:`FlowGraph`.
    """

    name: str
    kind: str
    inputs: tuple[tuple[str, str], ...] = ()
    params: dict = field(default_factory=dict)

    @classmethod
    def make(
        cls,
        name: str,
        kind: str,
        inputs: Mapping[str, str],
        params: Mapping[str, object] | None = None,
    ) -> "StageNode":
        """Build a node from a port→reference mapping (ports sorted)."""
        return cls(
            name=name,
            kind=kind,
            inputs=tuple(sorted((str(p), str(r)) for p, r in inputs.items())),
            params=dict(params or {}),
        )

    @property
    def input_map(self) -> dict[str, str]:
        return dict(self.inputs)

    def upstream_stages(self) -> tuple[str, ...]:
        """Stage names (not flow inputs) this node consumes, sorted."""
        return tuple(sorted(
            ref for __, ref in self.inputs if not is_input_ref(ref)
        ))

    def spec_payload(self) -> dict:
        """The node as canonical plain data (for fingerprints and specs)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "inputs": {port: ref for port, ref in self.inputs},
            "params": dict(self.params),
        }


class FlowGraph:
    """A validated DAG of stages over a set of named flow inputs.

    Construction performs the full static check: stage names are unique
    and filesystem-safe (they name journal files), kinds are known, every
    required port is wired and no unknown port appears, references
    resolve, table ports only consume table producers, and the graph is
    acyclic.  Every violation raises :class:`~repro.errors.ConfigError`
    naming the stage and the problem.
    """

    def __init__(
        self,
        stages: Sequence[StageNode] | Iterable[StageNode],
        inputs: Sequence[str] | Iterable[str] = (),
    ):
        self.inputs: tuple[str, ...] = tuple(sorted(set(str(i) for i in inputs)))
        by_name: dict[str, StageNode] = {}
        for stage in stages:
            self._check_name(stage)
            if stage.name in by_name:
                raise ConfigError(
                    f"duplicate stage name {stage.name!r} in flow graph"
                )
            by_name[stage.name] = stage
        if not by_name:
            raise ConfigError("a flow graph needs at least one stage")
        #: stages keyed by name, stored sorted so no structure of this
        #: object depends on declaration order
        self.stages: dict[str, StageNode] = {
            name: by_name[name] for name in sorted(by_name)
        }
        for stage in self.stages.values():
            self._check_ports(stage)
            self._check_refs(stage)
        self._order = self._topological_order()

    # -- validation -------------------------------------------------------

    @staticmethod
    def _check_name(stage: StageNode) -> None:
        if not stage.name:
            raise ConfigError("a stage has an empty name")
        if is_input_ref(stage.name):
            raise ConfigError(
                f"stage name {stage.name!r} collides with the "
                f"{INPUT_PREFIX!r} reference namespace"
            )
        if any(ch in stage.name for ch in "./\\ "):
            raise ConfigError(
                f"stage name {stage.name!r} must not contain '.', '/', "
                f"'\\' or spaces (stage names address journal files)"
            )

    @staticmethod
    def _check_ports(stage: StageNode) -> None:
        if stage.kind not in STAGE_PORTS:
            raise ConfigError(
                f"stage {stage.name!r} has unknown kind {stage.kind!r}; "
                f"expected one of: {', '.join(sorted(STAGE_PORTS))}"
            )
        wired = {port for port, __ in stage.inputs}
        required = set(STAGE_PORTS[stage.kind])
        missing = required - wired
        if missing:
            raise ConfigError(
                f"stage {stage.name!r} ({stage.kind}) leaves required "
                f"port(s) unwired: {', '.join(sorted(missing))}"
            )
        unknown = wired - required
        if unknown:
            raise ConfigError(
                f"stage {stage.name!r} ({stage.kind}) wires unknown "
                f"port(s): {', '.join(sorted(unknown))}; this kind has "
                f"port(s) {', '.join(STAGE_PORTS[stage.kind])}"
            )
        if len(stage.inputs) != len(wired):
            raise ConfigError(
                f"stage {stage.name!r} wires a port twice"
            )
        allowed = set(STAGE_PARAMS[stage.kind])
        bad = sorted(set(stage.params) - allowed)
        if bad:
            raise ConfigError(
                f"stage {stage.name!r} ({stage.kind}) has unknown "
                f"parameter(s): {', '.join(bad)}; this kind accepts "
                f"{', '.join(STAGE_PARAMS[stage.kind])}"
            )
        for required in REQUIRED_PARAMS.get(stage.kind, ()):
            if required not in stage.params:
                raise ConfigError(
                    f"stage {stage.name!r} ({stage.kind}) is missing "
                    f"required parameter {required!r}"
                )

    def _check_refs(self, stage: StageNode) -> None:
        for port, ref in stage.inputs:
            if is_input_ref(ref):
                name = input_name(ref)
                if name not in self.inputs:
                    raise ConfigError(
                        f"stage {stage.name!r} port {port!r} references "
                        f"unknown flow input {name!r}; declared inputs: "
                        f"{', '.join(self.inputs) or '<none>'}"
                    )
                continue
            if ref not in self.stages:
                raise ConfigError(
                    f"stage {stage.name!r} port {port!r} references "
                    f"unknown stage {ref!r}"
                )
            produced = STAGE_OUTPUT[self.stages[ref].kind]
            if produced != "table":
                raise ConfigError(
                    f"stage {stage.name!r} port {port!r} consumes a table "
                    f"but upstream stage {ref!r} "
                    f"({self.stages[ref].kind}) produces {produced}"
                )

    # -- scheduling -------------------------------------------------------

    def _topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with a lexicographically sorted ready set.

        The result is a pure function of the graph: node insertion order
        never influences it, because both the dependency map and the
        ready set are kept sorted by stage name.
        """
        blocked: dict[str, set[str]] = {
            name: set(stage.upstream_stages())
            for name, stage in self.stages.items()
        }
        ready = sorted(name for name, deps in blocked.items() if not deps)
        order: list[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            newly_ready = []
            for name, deps in blocked.items():
                if current in deps:
                    deps.discard(current)
                    if not deps and name not in order:
                        newly_ready.append(name)
            ready = sorted(set(ready) | set(newly_ready))
        if len(order) != len(self.stages):
            cyclic = sorted(
                name for name, deps in blocked.items() if deps
            )
            raise ConfigError(
                f"flow graph has a cycle involving stage(s): "
                f"{', '.join(cyclic)}"
            )
        return tuple(order)

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    # -- introspection ----------------------------------------------------

    def spec_payload(self) -> dict:
        """The whole graph as canonical plain data (fingerprint input)."""
        return {
            "inputs": list(self.inputs),
            "stages": [
                self.stages[name].spec_payload()
                for name in sorted(self.stages)
            ],
        }

    def describe(self) -> str:
        """A human-readable summary: inputs, stages, edges, schedule."""
        lines = [f"inputs: {', '.join(self.inputs) or '<none>'}"]
        for position, name in enumerate(self._order, start=1):
            stage = self.stages[name]
            wires = ", ".join(
                f"{port}<-{ref}" for port, ref in stage.inputs
            )
            lines.append(
                f"{position}. {name} [{stage.kind}] {wires}"
            )
        return "\n".join(lines)
