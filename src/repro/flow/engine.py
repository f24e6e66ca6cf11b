"""The flow executor: run a stage DAG with per-stage checkpoints.

:class:`FlowEngine` walks a :class:`~repro.flow.graph.FlowGraph` in its
deterministic topological order and runs each stage through the existing
table-level workflows.  Three concerns the isolated workflows don't have
live here:

- **Durability.**  With a ``workdir``, the engine keeps a *flow ledger* —
  the PR 5 write-ahead journal reused one level up: the sealed header
  binds the file to the flow's full context (graph spec, pipeline config,
  client class, input-table digests), and each completed stage appends
  one fsync'd record carrying the stage's entire result (output table
  rows, provenance, report, quarantine marks, client state).  Each
  stage's *own* LLM run additionally journals per-batch into a sub-file,
  so a crash mid-stage resumes mid-stage and a crash between stages
  resumes from the ledger — bit-identically either way.
- **Provenance.**  Every cell a stage flags, blanks, imputes, or
  quarantines — and every row/pair a stage *refuses* because of an
  upstream quarantine — is recorded in that stage's
  :class:`~repro.flow.provenance.StageProvenance` and threaded into the
  flow result and manifest.
- **Staged degradation.**  A :class:`~repro.flow.provenance.QuarantineMark`
  travels with a table edge: downstream stages exclude the marked
  rows/cells from their prompts and list the exclusions, so nothing
  quarantined in stage N is silently treated as trustworthy in stage N+1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import workflows
from repro.core.config import PipelineConfig
from repro.core.workflows import WorkflowReport
from repro.data.instances import Task
from repro.data.records import Record, Table
from repro.data.schema import Attribute, AttrType, Schema
from repro.datasets.registry import load_dataset
from repro.errors import ConfigError, InjectedCrashError
from repro.flow.graph import FlowGraph, StageNode, input_name, is_input_ref
from repro.flow.provenance import QuarantineMark, StageProvenance
from repro.llm.base import LLMClient, Usage
from repro.obs.manifest import canonical_json
from repro.runtime.checkpoint import (
    RunCheckpoint,
    capture_client_state,
    restore_client_state,
)
from repro.runtime.journal import (
    BatchRecord,
    JournalHeader,
    RunJournal,
    open_journal,
)

#: crash sites at a stage boundary (the engine's own chaos hooks; the
#: per-batch sites inside a stage are PR 5's mid_batch/pre_journal/…)
FLOW_CRASH_SITES = ("pre_record", "post_record")

#: the task each stage kind's few-shot pool must come from
_KIND_TASK = {
    "detect_errors": Task.ERROR_DETECTION,
    "impute_missing": Task.DATA_IMPUTATION,
    "match_schemas": Task.SCHEMA_MATCHING,
    "match_entities": Task.ENTITY_MATCHING,
}


@dataclass(frozen=True)
class FlowChaos:
    """A scripted kill at a stage boundary.

    ``pre_record`` dies after the stage ran but before its ledger record
    hit the disk (the stage re-runs on resume, replaying its own
    sub-journal); ``post_record`` dies right after the fsync'd append —
    the "killed between stages" case the resume tests exercise.
    """

    stage: str
    site: str = "post_record"

    def __post_init__(self) -> None:
        if self.site not in FLOW_CRASH_SITES:
            raise ValueError(
                f"unknown flow chaos site {self.site!r}; expected one of "
                f"{', '.join(FLOW_CRASH_SITES)}"
            )


# -- table serialization ---------------------------------------------------


def table_payload(table: Table) -> dict:
    """A table as plain data: schema (names, types) plus row values."""
    return {
        "schema": {
            "name": table.schema.name,
            "attributes": [
                {
                    "name": attr.name,
                    "type": attr.type.value,
                    "description": attr.description,
                }
                for attr in table.schema
            ],
        },
        "rows": [
            {
                "record_id": record.record_id,
                "values": {name: value for name, value in record},
            }
            for record in table
        ],
    }


def table_from_payload(payload: dict) -> Table:
    spec = payload["schema"]
    schema = Schema(
        name=spec["name"],
        attributes=tuple(
            Attribute(
                name=attr["name"],
                type=AttrType(attr["type"]),
                description=attr.get("description", ""),
            )
            for attr in spec["attributes"]
        ),
    )
    records = [
        Record(
            schema=schema,
            values=dict(row["values"]),
            record_id=row["record_id"],
        )
        for row in payload["rows"]
    ]
    return Table(schema, records)


def _report_payload(report: WorkflowReport, include_timing: bool) -> dict:
    payload = {
        "prompt_tokens": report.usage.prompt_tokens,
        "completion_tokens": report.usage.completion_tokens,
        "n_requests": report.n_requests,
        "prep_cache_hits": report.prep_cache_hits,
        "prep_cache_misses": report.prep_cache_misses,
    }
    if include_timing:
        payload["estimated_seconds"] = report.estimated_seconds
    return payload


def _report_from_payload(payload: dict) -> WorkflowReport:
    return WorkflowReport(
        usage=Usage(
            prompt_tokens=payload["prompt_tokens"],
            completion_tokens=payload["completion_tokens"],
        ),
        n_requests=payload["n_requests"],
        estimated_seconds=payload.get("estimated_seconds", 0.0),
        prep_cache_hits=payload.get("prep_cache_hits", 0),
        prep_cache_misses=payload.get("prep_cache_misses", 0),
    )


# -- results ---------------------------------------------------------------


@dataclass
class StageResult:
    """One executed (or ledger-restored) stage.

    ``output`` is kind-specific plain data (flagged cells, imputed values,
    correspondences, matches); ``marks`` are the quarantine marks the
    stage hands downstream (inherited plus its own); ``table`` is the
    stage's output table for table producers, ``None`` for matchers.
    """

    name: str
    kind: str
    output: dict
    provenance: StageProvenance
    report: WorkflowReport
    quarantine: list[dict] = field(default_factory=list)
    marks: list[QuarantineMark] = field(default_factory=list)
    table: Table | None = None
    exchanges: list[dict] = field(default_factory=list)
    resumed: bool = False

    def payload(self, include_timing: bool = True) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "output": self.output,
            "provenance": self.provenance.payload(),
            "report": _report_payload(self.report, include_timing),
            "quarantine": self.quarantine,
            "marks": [mark.payload() for mark in self.marks],
            "table": None if self.table is None else table_payload(self.table),
            "exchanges": self.exchanges,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StageResult":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            output=payload["output"],
            provenance=StageProvenance.from_payload(payload["provenance"]),
            report=_report_from_payload(payload["report"]),
            quarantine=payload["quarantine"],
            marks=[
                QuarantineMark.from_payload(entry)
                for entry in payload["marks"]
            ],
            table=(
                None if payload["table"] is None
                else table_from_payload(payload["table"])
            ),
            exchanges=payload.get("exchanges", []),
        )


@dataclass
class FlowResult:
    """The outcome of one flow run: every stage plus the rolled-up report."""

    graph: FlowGraph
    order: tuple[str, ...]
    stages: dict[str, StageResult]
    report: WorkflowReport
    resumed_stages: tuple[str, ...] = ()

    @property
    def tables(self) -> dict[str, Table]:
        """Output tables of the table-producing stages."""
        return {
            name: result.table
            for name, result in self.stages.items()
            if result.table is not None
        }

    def payload(self, include_timing: bool = True) -> dict:
        """The run as plain data.

        ``include_timing=False`` drops the simulated-clock makespans —
        the one quantity that legitimately varies with executor
        concurrency — so cross-concurrency determinism checks compare
        everything else byte-for-byte.
        """
        return {
            "order": list(self.order),
            "stages": {
                name: self.stages[name].payload(include_timing)
                for name in self.order
            },
            "report": _report_payload(self.report, include_timing),
        }

    def manifest_payload(self) -> dict:
        """The provenance manifest: graph spec + full per-stage payloads."""
        return {
            "kind": "flow_manifest",
            "flow": self.graph.spec_payload(),
            "resumed_stages": list(self.resumed_stages),
            **self.payload(include_timing=True),
        }


# -- the flow ledger -------------------------------------------------------


class FlowLedger:
    """The flow-level write-ahead journal: one record per completed stage.

    Reuses :class:`~repro.runtime.journal.RunJournal` wholesale — sealed
    fingerprinted header, checksummed fsync'd lines, typed corruption
    recovery — with the stage's full result payload in the record's
    ``state`` blob.  Restoring a stage from its record is exact: the
    output table, provenance, marks, report, and the client's post-stage
    checkpoint state all round-trip through canonical JSON.
    """

    def __init__(
        self,
        journal: RunJournal,
        header: JournalHeader,
        records: list[BatchRecord],
    ):
        self._journal = journal
        self.header = header
        self.records = records

    @property
    def path(self) -> Path:
        return self._journal.path

    @classmethod
    def open(cls, path: str | Path, context: dict) -> "FlowLedger":
        """Create or resume the ledger at ``path`` (fingerprint-checked,
        see :func:`~repro.runtime.journal.open_journal`)."""
        return cls(*open_journal(path, context))

    def append_stage(self, seq: int, name: str, state: dict) -> None:
        record = BatchRecord(
            seq=seq, key=f"stage:{name}", predictions=[], state=state
        )
        self._journal.append(record)
        self.records.append(record)

    def close(self) -> None:
        self._journal.close()


def flow_context(
    graph: FlowGraph,
    config: PipelineConfig,
    client: LLMClient | None,
    inputs: dict[str, Table],
    keep_raw: bool,
    backend=None,
) -> dict:
    """The context a flow ledger's header is sealed to.

    Stage-isolation runs (``backend`` set) seal the backend's description
    instead of a client class name — deliberately a *different* context
    than the shared-client path, because the two modes produce different
    ledgers (isolation has no cross-stage client state) and must never
    resume each other.  The worker count is deliberately absent: it is
    pure scheduling, and a ledger written at ``workers=4`` resumes at
    ``workers=1`` bit-identically.
    """
    digests = {
        name: hashlib.sha256(
            canonical_json(table_payload(table)).encode("utf-8")
        ).hexdigest()[:16]
        for name, table in inputs.items()
    }
    context = {
        "kind": "flow",
        "flow": graph.spec_payload(),
        "config": canonical_json(config),
        "client": (
            {"stage_isolation": True, "backend": backend.describe()}
            if backend is not None
            else type(client).__name__
        ),
        "keep_raw": keep_raw,
        "inputs": digests,
    }
    return context


# -- the engine ------------------------------------------------------------


@dataclass
class _Edge:
    """A resolved table edge: the table plus its sticky quarantine marks."""

    table: Table
    marks: list[QuarantineMark]
    source: str


@dataclass(frozen=True)
class _StageTask:
    """One stage's full execution context, as a picklable value object.

    Tables and marks travel as plain-data payloads (the same round-trip
    the ledger uses), so a task crosses a spawn boundary with nothing but
    stdlib pickling of frozen dataclasses and dicts.
    """

    node: StageNode
    edges: tuple[tuple[str, dict], ...]
    config: PipelineConfig
    backend: object
    journal_path: str | None
    keep_raw: bool


def _execute_stage_task(task: _StageTask) -> dict:
    """Run one stage hermetically (module-level: spawn imports by name)."""
    engine = FlowEngine(task.backend.build(), task.config)
    edges = {
        port: _Edge(
            table=table_from_payload(payload["table"]),
            marks=[
                QuarantineMark.from_payload(mark)
                for mark in payload["marks"]
            ],
            source=payload["source"],
        )
        for port, payload in task.edges
    }
    checkpoint = (
        RunCheckpoint(task.journal_path)
        if task.journal_path is not None
        else None
    )
    result = engine._run_stage(task.node, edges, checkpoint, task.keep_raw)
    return result.payload(include_timing=True)


class FlowEngine:
    """Executes a flow graph over named input tables.

    ``workdir`` enables durability: the flow ledger lives at
    ``<workdir>/flow.journal`` and each stage's own run journals into
    ``<workdir>/stage-<seq>-<name>.journal``.  Without a workdir the run
    is purely in-memory (no resume).

    Two execution modes:

    - **shared client** (default, ``client`` given) — the historical
      path: every stage runs through one client whose call counter
      carries across stages, sequentially, with cross-stage client state
      journaled in the ledger.
    - **stage isolation** (``backend`` given) — every stage builds a
      fresh hermetic client from the backend, which removes the
      cross-stage coupling and is what makes parallel stage execution
      legal: with ``workers > 1``, independent stages of the same
      dependency generation run in a spawn-context process pool, and the
      result is bit-identical at any worker count (``workers=1``
      isolation included, since it runs the same hermetic stages inline).

    The two modes produce different results by design (call-counter
    continuity vs hermetic stages) and seal different ledger contexts, so
    one can never silently resume the other.
    """

    def __init__(
        self,
        client: LLMClient | None,
        config: PipelineConfig | None = None,
        workdir: str | Path | None = None,
        backend=None,
        workers: int = 1,
    ):
        from repro.llm.backend import Backend

        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if backend is not None and not isinstance(backend, Backend):
            raise ConfigError(
                f"FlowEngine backend must satisfy the Backend protocol, "
                f"got {type(backend).__name__}"
            )
        if backend is None:
            if client is None:
                raise ConfigError(
                    "FlowEngine needs a client (shared-client mode) or a "
                    "backend (stage-isolation mode)"
                )
            if workers > 1:
                raise ConfigError(
                    "parallel stage execution (workers > 1) requires "
                    "stage isolation: pass backend= — a shared client's "
                    "call counter cannot span processes"
                )
        self.client = client
        self.backend = backend
        self.workers = workers
        self.config = config or PipelineConfig()
        self.workdir = Path(workdir) if workdir is not None else None

    def run(
        self,
        graph: FlowGraph,
        inputs: dict[str, Table] | None = None,
        keep_raw: bool = False,
        chaos: FlowChaos | None = None,
    ) -> FlowResult:
        inputs = dict(inputs or {})
        missing = set(graph.inputs) - set(inputs)
        if missing:
            raise ConfigError(
                f"flow input(s) not provided: {', '.join(sorted(missing))}"
            )
        extra = set(inputs) - set(graph.inputs)
        if extra:
            raise ConfigError(
                f"unexpected flow input(s): {', '.join(sorted(extra))}"
            )
        if chaos is not None and chaos.stage not in graph.stages:
            raise ConfigError(
                f"chaos targets unknown stage {chaos.stage!r}"
            )
        if chaos is not None and self.workers > 1:
            raise ConfigError(
                "flow chaos drills run at workers=1; a pool worker's "
                "injected kill would tear down unrelated stages"
            )
        order = graph.topological_order()

        ledger: FlowLedger | None = None
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            context = flow_context(
                graph, self.config, self.client, inputs, keep_raw,
                backend=self.backend,
            )
            ledger = FlowLedger.open(self.workdir / "flow.journal", context)

        stages: dict[str, StageResult] = {}
        resumed: list[str] = []
        try:
            if self.workers > 1:
                self._run_parallel(
                    graph, order, inputs, keep_raw, ledger, stages, resumed
                )
            else:
                self._run_sequential(
                    graph, order, inputs, keep_raw, chaos, ledger,
                    stages, resumed,
                )
        finally:
            if ledger is not None:
                ledger.close()

        report = WorkflowReport(
            usage=Usage(prompt_tokens=0, completion_tokens=0),
            n_requests=0,
            estimated_seconds=0.0,
        )
        for name in order:
            report.merge(stages[name].report)
        return FlowResult(
            graph=graph,
            order=order,
            stages=stages,
            report=report,
            resumed_stages=tuple(resumed),
        )

    def _run_sequential(
        self,
        graph: FlowGraph,
        order: tuple[str, ...],
        inputs: dict[str, Table],
        keep_raw: bool,
        chaos: FlowChaos | None,
        ledger: FlowLedger | None,
        stages: dict[str, StageResult],
        resumed: list[str],
    ) -> None:
        """The inline path: shared-client mode, or isolation at workers=1."""
        pending_client_state: dict | None = None
        for seq, name in enumerate(order):
            if ledger is not None and seq < len(ledger.records):
                record = ledger.records[seq]
                restored = StageResult.from_payload(record.state["stage"])
                restored.resumed = True
                stages[name] = restored
                resumed.append(name)
                pending_client_state = record.state.get("client")
                continue
            if pending_client_state is not None and self.backend is None:
                # First fresh stage after a restored prefix: put the
                # client back where the last journaled stage left it.
                # (Isolation mode has no cross-stage client state.)
                restore_client_state(
                    self.client, pending_client_state, ledger.path
                )
            pending_client_state = None
            if self.backend is not None:
                # Hermetic per-stage client: same construction as a pool
                # worker's, which is what keeps workers=1 isolation
                # bit-identical to workers=N.
                self.client = self.backend.build()
            node = graph.stages[name]
            edges = {
                port: self._resolve(ref, inputs, stages)
                for port, ref in node.inputs
            }
            checkpoint = None
            if self.workdir is not None:
                checkpoint = RunCheckpoint(
                    self.workdir / f"stage-{seq:02d}-{name}.journal"
                )
            result = self._run_stage(node, edges, checkpoint, keep_raw)
            stages[name] = result
            if (
                chaos is not None
                and chaos.stage == name
                and chaos.site == "pre_record"
            ):
                raise InjectedCrashError(
                    "stage_boundary",
                    f"pre_record: stage {name!r} finished, record lost",
                )
            if ledger is not None:
                ledger.append_stage(
                    seq,
                    name,
                    {
                        "stage": result.payload(include_timing=True),
                        "client": (
                            None if self.backend is not None
                            else capture_client_state(self.client)
                        ),
                    },
                )
            if (
                chaos is not None
                and chaos.stage == name
                and chaos.site == "post_record"
            ):
                raise InjectedCrashError(
                    "stage_boundary",
                    f"post_record: killed between stage {name!r} "
                    f"and its successor",
                )

    @staticmethod
    def _generations(
        graph: FlowGraph, order: tuple[str, ...]
    ) -> list[list[str]]:
        """Stages bucketed by dependency depth, topo order within each.

        Generation 0 consumes only flow inputs; generation g+1 consumes at
        least one generation-g output.  Stages within one generation are
        independent of each other by construction, so a pool may run them
        concurrently.
        """
        depth: dict[str, int] = {}
        for name in order:
            upstream = graph.stages[name].upstream_stages()
            depth[name] = 1 + max(
                (depth[ref] for ref in upstream), default=-1
            )
        buckets: dict[int, list[str]] = {}
        for name in order:
            buckets.setdefault(depth[name], []).append(name)
        return [buckets[level] for level in sorted(buckets)]

    def _run_parallel(
        self,
        graph: FlowGraph,
        order: tuple[str, ...],
        inputs: dict[str, Table],
        keep_raw: bool,
        ledger: FlowLedger | None,
        stages: dict[str, StageResult],
        resumed: list[str],
    ) -> None:
        """The pool path: one spawn worker per independent stage.

        Ledger records still append in topological order — after each
        generation lands, the completed contiguous prefix of ``order`` is
        flushed — so a ledger written here is indistinguishable from one
        written sequentially and resumes under either path.
        """
        done: set[str] = set()
        if ledger is not None:
            for seq, name in enumerate(order[: len(ledger.records)]):
                record = ledger.records[seq]
                restored = StageResult.from_payload(record.state["stage"])
                restored.resumed = True
                stages[name] = restored
                resumed.append(name)
                done.add(name)
        next_seq = len(done)
        generations = self._generations(graph, order)
        max_workers = min(
            self.workers, max(len(generation) for generation in generations)
        )
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=context
        ) as pool:
            for generation in generations:
                pending = [name for name in generation if name not in done]
                if not pending:
                    continue
                tasks = [
                    self._stage_task(
                        graph.stages[name], order.index(name),
                        inputs, stages, keep_raw,
                    )
                    for name in pending
                ]
                for name, payload in zip(
                    pending, pool.map(_execute_stage_task, tasks)
                ):
                    stages[name] = StageResult.from_payload(payload)
                    done.add(name)
                if ledger is None:
                    continue
                while next_seq < len(order) and order[next_seq] in done:
                    name = order[next_seq]
                    ledger.append_stage(
                        next_seq,
                        name,
                        {
                            "stage": stages[name].payload(
                                include_timing=True
                            ),
                            "client": None,
                        },
                    )
                    next_seq += 1

    def _stage_task(
        self,
        node: StageNode,
        seq: int,
        inputs: dict[str, Table],
        stages: dict[str, StageResult],
        keep_raw: bool,
    ) -> _StageTask:
        edges = []
        for port, ref in node.inputs:
            edge = self._resolve(ref, inputs, stages)
            edges.append((port, {
                "table": table_payload(edge.table),
                "marks": [mark.payload() for mark in edge.marks],
                "source": edge.source,
            }))
        journal_path = None
        if self.workdir is not None:
            journal_path = str(
                self.workdir / f"stage-{seq:02d}-{node.name}.journal"
            )
        return _StageTask(
            node=node,
            edges=tuple(edges),
            config=self.config,
            backend=self.backend,
            journal_path=journal_path,
            keep_raw=keep_raw,
        )

    # -- wiring -----------------------------------------------------------

    def _resolve(
        self,
        ref: str,
        inputs: dict[str, Table],
        stages: dict[str, StageResult],
    ) -> _Edge:
        if is_input_ref(ref):
            return _Edge(table=inputs[input_name(ref)], marks=[], source=ref)
        upstream = stages[ref]
        assert upstream.table is not None  # typed edges guarantee this
        return _Edge(
            table=upstream.table, marks=list(upstream.marks), source=ref
        )

    def _stage_config(self, node: StageNode) -> PipelineConfig:
        overrides = node.params.get("config") or {}
        if not isinstance(overrides, dict):
            raise ConfigError(
                f"stage {node.name!r}: 'config' must be a mapping of "
                f"PipelineConfig overrides"
            )
        if not overrides:
            return self.config
        try:
            return dataclasses.replace(self.config, **overrides)
        except TypeError:
            known = {f.name for f in dataclasses.fields(PipelineConfig)}
            bad = sorted(set(overrides) - known)
            raise ConfigError(
                f"stage {node.name!r} config override has unknown "
                f"key(s): {', '.join(bad) or '<signature mismatch>'}"
            ) from None

    def _fewshot(self, node: StageNode) -> list | None:
        spec = node.params.get("fewshot")
        if spec is None:
            return None
        if not isinstance(spec, dict) or "dataset" not in spec:
            raise ConfigError(
                f"stage {node.name!r}: 'fewshot' must be a mapping with "
                f"a 'dataset' key (plus optional size/seed)"
            )
        dataset = load_dataset(
            spec["dataset"],
            size=spec.get("size"),
            seed=spec.get("seed", 0),
        )
        expected = _KIND_TASK[node.kind]
        if dataset.task is not expected:
            raise ConfigError(
                f"stage {node.name!r} ({node.kind}) needs a "
                f"{expected.value} few-shot pool, but dataset "
                f"{spec['dataset']!r} is {dataset.task.value}"
            )
        return list(dataset.fewshot_pool)

    @staticmethod
    def _raw_exchanges(result) -> list[dict]:
        if result is None:
            return []
        return [exchange.payload() for exchange in result.exchanges]

    # -- stage execution --------------------------------------------------

    def _run_stage(
        self,
        node: StageNode,
        edges: dict[str, _Edge],
        checkpoint: RunCheckpoint | None,
        keep_raw: bool,
    ) -> StageResult:
        runner = {
            "detect_errors": self._run_detect,
            "impute_missing": self._run_impute,
            "match_schemas": self._run_match_schemas,
            "match_entities": self._run_match_entities,
        }[node.kind]
        return runner(node, edges, checkpoint, keep_raw)

    def _run_detect(
        self,
        node: StageNode,
        edges: dict[str, _Edge],
        checkpoint: RunCheckpoint | None,
        keep_raw: bool,
    ) -> StageResult:
        edge = edges["table"]
        provenance = StageProvenance(stage=node.name, kind=node.kind)
        for mark in edge.marks:
            provenance.record_excluded(
                mark.row, mark.attribute, mark.stage, mark.reason
            )
        result = workflows.detect_errors(
            self.client,
            edge.table,
            attributes=node.params.get("attributes"),
            config=self._stage_config(node),
            fewshot=self._fewshot(node),
            exclude={(m.row, m.attribute) for m in edge.marks},
            checkpoint=checkpoint,
            keep_raw=keep_raw,
        )
        output_table = Table(
            edge.table.schema, [record.copy() for record in edge.table]
        )
        for cell in result.flagged:
            provenance.record_cell(
                cell.row, cell.attribute, "flagged",
                detail="" if cell.value is None else str(cell.value),
            )
            output_table[cell.row][cell.attribute] = None
            provenance.record_cell(
                cell.row, cell.attribute, "blanked",
                detail="cleared for downstream repair",
            )
        marks = list(edge.marks)
        quarantine: list[dict] = []
        for entry in (result.result.quarantine if result.result else []):
            row, attribute = result.positions[entry.index]
            provenance.record_quarantine(row, attribute, entry.reason)
            marks.append(
                QuarantineMark(
                    row=row, attribute=attribute,
                    stage=node.name, reason=entry.reason,
                )
            )
            quarantine.append(
                {
                    "row": row,
                    "attribute": attribute,
                    "reason": entry.reason,
                    "detail": entry.detail,
                }
            )
        output = {
            "flagged": [
                {"row": c.row, "attribute": c.attribute, "value": c.value}
                for c in result.flagged
            ],
            "n_cells": len(result.positions),
            "n_excluded": len(result.excluded),
        }
        return StageResult(
            name=node.name,
            kind=node.kind,
            output=output,
            provenance=provenance,
            report=result.report,
            quarantine=quarantine,
            marks=marks,
            table=output_table,
            exchanges=self._raw_exchanges(result.result) if keep_raw else [],
        )

    def _run_impute(
        self,
        node: StageNode,
        edges: dict[str, _Edge],
        checkpoint: RunCheckpoint | None,
        keep_raw: bool,
    ) -> StageResult:
        edge = edges["table"]
        attribute = str(node.params["attribute"])
        provenance = StageProvenance(stage=node.name, kind=node.kind)
        for mark in edge.marks:
            provenance.record_excluded(
                mark.row, mark.attribute, mark.stage, mark.reason
            )
        result = workflows.impute_missing(
            self.client,
            edge.table,
            attribute,
            config=self._stage_config(node),
            fewshot=self._fewshot(node),
            type_hint=node.params.get("type_hint"),
            exclude_rows={m.row for m in edge.marks},
            checkpoint=checkpoint,
            keep_raw=keep_raw,
        )
        for row, value in sorted(result.imputed.items()):
            provenance.record_cell(row, attribute, "imputed", detail=value)
        marks = list(edge.marks)
        quarantine: list[dict] = []
        quarantined_rows: set[int] = set()
        for entry in (result.result.quarantine if result.result else []):
            row = result.rows[entry.index]
            quarantined_rows.add(row)
            provenance.record_quarantine(row, attribute, entry.reason)
            marks.append(
                QuarantineMark(
                    row=row, attribute=attribute,
                    stage=node.name, reason=entry.reason,
                )
            )
            quarantine.append(
                {
                    "row": row,
                    "attribute": attribute,
                    "reason": entry.reason,
                    "detail": entry.detail,
                }
            )
        for row in result.rows:
            if row not in result.imputed and row not in quarantined_rows:
                provenance.record_cell(
                    row, attribute, "unrepaired",
                    detail="imputation returned no value",
                )
        output = {
            "attribute": attribute,
            "imputed": {str(row): value for row, value in result.imputed.items()},
            "n_missing": len(result.rows) + len(result.excluded),
            "n_excluded": len(result.excluded),
        }
        return StageResult(
            name=node.name,
            kind=node.kind,
            output=output,
            provenance=provenance,
            report=result.report,
            quarantine=quarantine,
            marks=marks,
            table=result.table,
            exchanges=self._raw_exchanges(result.result) if keep_raw else [],
        )

    def _run_match_schemas(
        self,
        node: StageNode,
        edges: dict[str, _Edge],
        checkpoint: RunCheckpoint | None,
        keep_raw: bool,
    ) -> StageResult:
        left, right = edges["left"], edges["right"]
        provenance = StageProvenance(stage=node.name, kind=node.kind)
        for side, edge in (("left", left), ("right", right)):
            for mark in edge.marks:
                provenance.record_excluded(
                    mark.row, f"{side}:{mark.attribute}",
                    mark.stage, mark.reason,
                )
        result = workflows.match_schemas(
            self.client,
            left.table.schema,
            right.table.schema,
            config=self._stage_config(node),
            fewshot=self._fewshot(node),
            checkpoint=checkpoint,
            keep_raw=keep_raw,
        )
        for a, b in result.correspondences:
            provenance.record_pair(a, b, "matched")
        quarantine: list[dict] = []
        for entry in (result.result.quarantine if result.result else []):
            a, b = result.pairs[entry.index]
            provenance.record_pair(a, b, "quarantined", detail=entry.reason)
            quarantine.append(
                {
                    "pair": [a, b],
                    "reason": entry.reason,
                    "detail": entry.detail,
                }
            )
        output = {
            "correspondences": [list(pair) for pair in result.correspondences],
            "n_pairs": len(result.pairs),
        }
        return StageResult(
            name=node.name,
            kind=node.kind,
            output=output,
            provenance=provenance,
            report=result.report,
            quarantine=quarantine,
            marks=[],
            table=None,
            exchanges=self._raw_exchanges(result.result) if keep_raw else [],
        )

    def _run_match_entities(
        self,
        node: StageNode,
        edges: dict[str, _Edge],
        checkpoint: RunCheckpoint | None,
        keep_raw: bool,
    ) -> StageResult:
        left, right = edges["left"], edges["right"]
        provenance = StageProvenance(stage=node.name, kind=node.kind)
        for side, edge in (("left", left), ("right", right)):
            for mark in edge.marks:
                provenance.record_excluded(
                    mark.row, f"{side}:{mark.attribute}",
                    mark.stage, mark.reason,
                )
        result = workflows.match_entities(
            self.client,
            left.table,
            right.table,
            blocking_attribute=node.params.get("blocking_attribute"),
            blocking_method=node.params.get("blocking_method", "token"),
            config=self._stage_config(node),
            fewshot=self._fewshot(node),
            exclude_left_rows={m.row for m in left.marks},
            exclude_right_rows={m.row for m in right.marks},
            checkpoint=checkpoint,
            keep_raw=keep_raw,
        )
        for i, j in result.excluded:
            provenance.record_pair(
                str(i), str(j), "excluded",
                detail="a row of this pair carries an upstream quarantine",
            )
        for i, j in result.matches:
            provenance.record_pair(str(i), str(j), "matched")
        quarantine = []
        for entry in (result.result.quarantine if result.result else []):
            i, j = result.candidates[entry.index]
            provenance.record_pair(
                str(i), str(j), "quarantined", detail=entry.reason
            )
            quarantine.append(
                {
                    "pair": [i, j],
                    "reason": entry.reason,
                    "detail": entry.detail,
                }
            )
        output = {
            "matches": [list(pair) for pair in result.matches],
            "excluded": [list(pair) for pair in result.excluded],
            "n_candidates": result.n_candidates,
            "reduction_ratio": result.reduction_ratio,
        }
        return StageResult(
            name=node.name,
            kind=node.kind,
            output=output,
            provenance=provenance,
            report=result.report,
            quarantine=quarantine,
            marks=[],
            table=None,
            exchanges=self._raw_exchanges(result.result) if keep_raw else [],
        )
