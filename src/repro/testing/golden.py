"""Golden snapshot store: byte-exact recordings of pipeline behavior.

A *golden cell* is one (task, config) point — dataset, size, model, seed,
batching, concurrency — small enough to run in well under a second but
rich enough to exercise prompt assembly, batching, the simulated model,
answer parsing, salvage, scoring, and accounting.  Capturing a cell runs
the full pipeline (observability on, raw replies kept) and freezes:

* the run manifest (config, model profile, dataset identity, evaluation
  metrics, deterministic metrics snapshot, execution report) minus the
  span trace, which belongs to the observability tests;
* every completion call as an *exchange*: the exact prompt messages, the
  raw simulated reply, the expected answer count, and the strict/lenient
  parse outcomes of that reply (the differential-replay corpus);
* the final predictions.

Snapshots are canonical JSON (:func:`repro.obs.manifest.canonical_json`):
equal behavior serializes to identical bytes, so *any* drift — one token
of a prompt, one field of the cost model, one parsed answer — shows up as
a structured diff with a JSON path.  ``python -m repro.eval golden``
verifies; ``--update`` re-records after an intentional behavior change.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.errors import ReproError
from repro.obs.manifest import GoldenDiff, canonical_json, diff_payloads
from repro.testing.replay import parse_outcomes

GOLDEN_VERSION = 1

#: where ``GOLDEN_DIFF.txt`` (the CI failure artifact) is written
GOLDEN_DIFF_ENV = "REPRO_GOLDEN_DIFF_PATH"


class GoldenError(ReproError):
    """A golden snapshot could not be captured, stored, or compared."""


@dataclass(frozen=True)
class GoldenCell:
    """One recorded (task, config) point of the pipeline's behavior."""

    name: str
    dataset: str
    size: int
    model: str = "gpt-3.5"
    seed: int = 0
    batching: str = "random"
    concurrency: int = 1

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            model=self.model,
            seed=self.seed,
            batching=self.batching,
            concurrency=self.concurrency,
            observability=True,
        )


#: the recorded cells: all four tasks, both batching modes, a weak model
#: (rich in format violations, so the replay corpus covers the lenient
#: and salvage paths), and a concurrent run
GOLDEN_CELLS: tuple[GoldenCell, ...] = (
    GoldenCell("ed_adult_gpt35", dataset="adult", size=40),
    GoldenCell("ed_hospital_vicuna", dataset="hospital", size=24,
               model="vicuna-13b"),
    GoldenCell("di_restaurant_gpt4", dataset="restaurant", size=30,
               model="gpt-4"),
    GoldenCell("sm_synthea_gpt35", dataset="synthea", size=40),
    GoldenCell("em_beer_gpt4_cluster", dataset="beer", size=40,
               model="gpt-4", batching="cluster"),
    GoldenCell("em_amazon_google_conc2", dataset="amazon_google", size=40,
               concurrency=2),
)


@dataclass(frozen=True)
class ServingGoldenCell:
    """One recorded serving trace: tenants, budgets, scheduler, answers.

    Mirrors :class:`GoldenCell` for the online layer — a fixed synthetic
    multi-tenant trace replayed through the full admission → coalescer →
    executor path with the scheduler's config pinned, freezing batch
    composition, per-request answers and sources, typed rejections, and
    the deterministic metrics registry.  Budgets are deliberately tight
    enough that the fastest tenant draws some ``tenant_rpm`` rejections,
    so the snapshot exercises the refusal path too.
    """

    name: str
    dataset: str
    size: int
    n_requests: int
    n_tenants: int = 3
    model: str = "gpt-3.5"
    seed: int = 0
    concurrency: int = 2
    max_batch: int = 8
    max_wait_s: float = 2.0
    coalesce: str = "window"
    rate_rps: float = 10.0
    requests_per_minute: int = 40
    tokens_per_minute: int = 100_000


SERVING_GOLDEN_CELLS: tuple[ServingGoldenCell, ...] = (
    ServingGoldenCell(
        "serving_ed_adult_3tenants", dataset="adult", size=60,
        n_requests=150,
    ),
)


@dataclass(frozen=True)
class FlowGoldenCell:
    """One recorded two-stage flow: ED → DI with staged degradation.

    The cell plants a marker string in one cell of a small Adult table
    and garbles every model reply whose prompt mentions it
    (:class:`~repro.llm.faults.GarblingClient`), so the detect stage's
    degradation ladder quarantines exactly that instance; the same row
    also has its imputation target blanked, so the impute stage must
    visibly *exclude* the row rather than fill it.  The snapshot freezes
    the full flow payload — per-stage prompts and raw replies, flagged /
    imputed cells, the quarantine, its downstream exclusion, and the
    provenance trail — so any drift in cross-stage propagation is a
    golden diff, not a silent behavior change.
    """

    name: str
    dataset: str = "adult"
    rows: int = 12
    model: str = "gpt-3.5"
    seed: int = 0
    detect_attribute: str = "occupation"
    impute_attribute: str = "workclass"
    poison_row: int = 5
    marker: str = "!!GARBLED-CELL!!"
    missing_rows: tuple[int, ...] = (2, 5, 8)


FLOW_GOLDEN_CELLS: tuple[FlowGoldenCell, ...] = (
    FlowGoldenCell("flow_ed_di_adult"),
)


@dataclass(frozen=True)
class FactoryGoldenCell:
    """One recorded pipeline run over a schema-factory dataset.

    Mirrors :class:`GoldenCell` with the dataset swapped for a factory
    *preset* (:func:`repro.factory.presets.preset`) — the schema lives in
    code, not YAML, so capture needs no YAML parser.  The snapshot pins
    the whole chain schema → streamed rows → injected errors → instances
    → prompts → replies → parsing: a drift in any distribution sampler,
    corruption family, or the OCR channel shows up as a golden diff.  The
    schema fingerprint is frozen inside the cell dict, so even a change
    that happens to produce identical instances is still caught as an
    (intentional) schema revision.
    """

    name: str
    preset: str
    size: int
    model: str = "gpt-3.5"
    seed: int = 0
    batching: str = "random"
    concurrency: int = 1

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            model=self.model,
            seed=self.seed,
            batching=self.batching,
            concurrency=self.concurrency,
            observability=True,
        )


#: factory cells: ED over a schema-generated table (all error families)
#: and DI over the OCR noisy-document channel
FACTORY_GOLDEN_CELLS: tuple[FactoryGoldenCell, ...] = (
    FactoryGoldenCell("factory_ed_schema_gpt35", preset="adult_replica",
                      size=32),
    FactoryGoldenCell("factory_di_ocr_gpt4", preset="ocr_invoices",
                      size=24, model="gpt-4"),
)

@dataclass(frozen=True)
class ResilienceGoldenCell:
    """One recorded run through a scripted backend brownout.

    The cell drives an ED run through the full resilience stack — a
    failover router over a degraded primary and a secondary that shares
    the blackout window — with the adaptive executor on.  That one run
    exercises every resilience mechanism: the latency phase produces
    hedges (the secondary is still healthy then), the 429 storm produces
    throttle signals and AIMD narrowing, and the shared blackout exhausts
    failover *and* retries, so the degradation ladder quarantines the
    instances caught inside it and the lane breakers cycle.  The snapshot
    freezes predictions, the quarantine set, the manifest (including the
    ``backend_health`` and ``breaker_transitions`` evaluation keys), the
    per-backend degradation counters, and the router's hedge/failover
    accounting — any drift in adaptive scheduling is a golden diff.
    """

    name: str
    dataset: str = "adult"
    size: int = 90
    model: str = "gpt-3.5"
    seed: int = 0
    concurrency: int = 2

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            model=self.model,
            seed=self.seed,
            concurrency=self.concurrency,
            observability=True,
            degradation="ladder",
        )


RESILIENCE_GOLDEN_CELLS: tuple[ResilienceGoldenCell, ...] = (
    ResilienceGoldenCell("resilience_ed_brownout"),
)

#: any recorded cell kind — the union the store and CLI dispatch over
AnyGoldenCell = (
    GoldenCell | ServingGoldenCell | FlowGoldenCell | FactoryGoldenCell
    | ResilienceGoldenCell
)

#: every recorded cell: offline, serving, flow, factory, and resilience
ALL_GOLDEN_CELLS: tuple[AnyGoldenCell, ...] = (
    GOLDEN_CELLS + SERVING_GOLDEN_CELLS + FLOW_GOLDEN_CELLS
    + FACTORY_GOLDEN_CELLS + RESILIENCE_GOLDEN_CELLS
)


def cell_by_name(name: str) -> AnyGoldenCell:
    for cell in ALL_GOLDEN_CELLS:
        if cell.name == name:
            return cell
    known = ", ".join(cell.name for cell in ALL_GOLDEN_CELLS)
    raise GoldenError(f"unknown golden cell {name!r}; known cells: {known}")


def flow_cell_fixture(cell: FlowGoldenCell):
    """The client, config, graph, and poisoned table for one flow cell.

    Shared between snapshot capture and the flow tests, so both exercise
    the exact same scenario.
    """
    from repro.core.config import PipelineConfig
    from repro.data.records import Table
    from repro.flow.graph import FlowGraph, StageNode
    from repro.flow.tables import dataset_table
    from repro.llm.faults import GarblingClient
    from repro.llm.simulated import SimulatedLLM

    base = dataset_table(cell.dataset, size=4 * cell.rows, seed=cell.seed)
    records = [record.copy() for record in list(base)[: cell.rows]]
    table = Table(base.schema, records)
    table[cell.poison_row][cell.detect_attribute] = cell.marker
    for row in cell.missing_rows:
        table[row][cell.impute_attribute] = None
    graph = FlowGraph(
        [
            StageNode.make(
                "detect", "detect_errors",
                inputs={"table": "inputs.dirty"},
                params={"attributes": [cell.detect_attribute]},
            ),
            StageNode.make(
                "impute", "impute_missing",
                inputs={"table": "detect"},
                params={"attribute": cell.impute_attribute},
            ),
        ],
        inputs=("dirty",),
    )
    client = GarblingClient(
        SimulatedLLM(cell.model, seed=cell.seed), triggers=[cell.marker]
    )
    config = PipelineConfig(
        model=cell.model, seed=cell.seed, degradation="ladder"
    )
    return client, config, graph, table


def _capture_flow_snapshot(cell: FlowGoldenCell) -> dict:
    """Run the cell's two-stage flow and freeze the full flow payload."""
    from repro.flow.engine import FlowEngine

    client, config, graph, table = flow_cell_fixture(cell)
    result = FlowEngine(client, config).run(
        graph, {"dirty": table}, keep_raw=True
    )
    payload = {
        "golden_version": GOLDEN_VERSION,
        "cell": {**dataclasses.asdict(cell), "kind": "flow"},
        "flow": result.payload(include_timing=True),
        "n_garbled": client.n_garbled,
    }
    return json.loads(canonical_json(payload))


def _capture_serving_snapshot(cell: ServingGoldenCell) -> dict:
    """Replay the cell's serving trace and freeze the full report."""
    from repro.core.config import PipelineConfig
    from repro.datasets import load_dataset
    from repro.llm.simulated import SimulatedLLM
    from repro.serving import (
        PreprocessingService,
        ServeConfig,
        TenantBudget,
        default_tenants,
        generate_trace,
    )

    dataset = load_dataset(cell.dataset, size=cell.size, seed=cell.seed)
    tenants = default_tenants(
        cell.n_tenants, cell.n_requests, rate_rps=cell.rate_rps
    )
    trace = generate_trace(dataset, tenants, seed=cell.seed)
    service = PreprocessingService(
        SimulatedLLM(cell.model, seed=cell.seed),
        dataset,
        [
            TenantBudget(
                name=spec.name,
                requests_per_minute=cell.requests_per_minute,
                tokens_per_minute=cell.tokens_per_minute,
            )
            for spec in tenants
        ],
        serve_config=ServeConfig(
            max_batch=cell.max_batch,
            max_wait_s=cell.max_wait_s,
            coalesce=cell.coalesce,
        ),
        pipeline_config=PipelineConfig(
            model=cell.model, seed=cell.seed, concurrency=cell.concurrency,
        ),
    )
    report = service.serve(trace)
    payload = {
        "golden_version": GOLDEN_VERSION,
        "cell": {**dataclasses.asdict(cell), "kind": "serving"},
        "serve": report.payload(),
    }
    return json.loads(canonical_json(payload))


def _pipeline_payload(cell_name: str, cell_dict: dict, dataset, run) -> dict:
    """Freeze one pipeline run (manifest, exchanges, predictions, quarantine).

    Shared between classic :class:`GoldenCell` capture and the factory
    cells, which differ only in how the dataset and the cell dict are
    built.
    """
    if run.manifest is None or run.result is None:
        raise GoldenError(
            f"cell {cell_name!r} produced no manifest/result — "
            f"observability or keep_raw was lost on the way down"
        )
    manifest = run.manifest.to_dict()
    manifest.pop("trace", None)  # span drift belongs to the obs tests
    exchanges = []
    for recorded in run.result.exchanges:
        outcome = parse_outcomes(recorded.reply, dataset.task, recorded.n_expected)
        exchanges.append({
            "prompt": [
                {"role": role, "content": content}
                for role, content in recorded.messages
            ],
            "reply": recorded.reply,
            "n_expected": recorded.n_expected,
            "strict": outcome["strict"],
            "lenient": outcome["lenient"],
        })
    payload = {
        "golden_version": GOLDEN_VERSION,
        "cell": cell_dict,
        "manifest": manifest,
        "exchanges": exchanges,
        "predictions": run.result.predictions,
        # Quarantined instances (index/reason/detail).  Empty for every
        # recorded cell today (they run with degradation off); the field
        # exists so a ladder regression that starts quarantining — or
        # stops — shows up as golden drift, not silently.
        "quarantine": [
            dataclasses.asdict(q) for q in run.result.quarantine
        ],
    }
    # One normalization pass so in-memory payloads compare == against
    # payloads read back from disk (tuples->lists, enums->names, ...).
    return json.loads(canonical_json(payload))


def _capture_factory_snapshot(cell: FactoryGoldenCell) -> dict:
    """Generate the cell's preset schema and freeze a full pipeline run."""
    from repro.eval.harness import evaluate_pipeline
    from repro.factory import SchemaGenerator, preset
    from repro.llm.simulated import SimulatedLLM

    schema = preset(cell.preset)
    generator = SchemaGenerator(schema)
    dataset = generator.generate(size=cell.size, seed=cell.seed)
    run = evaluate_pipeline(
        SimulatedLLM(cell.model, seed=cell.seed),
        cell.config(),
        dataset,
        keep_raw=True,
    )
    cell_dict = {
        **dataclasses.asdict(cell),
        "kind": "factory",
        "fingerprint": schema.fingerprint,
    }
    return _pipeline_payload(cell.name, cell_dict, dataset, run)


def resilience_cell_fixture(cell: ResilienceGoldenCell):
    """The degraded failover stack for one resilience cell.

    Shared between snapshot capture and the resilience tests.  Returns
    ``(client, executor_config, primary, secondary)`` where ``client`` is
    the failover router and ``primary``/``secondary`` the degraded
    wrappers underneath (exposed so callers can read their counters).
    """
    from repro.core.executor import ExecutorConfig
    from repro.llm.faults import DegradedClient
    from repro.llm.simulated import SimulatedLLM
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.degradation import DegradationPlan, Episode
    from repro.resilience.router import FailoverClient

    # The scripted brownout: throttle (failovers, throttle signals), then
    # slow (hedges win), then a blackout both backends share — long
    # enough that retries, breaker cooldowns, and the bisection cascade
    # all exhaust inside it, so the ladder quarantines what the outage
    # caught.  Storm before slowdown: a 6x-slowed call fast-forwards its
    # lane far past a short storm window, so the reverse order would
    # leave the throttle path unexercised.
    blackout = Episode(kind="blackout", start_s=20.0, duration_s=600.0,
                       intensity=1.0, retry_after_s=1.0)
    primary_plan = DegradationPlan(seed=cell.seed, episodes=(
        # Mild storm: throttles a call or two (exercising the throttle
        # signal and failover paths) without two consecutive failures,
        # which would open the primary's circuit and skip the brownout.
        Episode(kind="rate_limit_storm", start_s=2.0, duration_s=6.0,
                intensity=0.4, retry_after_s=2.0),
        Episode(kind="latency_brownout", start_s=8.0, duration_s=12.0,
                intensity=1.0, latency_factor=6.0),
        blackout,
    ))
    secondary_plan = DegradationPlan(seed=cell.seed + 1, episodes=(blackout,))
    primary = DegradedClient(
        SimulatedLLM(cell.model, seed=cell.seed),
        primary_plan, backend_name="primary",
    )
    secondary = DegradedClient(
        SimulatedLLM(cell.model, seed=cell.seed + 1),
        secondary_plan, backend_name="secondary",
    )
    resilience = ResilienceConfig()
    client = FailoverClient(
        [("primary", 0, primary), ("secondary", 1, secondary)], resilience
    )
    return client, ExecutorConfig(resilience=resilience), primary, secondary


def _degradation_counters(client) -> dict:
    """The scripted-degradation counters of one DegradedClient."""
    return {
        "n_calls": client.n_calls,
        "n_throttled": client.n_throttled,
        "n_overloads": client.n_overloads,
        "n_blackouts": client.n_blackouts,
        "n_slowed": client.n_slowed,
    }


def _capture_resilience_snapshot(cell: ResilienceGoldenCell) -> dict:
    """Run the cell's brownout scenario and freeze the adaptive behavior."""
    from repro.datasets import load_dataset
    from repro.eval.harness import evaluate_pipeline

    client, executor_config, primary, secondary = resilience_cell_fixture(cell)
    dataset = load_dataset(cell.dataset, size=cell.size, seed=cell.seed)
    run = evaluate_pipeline(
        client, cell.config(), dataset, keep_raw=True,
        executor_config=executor_config,
    )
    payload = _pipeline_payload(
        cell.name, {**dataclasses.asdict(cell), "kind": "resilience"},
        dataset, run,
    )
    payload["degradation"] = {
        "primary": _degradation_counters(primary),
        "secondary": _degradation_counters(secondary),
    }
    payload["router"] = client.health_payload()
    return json.loads(canonical_json(payload))


def capture_snapshot(cell: AnyGoldenCell) -> dict:
    """Run ``cell`` end to end and freeze its behavior as a JSON payload."""
    if isinstance(cell, ServingGoldenCell):
        return _capture_serving_snapshot(cell)
    if isinstance(cell, ResilienceGoldenCell):
        return _capture_resilience_snapshot(cell)
    if isinstance(cell, FlowGoldenCell):
        return _capture_flow_snapshot(cell)
    if isinstance(cell, FactoryGoldenCell):
        return _capture_factory_snapshot(cell)
    # Imported here so the conformance layer stays importable without
    # dragging the dataset/LLM stack in at module-import time.
    from repro.datasets import load_dataset
    from repro.eval.harness import evaluate_pipeline
    from repro.llm.simulated import SimulatedLLM

    dataset = load_dataset(cell.dataset, size=cell.size, seed=cell.seed)
    run = evaluate_pipeline(
        SimulatedLLM(cell.model, seed=cell.seed),
        cell.config(),
        dataset,
        keep_raw=True,
    )
    return _pipeline_payload(cell.name, dataclasses.asdict(cell), dataset, run)


def render_diffs(name: str, diffs: list[GoldenDiff], limit: int = 25) -> str:
    """A readable drift report for one snapshot."""
    if not diffs:
        return f"golden {name}: OK"
    head = f"golden {name}: DRIFT at {len(diffs)} path(s)"
    body = [diff.render() for diff in diffs[:limit]]
    if len(diffs) > limit:
        body.append(f"… and {len(diffs) - limit} more path(s)")
    tail = (
        "If this change is intentional, re-record with "
        "`python -m repro.eval golden --update`."
    )
    return "\n".join([head] + body + [tail])


def default_store_root() -> Path:
    """The checked-in snapshot directory (resolved from this file)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "snapshots"


class GoldenStore:
    """Canonical-JSON snapshot files, one per golden cell."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_store_root()

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def save(self, name: str, payload: dict) -> Path:
        target = self.path_for(name)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(canonical_json(payload), encoding="utf-8")
        return target

    def load(self, name: str) -> dict:
        source = self.path_for(name)
        try:
            text = source.read_text(encoding="utf-8")
        except FileNotFoundError as err:
            raise GoldenError(
                f"no golden snapshot {name!r} at {source} — record it with "
                f"`python -m repro.eval golden --update`"
            ) from err
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise GoldenError(f"snapshot {source} is not valid JSON: {err}") from err
        if payload.get("golden_version") != GOLDEN_VERSION:
            raise GoldenError(
                f"snapshot {source} has version "
                f"{payload.get('golden_version')!r}; this build reads "
                f"{GOLDEN_VERSION} — re-record with --update"
            )
        if text != canonical_json(payload):
            raise GoldenError(
                f"snapshot {source} is not canonical JSON — it was edited "
                f"by hand; re-record with --update"
            )
        return payload

    def verify(self, name: str, actual: dict) -> list[GoldenDiff]:
        """Diff a freshly captured payload against the stored snapshot."""
        expected = self.load(name)
        return diff_payloads(expected, json.loads(canonical_json(actual)))


def write_diff_artifact(text: str, path: str | Path | None = None) -> Path:
    """Persist a drift report where CI can pick it up as an artifact."""
    target = Path(
        path
        if path is not None
        else os.environ.get(GOLDEN_DIFF_ENV, "GOLDEN_DIFF.txt")
    )
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(text.rstrip("\n") + "\n\n")
    return target
