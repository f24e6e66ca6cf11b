"""Run manifests: one JSON artifact describing an entire evaluation run.

A manifest is the run's provenance record — the configuration, the model
profile it ran against, the dataset identity, the scored result, the
metrics snapshot, the execution report, and the full span trace — written
as a single JSON document, streamed to a temporary file and renamed into
place.  Everything inside is plain data (dicts, lists, numbers, strings),
so ``load(write(m)) == m`` holds exactly and a manifest written by one
version of the code remains readable by the next.

Nothing here reads the wall clock: manifests of deterministic runs are
byte-identical across machines and reruns.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.obs.export import trace_to_json
from repro.obs.tracing import Span

MANIFEST_VERSION = 1


class ManifestError(ReproError):
    """A manifest could not be built, written, or read back."""


def jsonable(value: object) -> object:
    """Recursively convert ``value`` into JSON-native data.

    Dataclasses flatten to dicts, enums to their names, tuples to lists,
    sets to sorted lists; anything else non-native falls back to ``str``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def canonical_json(value: object) -> str:
    """Render ``value`` as canonical JSON: one byte sequence per payload.

    Keys are sorted, non-native objects are flattened through
    :func:`jsonable`, non-ASCII is escaped, and the text ends with a
    newline — so equal payloads always serialize to identical bytes and a
    stored artifact can be compared to a fresh one with ``==``.  This is
    the byte contract of the golden conformance layer
    (:mod:`repro.testing.golden`).
    """
    return json.dumps(
        jsonable(value), indent=2, sort_keys=True, ensure_ascii=True
    ) + "\n"


@dataclass(frozen=True)
class GoldenDiff:
    """One divergence between an expected payload and a fresh one.

    The expected side is a stored golden snapshot, an uninterrupted
    baseline run, or the context a journal was sealed to.
    """

    path: str
    kind: str        # "changed" | "missing" | "added" | "type"
    expected: object
    actual: object

    def render(self) -> str:
        def clip(value: object) -> str:
            text = repr(value)
            return text if len(text) <= 160 else text[:160] + "…"
        return (
            f"{self.path} [{self.kind}]\n"
            f"  golden:  {clip(self.expected)}\n"
            f"  current: {clip(self.actual)}"
        )


def diff_payloads(expected: object, actual: object, path: str = "$") -> list[GoldenDiff]:
    """Structured diff of two JSON payloads, one entry per divergent path.

    The one recursive differ: golden verification, the crash-resume
    harnesses and the journal's resume refusal all report through it.
    """
    if type(expected) is not type(actual) and not (
        isinstance(expected, (int, float)) and isinstance(actual, (int, float))
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        return [GoldenDiff(path, "type", expected, actual)]
    if isinstance(expected, dict):
        diffs: list[GoldenDiff] = []
        for key in sorted(expected.keys() | actual.keys()):
            sub = f"{path}.{key}"
            if key not in actual:
                diffs.append(GoldenDiff(sub, "missing", expected[key], None))
            elif key not in expected:
                diffs.append(GoldenDiff(sub, "added", None, actual[key]))
            else:
                diffs.extend(diff_payloads(expected[key], actual[key], sub))
        return diffs
    if isinstance(expected, list):
        diffs = []
        for index in range(max(len(expected), len(actual))):
            sub = f"{path}[{index}]"
            if index >= len(actual):
                diffs.append(GoldenDiff(sub, "missing", expected[index], None))
            elif index >= len(expected):
                diffs.append(GoldenDiff(sub, "added", None, actual[index]))
            else:
                diffs.extend(diff_payloads(expected[index], actual[index], sub))
        return diffs
    if expected != actual:
        return [GoldenDiff(path, "changed", expected, actual)]
    return []


@dataclass
class RunManifest:
    """The provenance record of one evaluation run (all plain data)."""

    version: int = MANIFEST_VERSION
    config: dict = field(default_factory=dict)
    model_profile: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    execution: dict | None = None
    trace: dict = field(default_factory=lambda: {"spans": []})

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "model_profile": self.model_profile,
            "dataset": self.dataset,
            "evaluation": self.evaluation,
            "metrics": self.metrics,
            "execution": self.execution,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        try:
            version = payload["version"]
        except (TypeError, KeyError) as exc:
            raise ManifestError("not a run manifest: missing 'version'") from exc
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version!r} "
                f"(this build reads {MANIFEST_VERSION})"
            )
        return cls(
            version=version,
            config=payload.get("config", {}),
            model_profile=payload.get("model_profile", {}),
            dataset=payload.get("dataset", {}),
            evaluation=payload.get("evaluation", {}),
            metrics=payload.get("metrics", {}),
            execution=payload.get("execution"),
            trace=payload.get("trace", {"spans": []}),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        """Write the manifest as one JSON file; returns the path.

        The document is streamed into a sibling temporary file, never built
        as one string, and then renamed onto ``path``: the bytes equal
        ``dumps() + "\n"``, a crash mid-write leaves the earlier file
        whole, and a manifest that fails to serialize leaves it untouched.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            with temporary.open("w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        return target

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        source = Path(path)
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ManifestError(f"manifest not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {source} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def build_manifest(
    *,
    config: object,
    model_profile: object,
    dataset_name: str,
    task: object,
    n_instances: int,
    evaluation: dict,
    metrics_snapshot: dict,
    execution: object | None,
    spans: Sequence[Span] = (),
) -> RunManifest:
    """Assemble a :class:`RunManifest` from live run objects.

    Accepts the pipeline's own dataclasses (``PipelineConfig``,
    ``ModelProfile``, ``ExecutionReport``) without importing them — every
    input is flattened through :func:`jsonable`, keeping this module free
    of dependencies on the layers it describes.
    """
    return RunManifest(
        version=MANIFEST_VERSION,
        config=jsonable(config),  # type: ignore[arg-type]
        model_profile=jsonable(model_profile),  # type: ignore[arg-type]
        dataset={
            "name": dataset_name,
            "task": jsonable(task),
            "n_instances": n_instances,
        },
        evaluation=jsonable(evaluation),  # type: ignore[arg-type]
        metrics=jsonable(metrics_snapshot),  # type: ignore[arg-type]
        execution=jsonable(execution) if execution is not None else None,  # type: ignore[arg-type]
        trace=trace_to_json(spans),
    )
