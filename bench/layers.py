"""Per-layer host time, measured from outside the program.

:func:`install` replaces every entry point in :data:`LAYERS` wherever it
is bound -- the function object in each loaded ``repro`` module that holds
it, or the method on its class -- with a wrapper that records one span per
call in a :class:`Tracer`: which entry point, start, end, parent span, and
whether the call raised.  Spans stay in memory and are written once, at
exit.

A span's self time is its duration minus the durations of its child
spans.  The runner opens the root span ``bench.work`` around the workload,
so the root's self time is host time that no named layer accounts for.
Bench-owned input built inside the root (the serving requests) is a
``bench.input`` span, left out of the work time.

Nothing here imports ``repro``: install the tracer only after the runner
has imported what it needs, so every binding of an entry point exists.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

ROOT = "bench.work"
INPUT = "bench.input"

#: layer -> its public entry points, as ``module:qualname``
LAYERS: dict[str, tuple[str, ...]] = {
    "datasets": ("repro.datasets.registry:load_dataset",),
    "core.prep": (
        "repro.core.prep:PrepArtifacts.text_of",
        "repro.core.prep:PrepArtifacts.fingerprint",
        "repro.core.prep:PrepArtifacts.matrix",
        "repro.core.prep:PrepArtifacts.labels",
    ),
    "core.batching": ("repro.core.batching:make_batches",),
    "core.prompts": ("repro.core.prompts:PromptBuilder.build",),
    "text.tokenize": ("repro.text.tokenize:count_tokens",),
    "llm.accounting": (
        "repro.llm.accounting:request_prompt_tokens",
        "repro.llm.accounting:meter_response",
    ),
    "llm.promptparse": ("repro.llm.promptparse:parse_prompt",),
    "llm.solvers": (
        "repro.llm.solvers.ed:EDSolver.solve",
        "repro.llm.solvers.di:DISolver.solve",
        "repro.llm.solvers.sm:SMSolver.solve",
        "repro.llm.solvers.em:EMSolver.solve",
    ),
    "llm.simulated": ("repro.llm.simulated:SimulatedLLM.complete",),
    "core.parsing": (
        "repro.core.parsing:parse_batch_answers",
        "repro.core.parsing:parse_batch_answers_lenient",
    ),
    "core.executor": ("repro.core.executor:BatchExecutor.call",),
    "core.pipeline": (
        "repro.core.pipeline:Preprocessor.run",
        "repro.core.pipeline:Preprocessor.answer_batch",
    ),
    "runtime.journal": (
        "repro.runtime.journal:RunJournal.create",
        "repro.runtime.journal:RunJournal.append",
        "repro.runtime.journal:RunJournal.close",
    ),
    "obs.manifest": (
        "repro.obs.manifest:build_manifest",
        "repro.obs.manifest:RunManifest.write",
    ),
    "shard.plan": ("repro.shard.plan:plan_shards",),
    "shard.pool": ("repro.shard.runner:run_sharded",),
    "shard.merge": (
        "repro.shard.merge:merge_shards",
        "repro.shard.merge:MergedRun.payload",
    ),
    "serving": ("repro.serving.service:PreprocessingService.serve",),
    "serving.cache": (
        "repro.serving.cache:ServingCache.get",
        "repro.serving.cache:ServingCache.put",
    ),
    "serving.admission": ("repro.serving.tenants:TenantAdmission.admit",),
}

#: the self-time metric of each layer; ``shard.pool`` is the pool's wait
#: (spawn plus worker compute), because the workers run untraced
SELF_METRIC = {
    layer: f"{layer}.self_s" for layer in LAYERS if layer != "shard.pool"
}
SELF_METRIC["shard.pool"] = "shard.pool_wait_s"


class Tracer:
    """Spans in columnar arrays, with self time settled as each one ends."""

    def __init__(self) -> None:
        #: entry point index -> (layer, target); spans refer to it by index
        self.entry_points: list[tuple[str, str]] = [
            (ROOT, ROOT), (INPUT, INPUT),
        ]
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.failed = array("b")
        self._open: list[int] = []
        self._child_s: list[float] = []

    def _begin(self, fn: int) -> int:
        span = len(self.fn)
        self.fn.append(fn)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.failed.append(0)
        self._open.append(span)
        self._child_s.append(0.0)
        self.start.append(time.perf_counter())
        return span

    def _finish(self, span: int, failed: bool) -> None:
        end = time.perf_counter()
        duration = end - self.start[span]
        self.end[span] = end
        self.self_s[span] = duration - self._child_s.pop()
        self.failed[span] = failed
        self._open.pop()
        if self._child_s:
            self._child_s[-1] += duration

    @contextmanager
    def span(self, name: str):
        """A span around bench code: :data:`ROOT` or :data:`INPUT`."""
        span = self._begin((ROOT, INPUT).index(name))
        try:
            yield
        finally:
            self._finish(span, False)

    def wrap(self, layer: str, target: str, function):
        """``function`` recording one span per call under ``layer``."""
        fn = len(self.entry_points)
        self.entry_points.append((layer, target))
        begin, finish = self._begin, self._finish

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = begin(fn)
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                finish(span, failed)

        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Self seconds per layer, and calls and raised calls per target."""
        self_by_layer: dict[str, float] = {}
        calls: dict[str, int] = {}
        raised: dict[str, int] = {}
        for fn, self_s, failed in zip(self.fn, self.self_s, self.failed):
            layer, target = self.entry_points[fn]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
            calls[target] = calls.get(target, 0) + 1
            raised[target] = raised.get(target, 0) + failed
        return self_by_layer, calls, raised

    def write(self, path: Path) -> None:
        payload = {
            "entry_points": self.entry_points,
            "spans": {
                "fn": self.fn.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "self_s": self.self_s.tolist(),
                "failed": self.failed.tolist(),
            },
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 for a layer that did no work."""
    return numerator / denominator if denominator else 0.0


def _program_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every entry point of every loaded layer.

    An entry point whose module is not loaded is skipped: the runner has
    imported everything its workload uses, so that layer is bypassed.
    """
    modules = _program_modules()
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owner_path, name = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapper = tracer.wrap(layer, target, original)
            if owner_path:
                setattr(owner, name, wrapper)
            else:
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, alias, wrapper)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the spans alone determine."""
    self_by_layer, calls, raised = tracer.totals()

    def n(target: str) -> int:
        return calls.get(target, 0)

    def layer_calls(layer: str) -> int:
        return sum(n(target) for target in LAYERS[layer])

    completions = n("repro.llm.simulated:SimulatedLLM.complete")
    prompts = n("repro.core.prompts:PromptBuilder.build")
    strict = "repro.core.parsing:parse_batch_answers"
    metrics = {
        metric: self_by_layer.get(layer, 0.0)
        for layer, metric in SELF_METRIC.items()
    }
    metrics.update({
        "core.prompts.calls": prompts,
        "text.tokenize.calls": layer_calls("text.tokenize"),
        "llm.accounting.prompt_counts_per_completion": ratio(
            n("repro.llm.accounting:request_prompt_tokens"), completions
        ),
        "llm.simulated.calls": completions,
        "llm.simulated.calls_per_batch": ratio(completions, prompts),
        "core.parsing.calls": layer_calls("core.parsing"),
        "core.parsing.ok_ratio": ratio(n(strict) - raised.get(strict, 0), n(strict)),
        "core.executor.calls": layer_calls("core.executor"),
        "core.executor.retries": max(
            0, completions - layer_calls("core.executor")
        ),
        "runtime.journal.appends": n("repro.runtime.journal:RunJournal.append"),
        "serving.cache.calls": layer_calls("serving.cache"),
        "serving.flush.calls": n("repro.core.pipeline:Preprocessor.answer_batch"),
    })
    root = tracer.fn.index(0)
    work_s = tracer.end[root] - tracer.start[root] - self_by_layer.get(INPUT, 0.0)
    metrics["bench.unattributed_frac"] = ratio(tracer.self_s[root], work_s)
    return metrics
