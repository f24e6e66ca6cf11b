"""Task definitions and labeled data instances.

The paper (Section 2.1) defines four tasks and calls each input object a
*data instance*: a record ``r`` for error detection and data imputation, an
attribute pair ``(j, j')`` for schema matching, and a record pair
``(r, r')`` for entity matching.  The classes here couple each instance with
its ground-truth label; the label never reaches an LLM — it lives only in
the evaluation harness.  Instances are slotted dataclasses (no per-object
``__dict__``): a run holds every one of them, so their size is paid once
per row.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.data.records import AttributePair, Record, RecordPair
from repro.errors import DatasetError


class Task(enum.Enum):
    """The four data preprocessing tasks studied in the paper."""

    ERROR_DETECTION = "error_detection"
    DATA_IMPUTATION = "data_imputation"
    SCHEMA_MATCHING = "schema_matching"
    ENTITY_MATCHING = "entity_matching"

    @property
    def short_name(self) -> str:
        return {
            Task.ERROR_DETECTION: "ED",
            Task.DATA_IMPUTATION: "DI",
            Task.SCHEMA_MATCHING: "SM",
            Task.ENTITY_MATCHING: "EM",
        }[self]

    @property
    def is_binary(self) -> bool:
        """Whether the task's answer is yes/no (scored with F1)."""
        return self is not Task.DATA_IMPUTATION

    @property
    def metric_name(self) -> str:
        """Accuracy for DI, F1 for the binary tasks — as in the paper."""
        return "accuracy" if self is Task.DATA_IMPUTATION else "f1"


@dataclass(slots=True)
class EDInstance:
    """Error detection: is cell ``record[target_attribute]`` erroneous?"""

    record: Record
    target_attribute: str
    label: bool
    clean_value: str | None = None  # what the cell should have been, if erroneous
    instance_id: str = ""

    task = Task.ERROR_DETECTION


@dataclass(slots=True)
class DIInstance:
    """Data imputation: infer the missing value of ``target_attribute``.

    ``record`` has the target cell already blanked; ``true_value`` is the
    held-out ground truth.
    """

    record: Record
    target_attribute: str
    true_value: str
    instance_id: str = ""

    task = Task.DATA_IMPUTATION

    def __post_init__(self) -> None:
        if self.record[self.target_attribute] is not None:
            raise DatasetError(
                f"DI instance {self.instance_id or '<unnamed>'}: target cell "
                f"{self.target_attribute!r} must be missing in the record"
            )


@dataclass(slots=True)
class SMInstance:
    """Schema matching: do attributes ``pair.left`` and ``pair.right`` refer
    to the same real-world attribute?"""

    pair: AttributePair
    label: bool
    instance_id: str = ""

    task = Task.SCHEMA_MATCHING


@dataclass(slots=True)
class EMInstance:
    """Entity matching: do ``pair.left`` and ``pair.right`` refer to the same
    real-world entity?"""

    pair: RecordPair
    label: bool
    instance_id: str = ""

    task = Task.ENTITY_MATCHING


Instance = Union[EDInstance, DIInstance, SMInstance, EMInstance]


@dataclass
class PreprocessingDataset:
    """A named benchmark: test instances plus a pool for few-shot examples.

    ``fewshot_pool`` mirrors the paper's setup where a handful of instances
    are manually selected and labeled as few-shot examples (Section 3.2);
    it is disjoint from ``instances`` so evaluation never scores an example
    the model was conditioned on.
    """

    name: str
    task: Task
    instances: list[Instance]
    fewshot_pool: list[Instance] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        for inst in list(self.instances) + list(self.fewshot_pool):
            if inst.task is not self.task:
                raise DatasetError(
                    f"dataset {self.name!r} declared task {self.task} but "
                    f"contains a {inst.task} instance"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def sample_fewshot(self, k: int, seed: int = 0) -> list[Instance]:
        """Deterministically sample ``k`` few-shot examples from the pool.

        The paper uses 3 examples for SM and 10 for the other tasks; the
        examples are hand-picked, and a human demonstrating a yes/no task
        always shows both classes — so for binary tasks the sample is
        stratified (roughly half positives) whenever the pool allows.
        """
        if k <= 0:
            return []
        if k >= len(self.fewshot_pool):
            return list(self.fewshot_pool)
        rng = random.Random(seed)
        if self.task is Task.DATA_IMPUTATION:
            return rng.sample(self.fewshot_pool, k)
        positives = [i for i in self.fewshot_pool if i.label]
        negatives = [i for i in self.fewshot_pool if not i.label]
        n_positive = min(max(1, k // 2), len(positives))
        n_negative = min(k - n_positive, len(negatives))
        picked = rng.sample(positives, n_positive)
        picked += rng.sample(negatives, n_negative)
        if len(picked) < k:
            remaining = [
                i for i in self.fewshot_pool
                if all(i is not p for p in picked)
            ]
            picked += rng.sample(remaining, min(k - len(picked), len(remaining)))
        rng.shuffle(picked)
        return picked

    @property
    def positive_rate(self) -> float:
        """Fraction of positive labels among binary instances (0.0 for DI)."""
        if self.task is Task.DATA_IMPUTATION or not self.instances:
            return 0.0
        positives = sum(1 for inst in self.instances if inst.label)
        return positives / len(self.instances)

    def subset(self, n: int, seed: int = 0) -> PreprocessingDataset:
        """A smaller dataset with ``n`` instances sampled deterministically.

        Useful for quick experiments and tests; preserves the few-shot pool.
        """
        if n >= len(self.instances):
            return self
        rng = random.Random(seed)
        picked = rng.sample(self.instances, n)
        return PreprocessingDataset(
            name=self.name,
            task=self.task,
            instances=picked,
            fewshot_pool=list(self.fewshot_pool),
            description=self.description,
        )


def ground_truth_labels(instances: Sequence[Instance]) -> list[bool | str]:
    """Extract the label / true value of each instance, in order."""
    labels: list[bool | str] = []
    for inst in instances:
        if isinstance(inst, DIInstance):
            labels.append(inst.true_value)
        else:
            labels.append(inst.label)
    return labels
