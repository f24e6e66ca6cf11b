"""Error injection for the error-detection benchmarks.

Reproduces the corruption families of the published ED datasets:

- **Typos** — character insertion/deletion/substitution/transposition in a
  textual cell (the Hospital benchmark famously contains ``x`` insertions;
  HoloDetect's data augmentation is built around these).
- **Domain violations** — a categorical cell replaced with a value from a
  *different* attribute's domain.
- **Numeric outliers** — a numeric cell scaled far outside its plausible
  range (unit errors, dropped decimal points).
- **Value swaps** — two cells of the same record exchanged.

Every corruptor returns the corrupted value together with the original so
ground truth can be recorded, and every corruptor is deterministic under a
caller-provided :class:`random.Random`.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from repro.errors import DatasetError

_LETTERS = string.ascii_lowercase


@dataclass(frozen=True)
class Corruption:
    """The outcome of corrupting one cell."""

    original: str
    corrupted: str
    kind: str

    def __post_init__(self) -> None:
        if self.original == self.corrupted:
            raise DatasetError(
                f"corruption of kind {self.kind!r} left value "
                f"{self.original!r} unchanged"
            )


def typo(value: str, rng: random.Random, kind: str = "any") -> Corruption:
    """Inject a single-character typo into ``value``.

    ``kind`` selects a specific edit (``insert``, ``delete``, ``substitute``,
    ``transpose``, ``x_insert``) or ``any`` to pick one at random.
    ``x_insert`` is the Hospital-style corruption: the letter ``x`` inserted
    at a random position.
    """
    value = str(value)
    if not value:
        raise DatasetError("cannot inject a typo into an empty value")
    kinds = ["insert", "delete", "substitute", "transpose", "x_insert"]
    if kind == "any":
        kind = rng.choice(kinds)
    if kind not in kinds:
        raise DatasetError(f"unknown typo kind {kind!r}")

    for __ in range(20):  # retry: some edits can no-op on short strings
        if kind == "insert":
            pos = rng.randrange(len(value) + 1)
            ch = rng.choice(_LETTERS)
            corrupted = value[:pos] + ch + value[pos:]
        elif kind == "x_insert":
            pos = rng.randrange(len(value) + 1)
            corrupted = value[:pos] + "x" + value[pos:]
        elif kind == "delete":
            if len(value) == 1:
                corrupted = value  # deleting would empty the cell; retry others
                kind = "insert"
                continue
            pos = rng.randrange(len(value))
            corrupted = value[:pos] + value[pos + 1 :]
        elif kind == "substitute":
            pos = rng.randrange(len(value))
            ch = rng.choice(_LETTERS)
            corrupted = value[:pos] + ch + value[pos + 1 :]
        else:  # transpose
            if len(value) < 2:
                kind = "insert"
                continue
            pos = rng.randrange(len(value) - 1)
            corrupted = (
                value[:pos] + value[pos + 1] + value[pos] + value[pos + 2 :]
            )
        if corrupted != value:
            return Corruption(original=value, corrupted=corrupted, kind=f"typo_{kind}")
        # Some edits no-op on degenerate strings (transposing "ww");
        # insertion always changes the value, so fall back to it.
        kind = "insert"
    raise DatasetError(f"failed to corrupt {value!r} after 20 attempts")


def domain_violation(
    value: str, foreign_domain: list[str], rng: random.Random
) -> Corruption:
    """Replace a categorical value with one from another attribute's domain."""
    candidates = [v for v in foreign_domain if str(v) != str(value)]
    if not candidates:
        raise DatasetError("foreign domain offers no distinct replacement")
    corrupted = str(rng.choice(candidates))
    return Corruption(original=str(value), corrupted=corrupted, kind="domain_violation")


def numeric_outlier(
    value: float | int, rng: random.Random, scale_range: tuple[float, float] = (8.0, 40.0)
) -> Corruption:
    """Scale a numeric value far outside its plausible range.

    Models unit errors (kg vs g) and dropped decimal points.  The sign of
    the scaling (blow up vs collapse) is random.
    """
    low, high = scale_range
    if low <= 1.0 or high <= low:
        raise DatasetError("scale_range must satisfy 1 < low < high")
    factor = rng.uniform(low, high)
    if rng.random() < 0.5 and float(value) != 0.0:
        corrupted_value = float(value) / factor
    else:
        corrupted_value = float(value) * factor
    if float(value) == 0.0:
        corrupted_value = factor  # zero scales to zero; shift instead
    corrupted = _format_number(corrupted_value)
    original = _format_number(float(value))
    if corrupted == original:
        corrupted = _format_number(corrupted_value + 1.0)
    return Corruption(original=original, corrupted=corrupted, kind="numeric_outlier")


def _format_number(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.2f}"


class CellCorruptor:
    """Applies a configurable mix of corruption kinds to cells.

    Parameters
    ----------
    rng:
        Source of randomness (caller-seeded for determinism).
    typo_kind:
        Typo family to use (``"any"`` or a specific edit).
    """

    def __init__(self, rng: random.Random, typo_kind: str = "any"):
        self._rng = rng
        self._typo_kind = typo_kind

    def corrupt_text(
        self, value: str, foreign_domain: list[str] | None = None
    ) -> Corruption:
        """Corrupt a textual cell: typo, or domain violation when a foreign
        domain is supplied (50/50)."""
        if foreign_domain and self._rng.random() < 0.5:
            try:
                return domain_violation(value, foreign_domain, self._rng)
            except DatasetError:
                pass  # fall through to a typo
        return typo(value, self._rng, kind=self._typo_kind)

    def corrupt_numeric(self, value: float | int) -> Corruption:
        return numeric_outlier(value, self._rng)
