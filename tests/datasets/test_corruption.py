"""Tests for repro.datasets.corruption."""

import random

import pytest

from repro.datasets.corruption import (
    CellCorruptor,
    Corruption,
    domain_violation,
    numeric_outlier,
    typo,
)
from repro.errors import DatasetError


class TestTypo:
    @pytest.mark.parametrize("kind", ["insert", "delete", "substitute",
                                      "transpose", "x_insert", "any"])
    def test_always_changes_value(self, kind):
        rng = random.Random(0)
        for __ in range(50):
            assert typo("hospital", rng, kind=kind).corrupted != "hospital"

    def test_x_insert_adds_x(self):
        rng = random.Random(1)
        out = typo("heart", rng, kind="x_insert")
        assert out.corrupted.replace("x", "", 1) == "heart" or "x" in out.corrupted

    def test_degenerate_strings_survive(self):
        rng = random.Random(2)
        for value in ("w", "ww", "www", "aa"):
            assert typo(value, rng).corrupted != value

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            typo("", random.Random(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError):
            typo("abc", random.Random(0), kind="mangle")


class TestDomainViolation:
    def test_replacement_differs(self):
        rng = random.Random(0)
        out = domain_violation("a", ["a", "b", "c"], rng)
        assert out.corrupted in ("b", "c")

    def test_no_distinct_candidates(self):
        with pytest.raises(DatasetError):
            domain_violation("a", ["a"], random.Random(0))


class TestNumericOutlier:
    def test_far_outside(self):
        rng = random.Random(0)
        for __ in range(30):
            out = numeric_outlier(40, rng)
            value = float(out.corrupted)
            assert value < 10 or value > 300

    def test_zero_handled(self):
        out = numeric_outlier(0, random.Random(0))
        assert float(out.corrupted) != 0.0

    def test_bad_range(self):
        with pytest.raises(DatasetError):
            numeric_outlier(1, random.Random(0), scale_range=(0.5, 2.0))


class TestCorruptionInvariants:
    def test_no_op_corruption_rejected(self):
        with pytest.raises(DatasetError):
            Corruption(original="a", corrupted="a", kind="typo")

    def test_cell_corruptor_text(self):
        corruptor = CellCorruptor(random.Random(3))
        out = corruptor.corrupt_text("private", foreign_domain=["sales"])
        assert out.corrupted != "private"
