"""Tests for repro.core.config."""

import pytest

from repro.core.config import (
    ABLATION_ROWS,
    DEFAULT_BATCH_SIZE,
    PipelineConfig,
    ablation_config,
)
from repro.data.instances import Task
from repro.errors import ConfigError


class TestPipelineConfig:
    def test_paper_fewshot_defaults(self):
        config = PipelineConfig()
        assert config.fewshot_for(Task.SCHEMA_MATCHING) == 3
        assert config.fewshot_for(Task.ENTITY_MATCHING) == 10

    def test_explicit_fewshot_wins(self):
        assert PipelineConfig(fewshot=5).fewshot_for(Task.SCHEMA_MATCHING) == 5

    def test_batch_size_defaults_per_model(self):
        for model, expected in DEFAULT_BATCH_SIZE.items():
            assert PipelineConfig(model=model).batch_size_for_model() == expected

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(fewshot=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(batch_size=0)
        with pytest.raises(ConfigError):
            PipelineConfig(batching="sorted")
        with pytest.raises(ConfigError):
            PipelineConfig(temperature=3.0)
        with pytest.raises(ConfigError):
            PipelineConfig(max_format_retries=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(concurrency=0)

    def test_concurrency_defaults_sequential(self):
        assert PipelineConfig().concurrency == 1
        assert PipelineConfig(concurrency=8).concurrency == 8


class TestAblation:
    def test_six_rows_in_paper_order(self):
        labels = [label for label, __ in ABLATION_ROWS]
        assert labels == ["ZS-T", "ZS-T+B", "ZS-T+B+ZS-R", "ZS-T+FS",
                          "ZS-T+FS+B", "ZS-T+FS+B+ZS-R"]

    def test_zst_row_disables_everything(self):
        config = ablation_config("ZS-T")
        assert config.fewshot == 0
        assert config.batch_size == 1
        assert not config.reasoning

    def test_full_row_enables_everything(self):
        config = ablation_config("ZS-T+FS+B+ZS-R")
        assert config.fewshot is None
        assert config.batch_size is None
        assert config.reasoning

    def test_unknown_row(self):
        with pytest.raises(ConfigError):
            ablation_config("ZS-X")
