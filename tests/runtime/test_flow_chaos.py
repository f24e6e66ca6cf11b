"""Flow-level chaos: crash at a stage boundary, resume bit-identically.

The flow ledger's claim is stronger than "the run finishes": a process
killed at *any* stage boundary — after a stage ran but before its record
hit the disk, or right after the fsync'd append — must resume into a
result byte-identical (canonical JSON, timing included) to a run that
was never interrupted.  Mid-stage crashes are also covered: the stage's
own per-batch journal replays the completed batches and the ledger picks
up from there.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.errors import InjectedCrashError
from repro.flow import FLOW_CRASH_SITES, FlowChaos
from repro.llm.faults import Fault, FaultInjectingClient
from repro.llm.simulated import SimulatedLLM
from repro.obs.manifest import canonical_json
from tests.fixtures import run_reference_flow

STAGES = ("detect", "impute", "align", "match")


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted reference run — the byte-level ground truth."""
    return canonical_json(run_reference_flow().payload())


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("site", FLOW_CRASH_SITES)
def test_stage_boundary_crash_resumes_bit_identically(
    stage, site, tmp_path, baseline
):
    with pytest.raises(InjectedCrashError):
        run_reference_flow(
            workdir=tmp_path, chaos=FlowChaos(stage=stage, site=site)
        )
    resumed = run_reference_flow(workdir=tmp_path)
    assert canonical_json(resumed.payload()) == baseline
    # post_record persisted the crashed stage; pre_record lost its record
    expected_prefix = STAGES[: STAGES.index(stage) + (site == "post_record")]
    assert resumed.resumed_stages == expected_prefix


def test_mid_stage_crash_resumes_bit_identically(tmp_path):
    """Kill the client partway through a stage: the stage's own journal
    replays its completed batches, then the flow finishes normally."""
    crash_at = 4  # the reference flow's impute stage (detect uses 2 calls)

    def crashing(index: int):
        return Fault(kind="crash") if index == crash_at else None

    # the ledger seals the client class into its header, so the crashing
    # run, the resume, and the baseline all use the same wrapper — the
    # resume and baseline just with an empty fault plan
    def quiet_client():
        return FaultInjectingClient(SimulatedLLM("gpt-3.5", seed=0), {})

    baseline = canonical_json(
        run_reference_flow(client=quiet_client()).payload()
    )
    client = FaultInjectingClient(SimulatedLLM("gpt-3.5", seed=0), crashing)
    with pytest.raises(InjectedCrashError):
        run_reference_flow(client=client, workdir=tmp_path)
    resumed = run_reference_flow(client=quiet_client(), workdir=tmp_path)
    assert canonical_json(resumed.payload()) == baseline


def test_double_crash_still_converges(tmp_path, baseline):
    """Crash twice at different boundaries; the third attempt completes."""
    for stage in ("detect", "align"):
        with pytest.raises(InjectedCrashError):
            run_reference_flow(
                workdir=tmp_path, chaos=FlowChaos(stage=stage)
            )
    final = run_reference_flow(workdir=tmp_path)
    assert canonical_json(final.payload()) == baseline
    assert final.resumed_stages == ("detect", "impute", "align")
