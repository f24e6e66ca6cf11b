"""Backends: picklable client factories and the Checkpointable protocol."""

import pickle

import pytest

from repro.errors import LLMError
from repro.llm.backend import (
    Backend,
    Checkpointable,
    FaultBackend,
    SimulatedBackend,
)
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.faults import Fault
from tests.fixtures import CachingBackend


def _request():
    from tests.oracles import build_decode_requests

    return build_decode_requests(1)[0]


def _stack():
    return CachingBackend(
        FaultBackend(
            SimulatedBackend(model="gpt-3.5", seed=7),
            {2: Fault(kind="rate_limit", message="slow down")},
        ),
        max_entries=64,
    )


class TestBackendProtocol:
    @pytest.mark.parametrize("backend", [
        SimulatedBackend(),
        FaultBackend(SimulatedBackend(), {}),
        CachingBackend(SimulatedBackend()),
        _stack(),
    ], ids=["simulated", "faults", "caching", "stack"])
    def test_every_backend_satisfies_the_protocol(self, backend):
        assert isinstance(backend, Backend)

    def test_a_bare_client_is_not_a_backend(self):
        assert not isinstance(SimulatedBackend().build(), Backend)

    def test_describe_is_plain_data_and_stable(self):
        described = _stack().describe()
        assert described == _stack().describe()
        assert described["kind"] == "caching"
        assert described["inner"]["inner"]["model"] == "gpt-3.5"


class TestPicklability:
    def test_the_full_stack_round_trips(self):
        backend = _stack()
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.describe() == backend.describe()

    def test_clients_built_either_side_of_the_wire_agree(self):
        backend = SimulatedBackend(seed=3)
        clone = pickle.loads(pickle.dumps(backend))
        assert (
            backend.build().complete(_request()).text
            == clone.build().complete(_request()).text
        )

    def test_builds_are_independent(self):
        backend = SimulatedBackend()
        first, second = backend.build(), backend.build()
        first.complete(_request())  # advances first's call counter only
        assert first.checkpoint_state() != second.checkpoint_state()


class TestFaultBackendPlans:
    def test_callable_plans_are_rejected_at_construction(self):
        with pytest.raises(LLMError, match="callable"):
            FaultBackend(SimulatedBackend(), lambda request, index: None)

    @pytest.mark.parametrize("plan", [
        {1: Fault(kind="rate_limit"), "deadbeef": Fault(kind="rate_limit")},
        {1.0: Fault(kind="rate_limit")},
    ], ids=["mixed_keys", "float_key"])
    def test_plans_the_injector_refuses_are_rejected_at_construction(self, plan):
        with pytest.raises(LLMError, match="keyed entirely"):
            FaultBackend(SimulatedBackend(), plan)

    def test_positional_entries_must_map_to_one_fault(self):
        with pytest.raises(LLMError, match="positional"):
            FaultBackend(
                SimulatedBackend(),
                {1: (Fault(kind="rate_limit", message="m"),)},
            )

    def test_fingerprint_entries_accept_schedules(self):
        backend = FaultBackend(
            SimulatedBackend(),
            {"deadbeef": (Fault(kind="rate_limit", message="m"), None)},
        )
        assert backend.build() is not None

    def test_positional_fault_reaches_the_injector_unwrapped(self):
        from repro.errors import RateLimitError

        fault = Fault(kind="rate_limit", message="m", retry_after=0.5)
        client = FaultBackend(SimulatedBackend(), {1: fault}).build()
        with pytest.raises(RateLimitError):
            client.complete(_request())
        assert client.n_injected == 1
        client.complete(_request())  # call 2 has no fault scheduled
        assert client.n_injected == 1


class TestCheckpointable:
    def test_simulated_client_opts_in(self):
        assert isinstance(SimulatedBackend().build(), Checkpointable)

    def test_state_round_trips(self):
        client = SimulatedBackend().build()
        client.complete(_request())
        state = client.checkpoint_state()
        replica = SimulatedBackend().build()
        replica.restore_checkpoint_state(state)
        assert replica.checkpoint_state() == state

    def test_an_arbitrary_object_is_not_checkpointable(self):
        assert not isinstance(object(), Checkpointable)
