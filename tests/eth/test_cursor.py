"""Tests for the resumable event-log cursor."""

import pytest

from repro.eth.chain import Blockchain, Contract
from repro.eth.cursor import EventCursor


class Emitter(Contract):
    """Toy contract: emits one Pinged event per ping."""

    def ping(self, ctx, value):
        ctx.emit("Pinged", value=value)


@pytest.fixture
def chain():
    chain = Blockchain()
    chain.create_account("alice", balance=10**18)
    chain.deploy(Emitter("a"))
    chain.deploy(Emitter("b"))
    return chain


class TestPoll:
    def test_poll_consumes_and_advances(self, chain):
        cursor = EventCursor(chain)
        chain.call_now("alice", "a", "ping", 1)
        chain.call_now("alice", "a", "ping", 2)
        events = cursor.poll()
        assert [e.args["value"] for e in events] == [1, 2]
        assert cursor.log_index == 2
        assert cursor.poll() == ()

    def test_poll_filters_by_contract(self, chain):
        cursor = EventCursor(chain, contract="a")
        chain.call_now("alice", "a", "ping", 1)
        chain.call_now("alice", "b", "ping", 2)
        chain.call_now("alice", "a", "ping", 3)
        events = cursor.poll()
        assert [e.args["value"] for e in events] == [1, 3]
        assert all(e.contract == "a" for e in events)

    def test_poll_advances_past_foreign_events(self, chain):
        """Non-matching events still move the cursor — the next poll
        must not rescan them."""
        cursor = EventCursor(chain, contract="a")
        chain.call_now("alice", "b", "ping", 1)
        assert cursor.poll() == ()
        assert cursor.log_index == 1
        assert cursor.caught_up

    def test_caught_up_poll_allocates_nothing(self, chain):
        cursor = EventCursor(chain)
        first = cursor.poll()
        second = cursor.poll()
        assert first is second  # the shared empty tuple

    def test_start_offset(self, chain):
        chain.call_now("alice", "a", "ping", 1)
        chain.call_now("alice", "a", "ping", 2)
        cursor = EventCursor(chain, start=1)
        assert [e.args["value"] for e in cursor.poll()] == [2]

    def test_negative_start_rejected(self, chain):
        with pytest.raises(ValueError):
            EventCursor(chain, start=-1)


class TestPeekAndSeek:
    def test_peek_through_a_clone_does_not_advance(self, chain):
        cursor = EventCursor(chain, contract="a")
        assert not cursor.clone().poll()
        chain.call_now("alice", "a", "ping", 1)
        assert len(cursor.clone().poll()) == 1
        assert cursor.log_index == 0
        assert len(cursor.poll()) == 1

    def test_peek_respects_filter(self, chain):
        cursor = EventCursor(chain, contract="a")
        chain.call_now("alice", "b", "ping", 1)
        assert not cursor.clone().poll()

    def test_seek_to_log_boundary(self, chain):
        """A cursor committed exactly at the head of the log is caught
        up, and sees exactly the events appended afterwards."""
        chain.call_now("alice", "a", "ping", 1)
        cursor = EventCursor(chain, contract="a")
        cursor.seek(len(chain.event_log))
        assert cursor.caught_up
        assert cursor.poll() == ()
        chain.call_now("alice", "a", "ping", 2)
        assert not cursor.caught_up
        assert [e.args["value"] for e in cursor.poll()] == [2]

    def test_seek_negative_rejected(self, chain):
        cursor = EventCursor(chain)
        with pytest.raises(ValueError):
            cursor.seek(-5)

    def test_clone_is_independent(self, chain):
        chain.call_now("alice", "a", "ping", 1)
        cursor = EventCursor(chain, contract="a")
        twin = cursor.clone()
        assert len(cursor.poll()) == 1
        assert twin.log_index == 0
        assert len(twin.poll()) == 1


class TestEventsSinceView:
    def test_caught_up_returns_shared_empty(self, chain):
        assert chain.events_since(0) is chain.events_since(0)
        assert chain.events_since(0) == ()

    def test_past_end_returns_empty(self, chain):
        chain.call_now("alice", "a", "ping", 1)
        assert chain.events_since(99) == ()

    def test_returns_immutable_tuple(self, chain):
        chain.call_now("alice", "a", "ping", 1)
        view = chain.events_since(0)
        assert isinstance(view, tuple)
        with pytest.raises(TypeError):
            view[0] = None
