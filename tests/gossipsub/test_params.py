"""Absurd router parameters fail when they are built, naming the field.

Unchecked, a zero ``seen_ttl`` let every duplicate through to the
application (``honest-steady`` at 10 peers for 40 s reported a
delivery rate of 1.037), and a gossip window wider than the history
failed only when the first router was built.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import GossipError
from repro.gossipsub.params import GossipSubParams


@pytest.mark.parametrize(
    "field, value",
    [
        ("seen_ttl", 0.0),
        ("seen_ttl", -1.0),
        ("seen_ttl", float("nan")),
        ("mcache_len", 0),
        ("mcache_gossip", 6),
        ("mcache_gossip", -1),
        ("heartbeat_interval", 0.0),
        ("heartbeat_interval", -0.5),
        ("max_iwant_per_heartbeat", -1),
    ],
)
def test_out_of_range_field_is_a_typed_error(field, value):
    with pytest.raises(GossipError, match=f"GossipSubParams.{field} = "):
        GossipSubParams(**{field: value})
    with pytest.raises(GossipError, match=field):  # copies are checked too
        replace(GossipSubParams(), **{field: value})


@pytest.mark.parametrize("length, gossip", [(1, 0), (1, 1), (6, 6)])
def test_window_boundaries_are_accepted(length, gossip):
    params = GossipSubParams(mcache_len=length, mcache_gossip=gossip)
    assert (params.mcache_len, params.mcache_gossip) == (length, gossip)
