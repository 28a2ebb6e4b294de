"""Waku-Relay: anonymous pub/sub envelopes over GossipSub."""
