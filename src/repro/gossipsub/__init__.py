"""GossipSub v1.1: mesh pub/sub with lazy gossip and peer scoring."""
