"""Comparison baselines: PoW, peer-scoring-only, on-chain messaging,
and the flooders that attack them."""
