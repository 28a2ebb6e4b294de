"""Rate-Limiting Nullifier framework: signals, proofs, detection."""
