"""Waku-RLN-Relay core: the paper's integrated protocol."""
