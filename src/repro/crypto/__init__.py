"""Cryptographic substrates: field, hashes, trees, sharing, zkSNARKs."""
