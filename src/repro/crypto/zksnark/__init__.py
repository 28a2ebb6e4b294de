"""Simulated zkSNARK stack: R1CS, gadgets, Groth16 backend, timing model."""
