"""Experiment harness: one runner per table/figure of the paper."""
