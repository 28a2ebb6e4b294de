"""Declarative scenario harness for large-scale adversarial runs.

Compose topology, traffic, adversaries and churn into named,
seed-deterministic workloads::

    from repro.scenarios.registry import scenario
    from repro.scenarios.runner import run_scenario

    result = run_scenario(scenario("burst-spammer"), peers=200)
    print(result.format())

or from the command line::

    python -m repro.analysis run-scenario burst-spammer --peers 200
"""
