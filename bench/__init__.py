"""The repository's one performance harness (see bench/README.md).

``BENCHMARK.json`` at the repo root names the command, the workloads and
every metric; this package measures them through the public ``repro``
surface only.
"""
