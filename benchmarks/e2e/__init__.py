"""End-to-end benchmark: five workloads over the host, fleet and stream paths.

``BENCHMARK.json`` at the repo root names ``benchmarks/e2e/run.py`` as
the command; ``python -m benchmarks.e2e`` runs the whole set with the
traced pass and the correctness cross-checks. See ``README.md`` here.
"""
