"""The repository's end-to-end and per-layer benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from ``BENCHMARK.json`` against the
program under ``src/`` and prints the result document as its last line.
"""
