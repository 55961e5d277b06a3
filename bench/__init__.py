"""The repository benchmark: five workloads over the whole synthesis
flow, end-to-end metrics and a traced per-layer ledger.

Run from the checkout root with ``python -m bench run``; see
``bench/README.md``.
"""
