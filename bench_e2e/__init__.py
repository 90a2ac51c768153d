"""The repo benchmark: four workloads, end-to-end metrics in host time and
simulated time, and a per-layer ledger measured from outside (README.md)."""
