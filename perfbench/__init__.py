"""The repository benchmark: workloads, layer probes and the runner (``run.py``)."""
