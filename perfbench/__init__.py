"""Benchmark of bridgelab: seeded workloads, correctness oracles and tracing."""
