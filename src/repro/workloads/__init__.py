"""Workload generators and graph data structures for the experiments.

The paper evaluates small, manually orchestrated workloads (5-element arrays,
100×10 least-squares problems, an 11-node / 30-edge bipartite graph, a 10-tap
IIR filter over 500 samples).  This subpackage generates random instances of
those shapes — and larger ones for scaling studies — from seeded random
generators so that every experiment is reproducible.
"""
