"""Regularized optimal experience replay: f-divergence priority machinery,
desk-scale actor-critic agents, and exact tabular oracles.

Importing roer pins BLAS to one thread per call (OpenBLAS, OpenMP and MKL
each read their variable once, when numpy loads), unless a variable is
already set: a SAC agent's pairs run on threads of their own, and BLAS
threads beside them oversubscribe the CPUs. A program that imported numpy
before roer keeps its own threads."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
