"""Proximity-graph ANN substrates built from scratch.

The paper's index is an HNSW graph (Malkov & Yashunin, TPAMI 2020) built
over DCPE ciphertexts.  This subpackage provides:

* :mod:`repro.hnsw.graph` — hierarchical navigable small world graphs,
* :mod:`repro.hnsw.nsg` — a flat navigating-spreading-out-style graph
  (the paper notes the index can substitute other proximity graphs),
* :mod:`repro.hnsw.ivf` — IVF-Flat with a from-scratch k-means quantizer
  (the inverted-file family of Sections I/VIII),
* :mod:`repro.hnsw.heap` — bounded heaps, including a comparison-oracle
  max-heap for DCE's comparison-only refine phase,
* :mod:`repro.hnsw.bruteforce` — exact k-NN for ground truth,
* :mod:`repro.hnsw.distance` — squared-Euclidean distance kernels.
"""

from repro.hnsw.bruteforce import BruteForceIndex, exact_knn
from repro.hnsw.distance import (
    squared_distance,
    squared_distances_to_many,
    pairwise_squared_distances,
)
from repro.hnsw.graph import BUILD_MODES, HNSWIndex, HNSWParams, SearchStats
from repro.hnsw.heap import BoundedMaxHeap, ComparisonMaxHeap
from repro.hnsw.ivf import IVFFlatIndex, IVFParams, kmeans
from repro.hnsw.nsg import NSGIndex, NSGParams

__all__ = [
    "BUILD_MODES",
    "HNSWIndex",
    "HNSWParams",
    "SearchStats",
    "NSGIndex",
    "NSGParams",
    "IVFFlatIndex",
    "IVFParams",
    "kmeans",
    "BruteForceIndex",
    "exact_knn",
    "BoundedMaxHeap",
    "ComparisonMaxHeap",
    "squared_distance",
    "squared_distances_to_many",
    "pairwise_squared_distances",
]
