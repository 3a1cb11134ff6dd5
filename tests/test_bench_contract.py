"""The names and calls the benchmark in ``bench/`` relies on.

``bench/tracing.py`` patches functions by (module, name) when a run is
traced, and the workloads build graphs and realizations from plain tuples;
a rename or a removed path here would break the benchmark, not the suite.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import planewidth.geometry
from planewidth.graphs import Graph, graph_from_edges
from planewidth.realization import Realization

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_traced_names_exist(tracing):
    for module, name in [*tracing.SPANNED, *tracing.COUNTED]:
        mod = importlib.import_module("planewidth." + module)
        assert callable(getattr(mod, name, None)), (module, name)
    assert callable(Graph.sorted_edges)


def test_tuple_inputs_and_views():
    g = graph_from_edges(3, [(2, 0), (0, 1)])
    assert sorted(g.edges) == [(0, 1), (0, 2)] == g.sorted_edges()
    r = Realization(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert np.asarray(r.points).shape == (3, 2)
    assert planewidth.geometry.distance(r.points[1], r.points[2]) == 2 ** 0.5


def test_bench_checks_self_test():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "checks.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
