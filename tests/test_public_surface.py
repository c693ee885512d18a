"""Every exported name resolves, and what the benchmark's tracer needs stays.

``perfbench/tracing.py`` wraps public functions by name and skips any that a
version lacks, but two things it takes for granted: ``kernel_cases()``
imports graph builders from ``topocompat`` (``from_edge_list`` among them),
and ``_KernelProxy`` looks up every name in ``KERNEL_ENTRIES`` on a kernel
backend with a plain ``getattr``.  A removal that broke either would break
``perfbench/run.py --trace 1``; these tests catch it first.  The tracer is
loaded from its file without writing bytecode next to it, and no kernel case
is run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import topocompat
from topocompat._kernels import pykernels

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

MODULES = [
    "topocompat",
    "topocompat._kernels",
    "topocompat.cli",
    "topocompat.compat",
    "topocompat.edgelist",
    "topocompat.embedding",
    "topocompat.graph",
    "topocompat.topologies",
]

# helpers that repeated an answer the potential cells, their reports, ``embed`` or
# ``hypercube_labels`` give, and the package's check of its own witnesses, which
# the tests make with ``oracles.is_embedding`` instead
REMOVED = {
    "topocompat.embedding": ("max_star_order", "embeddable_ring_orders", "longest_cycle",
                             "verify_embedding"),
    "topocompat.compat": ("hypercube_star_witness", "hypercube_ring_potential", "round_half_up",
                           "hypercube_star_potential", "make_report", "star_potential",
                           "ring_potential", "compatibility_index"),
    "topocompat.graph": ("ball_size", "diameter", "is_bipartite", "largest_ball",
                         "component_color_classes"),
    "topocompat.topologies": ("canonical_hypercube_dim",),
    "topocompat._kernels": ("have_compiled",),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name,attrs", sorted(REMOVED.items()))
def test_removed_helpers_are_gone(name, attrs):
    module = importlib.import_module(name)
    for attr in attrs:
        assert not hasattr(module, attr), f"{name}.{attr}"
        assert not hasattr(topocompat, attr), attr
        assert attr not in topocompat.__all__


def test_graph_has_no_edge_lookup():
    assert not hasattr(topocompat.Graph, "has_edge")


@pytest.fixture(scope="module")
def tracing():
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


def test_tracer_kernel_cases_import(tracing):
    cases = tracing.kernel_cases()
    assert cases and all(callable(runner) for _, runner in cases)


@pytest.mark.parametrize("backend", ("pure", "compiled"))
def test_tracer_finds_every_kernel_entry(tracing, backend, request):
    kern = request.getfixturevalue("ckernels") if backend == "compiled" else pykernels
    proxy = tracing._KernelProxy(kern, tracing.Tracer())
    for name in tracing.KERNEL_ENTRIES:
        assert callable(getattr(proxy, name)), name
