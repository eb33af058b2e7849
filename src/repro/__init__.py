"""GDR-HGNN reproduction library.

This package reproduces *GDR-HGNN: A Heterogeneous Graph Neural Networks
Accelerator Frontend with Graph Decoupling and Recoupling* (Xue et al.,
DAC 2024) as a pure-Python system:

- :mod:`repro.graph` -- heterogeneous graph substrate (typed graphs,
  semantic graph build, statistically matched synthetic datasets).
- :mod:`repro.restructure` -- the paper's contribution as an algorithm
  library: graph decoupling (maximum bipartite matching), backbone
  selection, and graph recoupling into community-structured subgraphs.
- :mod:`repro.models` -- functional numpy implementations of RGCN, RGAT
  and Simple-HGN as SGB/FP/NA/SF stage pipelines.
- :mod:`repro.memory` -- caches, scratchpad buffers, FIFOs and an HBM
  DRAM timing model.
- :mod:`repro.accelerator` -- a cycle-approximate model of the HiHGNN
  accelerator.
- :mod:`repro.frontend` -- the GDR-HGNN hardware frontend
  (Decoupler + Recoupler) and its pipelined integration with HiHGNN.
- :mod:`repro.gpu` -- T4 / A100 GPU performance models running the same
  workloads.
- :mod:`repro.energy` -- area / power / energy models (12 nm).
- :mod:`repro.analysis` -- the Fig. 2 thrashing profile, the buffer
  sweep and the text renderers for tables and histograms.
- :mod:`repro.api` -- the stable programmatic entry point: declarative
  :class:`~repro.api.spec.ExperimentSpec`, typed results and the
  blocking/streaming :class:`~repro.api.session.Session`.
- :mod:`repro.scenarios` -- the scenario catalog: registered
  parameterized workload families (scale/skew/relation sweeps,
  adversarial stress cases) usable wherever a dataset name is.

The evaluation entry points (``ExperimentSpec``, ``Session``,
``GridResult``, ...) are exposed lazily:
``from repro import Session`` works, but ``import repro`` alone never
pays for the simulator stack.
"""

from repro.graph import HeteroGraph, SemanticGraph, load_dataset
from repro.restructure import (
    GraphRestructurer,
    RestructureResult,
    decouple,
    recouple,
)

__version__ = "1.0.0"

#: Attribute -> defining module for the lazily exported evaluation API.
#: Resolved on first access via module ``__getattr__`` (PEP 562), so
#: ``import repro`` stays cheap while ``repro.Session`` et al. work.
_LAZY_EXPORTS = {
    "ExperimentSpec": "repro.api.spec",
    "Session": "repro.api.session",
    "CellResult": "repro.api.results",
    "GridResult": "repro.api.results",
    "CellFailure": "repro.platforms.failures",
    "RetryPolicy": "repro.platforms.failures",
    "FaultPlan": "repro.faults",
    "FaultRule": "repro.faults",
    "register_scenario": "repro.scenarios.registry",
    "build_scenario": "repro.scenarios.registry",
    "scenario_names": "repro.scenarios.registry",
    "load_workload": "repro.scenarios.workloads",
}

__all__ = [
    "HeteroGraph",
    "SemanticGraph",
    "load_dataset",
    "GraphRestructurer",
    "RestructureResult",
    "decouple",
    "recouple",
    "__version__",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    # Cache on the module so later accesses skip __getattr__.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
