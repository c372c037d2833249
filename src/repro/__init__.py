"""repro — reproduction of "Stash Directory: A scalable directory for
many-core coherence" (Demetriades & Cho, HPCA 2014).

Public API tour:

* :func:`repro.sim.build_system` / :func:`repro.sim.run_trace` — build a
  configured CMP and run a trace on it.
* :class:`repro.common.SystemConfig` — the one config object (cores, caches,
  directory organization and provisioning ratio, NoC, timing, energy).
* :class:`repro.core.StashDirectory` + :class:`repro.core.DiscoveryEngine` —
  the paper's contribution.
* :mod:`repro.workloads` — the synthetic workload suite standing in for
  PARSEC/SPLASH-2.
* :mod:`repro.analysis` — experiment runners regenerating every table and
  figure (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    from repro import DirectoryKind, make_config, simulate

    sparse = simulate("mix", make_config(DirectoryKind.SPARSE, ratio=1.0))
    stash = simulate("mix", make_config(DirectoryKind.STASH, ratio=0.125))
    print(stash.normalized_time(sparse))  # ~1.0: the paper's headline
"""

from .analysis.experiments import make_config, run_headline, simulate
from .common.config import (
    CacheConfig,
    CoherenceProtocol,
    DirectoryConfig,
    DirectoryKind,
    EnergyConfig,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
    TimingConfig,
)
from .sim.results import SimulationResult
from .sim.simulator import Simulator, run_trace
from .sim.system import build_system
from .sim.trace import PackedTrace
from .workloads.suite import build_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoherenceProtocol",
    "DirectoryConfig",
    "DirectoryKind",
    "EnergyConfig",
    "NoCConfig",
    "PackedTrace",
    "SharerFormat",
    "SimulationResult",
    "Simulator",
    "StashEligibility",
    "SystemConfig",
    "TimingConfig",
    "__version__",
    "build_system",
    "build_workload",
    "make_config",
    "run_headline",
    "run_trace",
    "simulate",
    "workload_names",
]
