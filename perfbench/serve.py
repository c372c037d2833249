"""``python -m repro serve`` with host-speed sampling in every process.

``run.py`` launches the campaign service through this file::

    python3 perfbench/serve.py <speed dir> <repro CLI arguments...>

It starts a :class:`~measure.SpeedSampler` in the server and, through an
at-fork hook, in each pool worker the server forks.  Every process
appends its samples to ``<speed dir>/speed-<pid>.txt``; the server then
runs the unchanged repro CLI.  On a host with two or more CPUs the pool
workers are pinned to the last CPU and the server to the first (where
the client also runs), so the worker that computes every point never
shares its CPU and its samples time the CPU the points ran on.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import SpeedSampler  # noqa: E402


def _sample_into(directory: str, cpu) -> None:
    """Pin this process to ``cpu`` (unless None) and start sampling."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    SpeedSampler(os.path.join(directory, f"speed-{os.getpid()}.txt")).start()


def main(argv) -> int:
    directory = argv[1]
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu, worker_cpu = (cpus[0], cpus[-1]) if len(cpus) > 1 else (None, None)
    _sample_into(directory, server_cpu)
    os.register_at_fork(after_in_child=lambda: _sample_into(directory, worker_cpu))
    from repro.cli import main as repro_main

    return repro_main(argv[2:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
