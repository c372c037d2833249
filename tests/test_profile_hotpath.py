"""Smoke tests of ``tools/profile_hotpath.py``'s ``--sample`` mode."""

from __future__ import annotations

import signal
import time

from tools.profile_hotpath import LineSampler, main


def _spin(seconds: float) -> int:
    end = time.process_time() + seconds
    total = 0
    while time.process_time() < end:
        for i in range(200):
            total += i
    return total


def test_sampler_bills_the_busy_function_and_restores_sigprof():
    before = signal.getsignal(signal.SIGPROF)
    with LineSampler() as sampler:
        _spin(0.15)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert sampler.samples > 0
    assert sampler.cpu_seconds >= 0.15
    busy = [key for key in sampler.own if key[1] == "_spin"]
    assert busy, sampler.own
    # Every sample's stack holds the test function that ran the loop.
    test_name = "test_sampler_bills_the_busy_function_and_restores_sigprof"
    assert max(
        count for (_, name), count in sampler.inclusive.items() if name == test_name
    ) == sampler.samples
    assert sum(sampler.lines.values()) == sampler.samples


def test_cli_sample_on_a_tiny_trace(capsys):
    assert main([
        "sparse", "--engine", "interp", "--sample", "--ops", "40",
        "--repeat", "3", "--top", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "samples over" in out
    assert "self %" in out and "incl %" in out
