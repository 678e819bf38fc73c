"""Reference operations that put pass and entry times on a steady scale.

On a shared machine the speed of the CPU the benchmark gets swings by up to
2x for tens of seconds to minutes at a time (README, "Reference speed").
Every timed pass is therefore bracketed by a few runs of a fixed reference
operation that does not involve redustat; a time ``t`` measured in that pass
is reported as ``t * nominal / probe``, where ``probe`` is the mean of the
median times before and after the pass. On a machine where the reference
operation takes its nominal time the reported figure equals the measured one.

The reference operation matches what the workload spends its time on:
Python computation for the scripted workloads, one stand-in test run (start
``sh``, wait, read a file) for ``command-oracle``.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from pathlib import Path

from workloads import STANDIN_SCRIPT, STANDIN_WAIT_S

#: Nominal times of the reference operations (about their time on an idle
#: 2-vCPU Xeon guest; any fixed value would do, these keep figures near seconds).
CPU_NOMINAL_S = 0.010
STANDIN_NOMINAL_S = 0.025
#: Runs of the reference operation before and after each pass.
CPU_RUNS, STANDIN_RUNS = 5, 3

_TEXT = "int v1 = 42; helper(v1); assertEquals(3, v1);\n" * 80


def cpu_operation() -> None:
    """Fixed Python work of the kinds a scripted pass does: set differences,
    character scanning, slicing and dictionary updates."""
    retained = frozenset(range(2000))
    table: dict[int, list[str]] = {}
    total = 0
    for i in range(300):
        total += len(retained - frozenset(range(i, i + 50)))
        table[i % 97] = _TEXT[i:i + 24].split()
        for ch in _TEXT[:300]:
            if ch.isalpha():
                total += 1


class Probe:
    """Times the reference operation of one workload."""

    def __init__(self, command_oracle: bool, scratch: Path):
        self.runs = STANDIN_RUNS if command_oracle else CPU_RUNS
        self.nominal = STANDIN_NOMINAL_S if command_oracle else CPU_NOMINAL_S
        self.samples: list[float] = []
        self._operation = cpu_operation
        if command_oracle:
            scratch.mkdir(parents=True, exist_ok=True)
            candidate = scratch / "ProbeTest.java"
            candidate.write_text('Widget w = Widgets.make("DECL0_");\n'
                                 'assertValid(w, "MARK1_");\n', encoding="utf-8")
            argv = ["sh", str(STANDIN_SCRIPT), str(candidate), str(STANDIN_WAIT_S),
                    "MARK1_:DECL0_"]

            def standin_run() -> None:
                subprocess.run(argv, cwd=scratch, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, check=False)

            self._operation = standin_run

    def measure(self) -> float:
        """Median time of ``runs`` reference operations, in seconds (the
        median, so that one interrupted run does not move the scale)."""
        times = []
        for _ in range(self.runs):
            start = time.perf_counter()
            self._operation()
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        self.samples.append(median)
        return median
