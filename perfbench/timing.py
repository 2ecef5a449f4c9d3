"""Case timing with host-speed correction.

On a shared virtual machine the host's speed can drift by tens of
percent within a fraction of a second, and the workload and a plain
stdlib loop slow down together.
While a workload runs, ``CaseClock`` samples the host's speed from an
interval timer: every ``PERIOD`` seconds the signal handler runs a short
chunk of a fixed Fraction/dict reference loop in the workload's own thread
and records how long it took. A case, or the whole workload, divided by
the speed at that time is its cost in reference-loop units ("ref"), which
stays put when the host slows down. Sampling time is excluded from every
case and from the workload's wall time.

Set-up is mostly imports, whose speed does not follow the Fraction loop:
on a two-vCPU x86_64 virtual machine, set-up took 0.16 s in one hour and
0.25 s in the next while the loop's speed moved by a tenth. Set-up is
therefore divided by ``import_reference``, a fixed import-bound job timed
in the same interpreter right after set-up. On that machine this cut the
spread of a run's set-up median across ten runs from 0.13-0.16 of the
median to 0.03-0.06.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import signal
import statistics
import sysconfig
import time
from fractions import Fraction

REF_STEPS = 60_000     # one "ref" is the time of this many steps
CHUNK_STEPS = 1_000
PERIOD = 0.05

# Pure-Python standard-library modules with absolute imports only, whose
# bodies the import reference executes.
IMPORT_REF_MODULES = (
    "argparse", "ast", "calendar", "configparser", "dataclasses", "difflib",
    "ftplib", "imaplib", "inspect", "optparse", "pickle", "pprint", "shlex",
    "smtplib", "subprocess", "tarfile", "tempfile", "textwrap", "mailbox",
    "zipfile")
IMPORT_REF_ROUNDS = 3
# Median of ``import_reference`` over 900 set-up interpreters on the
# baseline host (x86_64, two vCPUs, Python 3.11.7). Set-up is reported as
# its ratio to the reference times this constant, so it reads as seconds
# at that host's median import speed.
IMPORT_REF_S = 0.0216


def import_reference() -> float:
    """Median seconds of one round that executes the bodies of
    ``IMPORT_REF_MODULES``, each loaded from the standard library under a
    fresh module name, so the modules in ``sys.modules`` are untouched.

    A round reads and unmarshals cached bytecode and builds classes and
    functions, as importing the program does. A first, untimed round
    imports the modules' own dependencies. The cyclic collector is
    paused, so the size of the heap set-up left behind does not count.
    """
    lib = sysconfig.get_paths()["stdlib"]

    def load_round(tag):
        for name in IMPORT_REF_MODULES:
            spec = importlib.util.spec_from_file_location(
                f"_import_ref{tag}_{name}", os.path.join(lib, name + ".py"))
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    enabled = gc.isenabled()
    gc.disable()
    try:
        load_round("w")
        times = []
        for n in range(IMPORT_REF_ROUNDS):
            t = time.perf_counter()
            load_round(n)
            times.append(time.perf_counter() - t)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def reference_loop(steps: int = REF_STEPS) -> float:
    """Seconds for ``steps`` iterations of a fixed Fraction/dict loop.

    The cyclic collector is paused meanwhile: otherwise a chunk could pay
    for a full collection of the workload's heap and read as a slow host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(steps):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
            if acc.denominator > 10 ** 12:
                acc = Fraction(acc.numerator % 1_000_003, 7)
            key = (i % 251, i % 13)
            table[key] = table.get(key, 0) + 1
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class CaseClock:
    """Times cases and samples host speed while it is started."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.cases = []      # (start, seconds without sampling time)
        self.marks = []      # (time, seconds per REF_STEPS)
        self.probe_s = 0.0   # time spent sampling
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = self.clock()
        took = reference_loop(CHUNK_STEPS)
        end = self.clock()
        self.probe_s += end - start
        self.marks.append((end, took * REF_STEPS / CHUNK_STEPS))
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def timed(self, fn):
        """``fn`` wrapped so that each call is one case."""
        def case(*args, **kwargs):
            t, probed = self.clock(), self.probe_s
            try:
                return fn(*args, **kwargs)
            finally:
                self.cases.append(
                    (t, self.clock() - t - (self.probe_s - probed)))
        return case

    def speed_at(self, t: float) -> float:
        """Seconds per ref at time ``t``, linear between marks."""
        marks = self.marks
        if t <= marks[0][0]:
            return marks[0][1]
        for (t0, r0), (t1, r1) in zip(marks, marks[1:]):
            if t <= t1:
                return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        return marks[-1][1]

    def mean_speed(self) -> float:
        """Time-weighted mean of seconds per ref over the marks."""
        marks = self.marks
        if len(marks) < 2:
            return marks[0][1]
        area = sum((t1 - t0) * (r0 + r1) / 2
                   for (t0, r0), (t1, r1) in zip(marks, marks[1:]))
        return area / (marks[-1][0] - marks[0][0])

    def case_refs(self) -> list:
        """Each case's duration in refs."""
        return [dt / self.speed_at(t + dt / 2) for t, dt in self.cases]
