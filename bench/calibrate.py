"""Host-speed calibration: a fixed probe computation that is not vfsolve's.

The benchmark runs on shared hosts whose cores slow down and speed up by 20 to
40%, over seconds as well as minutes, and CPU time follows, since the slowdown
is the core's throughput and not time taken away from the process. While a run
times set-ups and solves, a :class:`Sampler` therefore also runs :func:`probe`
every quarter CPU second, from a ``SIGPROF`` handler, so the probes see the
same host speed as the work around them. The run reports its times half-way
rescaled (:func:`rescale`) to a nominal host on which one probe takes
:data:`NOMINAL_PROBE_S`, with the probes' own CPU time taken out.

The probe mixes what the workloads spend their time on: a recursive
expression-tree walk over dim-50 numpy arrays and a loop of numpy calls on
dim-50 arrays (interpreter and call overhead, like ``expr.evaluate`` and
``discrete.fred`` at 50 cells), and elementwise work on a 200 x 200 mesh (like
the kernels of ``oracle_refine``). Over 15 back-to-back solves each of
``expr_audit`` and ``reference`` in one process, dividing the solves' CPU
times by this probe's mean time left a 2.5% standard deviation from solve to
solve where the raw times had 7.6 and 9.4%; a pure-Python loop followed them
less closely, and the mesh work at 400 x 400 about as closely at twice the
cost. The probe imports nothing from vfsolve, so a change to the program moves
the rescaled times by as much as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds of one probe on the nominal host (Intel Xeon, 2 vCPU, Python
# 3.11, numpy 2.4 with OpenBLAS at one thread)
NOMINAL_PROBE_S = 0.002

_RNG = np.random.default_rng(20190717)
_V = _RNG.random(50)
_W = _RNG.random((50, 50)) / 50.0
_MESH = _RNG.random((200, 200))
_U = _RNG.random(200)
_TREE = ("+", ("*", "t", ("cos", "x")), ("*", ("*", "s", "s"), ("-", "x")))


def _ev(node, env):
    if type(node) is str:
        return env[node]
    op = node[0]
    if op == "cos":
        return np.cos(_ev(node[1], env))
    if op == "-":
        return np.negative(_ev(node[1], env))
    a, b = _ev(node[1], env), _ev(node[2], env)
    return a + b if op == "+" else a * b


def probe() -> float:
    """One unit of calibration work; returns a checksum."""
    env = {"t": _V, "s": 0.0, "x": _V.copy()}
    for i in range(100):
        env["s"] = i * 1e-3
        env["x"] = 0.5 * (env["x"] + _W @ _ev(_TREE, env))
    x = env["x"]
    for i in range(100):
        x = np.cos(x) * 0.5 + x * (i * 1e-3)
    mesh = 5.0 * _U[:, None] * _U[None, :] * np.cos(_MESH + x[0])
    return float(mesh.sum(axis=1)[0])


class Sampler:
    """Within ``with``, runs :func:`probe` every ``interval`` seconds of the
    process's CPU time and keeps the CPU seconds of each probe.

    :meth:`clock` is the thread's CPU time less the time spent in probes: the
    clock to time the work around them with.  (While the interval timer is
    armed, the process CPU clock advances in whole scheduler ticks on some
    kernels; the thread clock does not.)"""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.times: list[float] = []
        self._spent = 0.0
        self._busy = False

    def run_probe(self) -> None:
        """Two probes back to back; the second, with its data back in cache
        whatever the program did to the cache before, is the sample."""
        self._busy = True
        c0 = time.thread_time()
        probe()
        c1 = time.thread_time()
        probe()
        c2 = time.thread_time()
        self.times.append(c2 - c1)
        self._spent += c2 - c0
        self._busy = False

    def _on_signal(self, signum, frame) -> None:
        if not self._busy:
            self.run_probe()

    def clock(self) -> float:
        return time.thread_time() - self._spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def rescale(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` rescaled half-way to the nominal host: the geometric mean of
    the raw time and the time multiplied by ``NOMINAL_PROBE_S / probe_s``.

    The probe's speed does not follow the program's exactly: in some spells
    of the host it swings by 5 to 15% while the program's does not, in others
    it follows swings of 20% and more.  Half-way rescaling takes out half of
    the host's swing and adds half of the probe's own error; bench/README.md
    gives the spreads that chose it.
    """
    return cpu_s * (NOMINAL_PROBE_S / probe_s) ** 0.5
