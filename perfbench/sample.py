"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: python3 perfbench/sample.py WORKLOAD SEED TRACE SPAWN_TIME WORKDIR OUT

The library import comes first, so that ``setup_s`` is the time from the
parent's spawn (SPAWN_TIME, CLOCK_MONOTONIC) to ``import paritywilson``
and ``paritywilson.cli`` complete, followed by one timing of the
reference work (``reference``).  WORKLOAD ``setup`` stops there.
Otherwise the seeded batch of operations runs (traced when TRACE is 1)
while a ``Speedometer`` times the reference work every ``PERIOD_S``, and
the result, one JSON object, is written to OUT.
"""

import time

import paritywilson  # noqa: F401  (the set-up being measured)
from paritywilson import cli  # noqa: F401

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

PERIOD_S = 0.5


def reference() -> float:
    """Wall time of a fixed piece of work of the kinds the library does:
    exact rational sums, pure-Python multiprecision floats and small numpy
    kernels (median 0.021 s on a 2-vCPU Xeon VM, 98 % of timings within
    0.011 to 0.038 s).  It never touches the library, so it times only how
    fast this machine runs right now."""
    start = time.perf_counter()
    for _ in range(10):
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(k, 3 * k + 1)
    with mpmath.workdps(40):
        acc = mpmath.mpf(0)
        for k in range(1, 600):
            acc += mpmath.sqrt(k) / k
    x = np.linspace(0.0, 10.0, 129)
    coeffs = np.arange(1.0, 14.0)
    for _ in range(125):
        float(np.sum(np.exp(-x) * np.polyval(coeffs, x)))
    return time.perf_counter() - start


class Speedometer:
    """Times the reference work when started, every ``PERIOD_S`` of wall
    time while running, and when stopped, so that the machine's speed is
    known throughout an operation however long it is.  The periodic
    timings run in a SIGALRM handler, between two bytecodes of whatever
    the library is doing; their time is kept apart (``spent``)."""

    def __init__(self):
        self.refs: list[float] = []
        self.busy: list[float] = []  # wall time between two timings, without them
        self.spent = 0.0
        self._mark = 0.0

    def _time(self) -> None:
        ref = reference()
        self.refs.append(ref)
        self.spent += ref
        self._mark = time.perf_counter()

    def _tick(self, *_) -> None:
        self.busy.append(time.perf_counter() - self._mark)
        self._time()

    def start(self) -> None:
        self._time()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._tick()

    def run_ref(self) -> float:
        """The busy time in units of the reference work: each interval
        over the mean of the two timings around it."""
        return sum(b / ((r0 + r1) / 2) for b, r0, r1 in zip(self.busy, self.refs, self.refs[1:]))


def _run(workload: str, seed: int, traced: bool, workdir: str) -> dict:
    import tracing
    import workloads
    from paritywilson.errors import ParityWilsonError

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    order = workloads.plan(workload, seed)
    ops = workloads.operations(workload, order, workdir)
    outcomes = []
    speed = Speedometer()
    speed.start()
    for name, thunk in ops:
        op_start, op_spent = time.perf_counter(), speed.spent
        error, measured, detail = None, None, ""
        try:
            out = thunk()
            status = "ok" if out.ok else "wrong"
            error, measured, detail = out.error, out.measured, out.note
        except ParityWilsonError as exc:
            status, detail = "failed", f"{type(exc).__name__}: {exc}"
        except Exception:  # a crash is reported, never taken for a result
            status, detail = "crashed", traceback.format_exc()
        outcomes.append({"name": name, "status": status, "error": error,
                         "measured": measured, "detail": detail,
                         "seconds": time.perf_counter() - op_start - (speed.spent - op_spent)})
    speed.stop()
    result = {"run_s": sum(speed.busy), "run_ref": speed.run_ref(),
              "reference_s": speed.refs, "order": order, "outcomes": outcomes,
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "mpmath": mpmath.__version__}}
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer)
        result["spans"] = tracer.spans
    return result


def main() -> None:
    workload, seed, traced, spawn, workdir, out = sys.argv[1:7]
    setup_s = IMPORTED - float(spawn)
    # the same time in reference works, timed right after the import
    result = {"setup_s": setup_s, "setup_ref": setup_s / reference()}
    if workload != "setup":
        result.update(_run(workload, int(seed), traced == "1", workdir))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=repr)


if __name__ == "__main__":
    main()
