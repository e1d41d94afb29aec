"""Fresh-process benchmark of paritywilson.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  Workloads: ``verify-suite``, ``expansion-scale`` and
``exact-scale`` (see ``workloads.py`` and ``BENCHMARK.json``).

The loop is closed with one client: each sample is a fresh child process
(``sample.py``), and the next one starts only after the previous child
has exited, so the library pays its import and table set-up on every
sample, as a user of ``paritywilson verify`` does.  Before each sample a
set-up probe child only imports the library.  Samples start until
``--seconds`` would be exceeded (at least ``MIN_SAMPLES``).

The speed of a shared machine drifts by up to 2x over seconds to
minutes, so the run time is reported in units of a fixed reference work
(``sample.reference``) that each sample times when its batch starts,
every 0.5 s while it runs, and when it ends (``sample.Speedometer``):
``run_ref`` is the median over samples of the sum, over the intervals
between two timings, of the interval's wall time over the mean of the
two reference times around it.  Likewise every child (probes and samples) divides its set-up time by
one reference timing right after the import; ``setup_s`` is the median
of that ratio over the run, times ``REFERENCE_S``, so it reads in seconds
at a fixed machine speed.  The wall times ``run_s`` and set-up, and the
reference time, are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics of the
traced ones, plus ``trace.overhead_s`` (traced minus untraced median
``run_ref``, in seconds at the median reference time).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong
result, a crash, a failed ``verify`` gate or a traced sample that
disagrees with an untraced one sets ``correct`` to false, is reported on
standard error, and makes the exit code 1.  An operation that raises a
library error (such as ``NoConvergence``) counts as failed, not as wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, including the overshoot of the last sample
WORK_DIR = ".perfbench"
# an exactly zero error reads as this floor, not as infinitely many digits;
# the errors measured today sit between 1e-11 and 1e-15
ERROR_FLOOR = 1e-17
# converts set-up times in reference works back to seconds: about the
# median reference time on a 2-vCPU Xeon VM (0.0204 s over 352 timings)
REFERENCE_S = 0.02


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """Runs ``sample.py`` in a fresh process and collects its result."""

    def __init__(self, root: str, workdir: str, started: float):
        self.root, self.workdir, self.started = root, workdir, started
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.count = 0

    def run(self, workload: str, seed: int, traced: bool) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"sample-{self.count}.json")
        log = os.path.join(self.workdir, f"sample-{self.count}.log")
        timeout = max(5.0, DEADLINE_S - (_clock() - self.started))
        with open(log, "w", encoding="utf-8") as fh:
            spawn = _clock()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "sample.py"), workload, str(seed),
                 "1" if traced else "0", repr(spawn), self.workdir, out],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = _clock() - spawn
        if proc.returncode != 0 or not os.path.exists(out):
            with open(log, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"sample process exited with {proc.returncode}:\n{tail}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        os.remove(log)
        result["wall_s"] = wall
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        return result


def _percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}; no percentile has ten samples beyond it"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.4f} (n={n})"


def _digest(sample: dict) -> str:
    return json.dumps([(o["name"], o["status"], o["measured"]) for o in sample["outcomes"]],
                      sort_keys=True)


def _machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**versions, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    # on SIGTERM, still stop and reap the running child (see Child.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paritywilson", "__init__.py")):
        print("error: run from the root of a paritywilson checkout (src/paritywilson "
              "not found)", file=sys.stderr)
        return 2
    started = _clock()
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _bench(args, spec, root, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _collect(args, child: Child, started: float):
    """The closed loop: a set-up probe, then a sample, until the time is up.
    With tracing, every second sample is traced."""
    setups, plain, traced, problems = [], [], [], []
    child.run("setup", 0, False)  # compiles bytecode once; not measured
    while True:
        done = len(plain) + len(traced)
        elapsed = _clock() - started
        walls = [s["wall_s"] for s in plain + traced]
        if done >= MIN_SAMPLES and elapsed + statistics.median(walls) > args.seconds:
            break
        if walls and elapsed + 2 * max(walls) > DEADLINE_S:
            break  # a slow program gets fewer samples, never a late result
        use_trace = bool(args.trace) and done % 2 == 1
        try:
            setups.append(child.run("setup", 0, False))
            sample = child.run(args.workload, args.seed, use_trace)
        except RuntimeError as exc:
            problems.append(str(exc))
            break
        setups.append(sample)
        (traced if use_trace else plain).append(sample)
    return setups, plain, traced, problems


def _check(samples: list[dict], problems: list[str]) -> None:
    """Correctness: no wrong result or crash, and every sample (traced or
    not) gives the same statuses and measured values."""
    for o in samples[0]["outcomes"]:
        if o["status"] in ("wrong", "crashed"):
            problems.append(f"{o['name']}: {o['status']} {o['detail'] or o['measured']}")
    reference = _digest(samples[0])
    if any(_digest(s) != reference for s in samples[1:]):
        problems.append("samples disagree on statuses or measured values "
                        "(traced vs untraced, or run to run)")


def _end_to_end(setups, plain, attempted, failed):
    outcomes = plain[0]["outcomes"]
    errors = [o["error"] for o in outcomes if o["status"] == "ok" and o["error"] is not None]
    run_ref = [s["run_ref"] for s in plain]
    values = {
        "run_ref": statistics.median(run_ref),
        "setup_s": REFERENCE_S * statistics.median(s["setup_ref"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "pass_ratio": (attempted - failed) / attempted,
        "accuracy_digits": -math.log10(max(max(errors), ERROR_FLOOR)) if errors else 0.0,
    }
    wall = statistics.median(s["run_s"] for s in plain)
    reference = statistics.median(r for s in plain for r in s["reference_s"])
    notes = {"run_ref": f"{_percentile_note(run_ref)}; wall time run_s={wall:.4f} s, "
                        f"reference={reference:.4f} s (medians)",
             "setup_s": f"{_percentile_note([REFERENCE_S * s['setup_ref'] for s in setups])}; "
                        f"wall time {statistics.median(s['setup_s'] for s in setups):.4f} s "
                        "(median)",
             "pass_ratio": f"fail_ratio={failed / attempted:.4g} ("
                           f"{sum(o['status'] != 'ok' for o in outcomes)} of "
                           f"{len(outcomes)} ops per sample)"}
    return values, notes


def _per_layer(plain, traced, problems):
    values = {}
    for key, first in traced[0]["layers"].items():
        series = [s["layers"][key] for s in traced]
        if isinstance(first, int):  # a count: equal in every traced sample
            if len(set(series)) > 1:
                problems.append(f"count {key} differs between traced samples: {series}")
            values[key] = statistics.median_low(series)
        else:
            values[key] = statistics.median(series)
    # in reference units, so that the machine's drift between the traced
    # and untraced samples cancels; then in seconds at the median speed
    reference = statistics.median(r for s in plain + traced for r in s["reference_s"])
    values["trace.overhead_s"] = reference * (statistics.median(s["run_ref"] for s in traced)
                                              - statistics.median(s["run_ref"] for s in plain))
    return values


def _bench(args, spec: dict, root: str, workdir: str, started: float) -> int:
    setups, plain, traced, problems = _collect(args, Child(root, workdir, started), started)
    samples = plain + traced
    if not plain or (args.trace and not traced):
        print("\n".join(problems or ["no sample completed"]), file=sys.stderr)
        return 1
    attempted = sum(len(s["outcomes"]) for s in samples)
    failed = sum(o["status"] != "ok" for s in samples for o in s["outcomes"])
    _check(samples, problems)

    first = samples[0]
    machine = _machine(first["versions"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"order={','.join(first['order'])}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"samples={len(plain)} traced={len(traced)} setup_probes={len(setups)}")
    for i, o in enumerate(first["outcomes"]):
        seconds = statistics.median(s["outcomes"][i]["seconds"] for s in plain)
        detail = f" ({o['detail'].splitlines()[-1]})" if o["detail"] else ""
        print(f"  op {o['name']:22s} {seconds:8.3f} s  {o['status']}{detail}")

    if args.trace:
        section, notes = "per_layer", {}
        values = _per_layer(plain, traced, problems)
    else:
        section = "end_to_end"
        values, notes = _end_to_end(setups, plain, attempted, failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  {notes.get(name, '')}".rstrip())

    report = os.path.join(root, WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "order": first["order"],
                   "machine": machine, "metrics": metrics, "problems": problems,
                   "setups": [[s["setup_s"], s["setup_ref"]] for s in setups],
                   "samples": [{"run_s": s["run_s"], "run_ref": s["run_ref"],
                                "reference_s": s["reference_s"], "setup_s": s["setup_s"],
                                "peak_rss_mb": s["peak_rss_mb"],
                                "op_seconds": [o["seconds"] for o in s["outcomes"]]}
                               for s in plain],
                   "spans": traced[-1]["spans"] if traced else []}, fh)
    print(f"report: {os.path.relpath(report, root)}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
