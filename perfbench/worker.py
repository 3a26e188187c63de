"""Child process of the qsc benchmark: set up, run one workload repeatedly, check it.

``run.py`` starts this file in a fresh interpreter with ``src`` on the path
and single-threaded BLAS.  Set-up is everything from the first line of this
file to the first timed call: ``import qsc``, reading the references and
writing the workload's inputs.  With ``--setup-only`` the process stops
there.

Otherwise it runs the workload through ``qsc.cli.main`` in this process,
serially, until a further run would pass ``--seconds`` (but at least
``MIN_RUNS`` times), and checks every run's artifacts.  One run's wall time
starts at its first CLI call and ends when its last call has returned, which
is after the last artifact was closed.  With ``--trace 1`` every second run
is traced (see tracer.py); the others give the untraced time that the
tracing overhead is measured against.  The outcome goes to
``<work>/result.json``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_RUNS = 3
# Measuring never goes on past this, whatever --seconds says, so that the
# benchmark ends within its 180 s limit.
MAX_MEASURE_S = 140.0
PROBE_INTERVAL_S = 0.02
# A nominal probe time: scaled times are in seconds of a CPU on which one
# probe takes this long.  On a shared 2.1 GHz Xeon host a probe takes 60 to
# 160 us, depending on what the other tenants run.
REFERENCE_PROBE_S = 100e-6


class SpeedProbe:
    """Measures how fast the CPU that runs the workload is, while it runs.

    On a host whose cores are shared with other tenants, the same work takes
    up to 1.6 times longer in some stretches of tens of seconds than in
    others, in CPU time as well as in wall time, so raw times of separate
    runs do not compare.  The probe is fixed work like the collision loop:
    small numpy products in a Python loop.  Inside ``with probe:`` a SIGALRM
    handler runs it every ``PROBE_INTERVAL_S`` on the thread that runs the
    workload; ``burst`` runs it back to back instead.  ``scaled`` takes the
    probes' own time out of a measured time and rescales the rest by
    REFERENCE_PROBE_S over the mean time of the fastest nine tenths of the
    probes.
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._m = numpy.eye(4, dtype=complex) * 0.999
        self.samples: list[float] = []

    def _run(self, signum=None, frame=None) -> None:
        v = self._numpy.ones(4, dtype=complex)
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(40):
            v = self._m @ v
            acc += abs(v[0].real - v[3].real)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def burst(self, seconds: float) -> None:
        """Probe back to back for ``seconds``, right after the time to be scaled."""
        self.samples = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._run()

    def scaled(self, measured: float, probes_inside: bool = True) -> float:
        if not self.samples:
            return measured
        # The slowest tenth of the probes are dropped: those were hit by a
        # context switch, or by a garbage collection of the workload's
        # objects, and make the mean jump from run to run.
        kept = sorted(self.samples)[:max(1, len(self.samples) * 9 // 10)]
        if probes_inside:
            measured -= sum(self.samples)
        return measured * REFERENCE_PROBE_S * len(kept) / sum(kept)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import qsc.cli
    import workloads

    references = workloads.load_references()
    program_seed = workloads.program_seed(references, args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    calls = workloads.prepare(args.workload, program_seed, args.work)
    setup_s = time.perf_counter() - _START
    probe = SpeedProbe()
    if args.setup_only:
        probe.burst(setup_s)
        _write(args.work / "setup.json", {"setup_s": probe.scaled(setup_s, probes_inside=False),
                                          "raw_setup_s": setup_s})
        return 0

    expected = references["artifacts"][args.workload][str(program_seed)]
    tol = references["tolerance"]
    out_root = args.work / "out"
    cli_main = qsc.cli.main
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", cli_main)

    runs, attempted, problems = [], 0, []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(runs) % 2 == 1
        shutil.rmtree(out_root, ignore_errors=True)
        if traced:
            tracer.install(len(runs))
        run_cli = traced_main if traced else cli_main
        try:
            with probe:
                t0 = time.perf_counter()
                codes = [run_cli(call.argv(out_root)) for call in calls]
                wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        runs.append({"traced": traced, "wall_s": probe.scaled(wall), "raw_wall_s": wall,
                     "probes": len(probe.samples), "exit_codes": codes})
        for call, code in zip(calls, codes):
            n, found = workloads.check_call(call, code, out_root, expected, tol)
            attempted += n
            problems.extend(found)
        elapsed = time.perf_counter() - start
        next_run = statistics.median(r["raw_wall_s"] for r in runs)
        enough = len(runs) >= (2 if tracer else 1)
        if enough and elapsed + next_run > MAX_MEASURE_S:
            break
        if len(runs) >= MIN_RUNS and elapsed + next_run > args.seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    points = workloads.POINTS[args.workload]
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    raw = [r["raw_wall_s"] for r in runs if not r["traced"]]
    result = {
        "program_seed": program_seed,
        "raw_setup_s": setup_s,
        "runs": runs,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "raw_wall_s": statistics.median(raw),
        "end_to_end": {
            "wall_s": statistics.median(plain),
            "points_per_s": statistics.median(points / w for w in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["per_layer"] = _per_layer(tracer, runs)
        result["spans"] = tracer.spans
    _write(args.work / "result.json", result)
    return 0


def _per_layer(tracer, runs) -> dict:
    """Median of each layer metric over the traced runs, plus the tracing overhead."""
    from tracer import layer_metrics, totals

    by_run = totals(tracer.spans)
    traced = []
    for i, r in enumerate(runs):
        if r["traced"]:
            # Times are scaled by the run's own host-speed factor, as wall_s is.
            factor = r["wall_s"] / r["raw_wall_s"]
            metrics = layer_metrics(by_run[i], r["raw_wall_s"])
            traced.append({name: value * factor if name.endswith(("_s", "_per_collision")) else value
                           for name, value in metrics.items()})
    layers = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    # Scaled wall times, so that a change of host speed between the traced
    # and the untraced runs does not read as overhead.
    scaled = {flag: statistics.median(r["wall_s"] for r in runs if r["traced"] is flag)
              for flag in (True, False)}
    layers["trace.overhead_frac"] = scaled[True] / scaled[False] - 1.0
    return layers


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
