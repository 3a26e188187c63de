"""qsc benchmark entry point.

Run from the root of a qsc checkout:

    python3 perfbench/run.py --workload sweep_det --seed 0 --seconds 30 --trace 0

The workloads, metrics and bounds are listed in ``BENCHMARK.json`` and
explained in ``perfbench/README.md``.  This process imports nothing from the
program.  It times set-up in ``SETUP_SAMPLES`` fresh worker processes and
reports their median, then lets one more worker run and check the workload
(see worker.py).  Every worker gets ``src`` on its path, single-threaded
BLAS and no ``QSC_SEED``.  The CPU pressure of the host is read before and
after.  Everything a run measured, and with ``--trace 1`` its spans, is kept
in ``perfbench/.work/record-<workload>-seed<seed>-trace<0|1>.json``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 175.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    spec_path = Path("BENCHMARK.json")
    if not Path("src/qsc/__init__.py").is_file() or not spec_path.is_file():
        print("error: run this from the root of a qsc checkout (src/qsc and BENCHMARK.json)",
              file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    pressure_before = _cpu_pressure()
    try:
        # The first set-up is not counted: it writes the bytecode cache, which
        # an installed program would already have.
        setups = [_worker(worker_args + ["--setup-only"], deadline, work / "setup.json")
                  for _ in range(SETUP_SAMPLES + 1)][1:]
        result = _worker(worker_args, deadline, work / "result.json")
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pressure_after = _cpu_pressure()

    end_to_end = dict(result["end_to_end"],
                      setup_s=statistics.median(s["setup_s"] for s in setups))
    values = result["per_layer"] if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples": setups, "end_to_end": end_to_end,
        "python": result["python"], "numpy": result["numpy"], "nproc": os.cpu_count(),
        "cpu_pressure_before": pressure_before, "cpu_pressure_after": pressure_after,
        **{k: v for k, v in result.items() if k not in ("python", "numpy", "end_to_end")},
    }
    record_path = HERE / ".work" / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed} -> program seed {result['program_seed']}, "
          f"{len(result['runs'])} runs, python {result['python']}, numpy {result['numpy']}, "
          f"nproc {os.cpu_count()}")
    print(f"cpu pressure before: {pressure_before}")
    print(f"cpu pressure after:  {pressure_after}")
    print("  ".join(f"{name} {value:.6g}" for name, value in end_to_end.items())
          + f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted} checks)"
          + f"  raw_wall_s {result['raw_wall_s']:.6g}")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"  {name} {value:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _worker(worker_args: list[str], deadline: float, output: Path) -> dict:
    """Run worker.py to completion before ``deadline`` and return what it wrote."""
    env = dict(os.environ)
    env.pop("QSC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    proc = subprocess.run([sys.executable, str(WORKER), *worker_args], env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise ValueError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(output.read_text(encoding="utf-8"))


def _cpu_pressure() -> str | None:
    """The host's CPU pressure-stall line, read-only; None where the kernel has none."""
    try:
        return Path("/proc/pressure/cpu").read_text(encoding="utf-8").splitlines()[0]
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
