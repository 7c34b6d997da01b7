"""facetail benchmark: one command that times every workload and checks every output.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Run it from the root of a facetail checkout; it imports the library from
``src/`` of that checkout and nothing else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(spans kept in memory, written to ``.bench_out/`` at the end).  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every operation
kind's median time.  ``--smoke`` shrinks every size so all workloads run in
seconds; the benchmark's own tests use it.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools pinned to one thread before numpy is first imported,
# here and in every CLI child (they inherit this environment)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

SETUP_REPEATS = 3


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="facetail benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def _import_facetail():
    """Import facetail from this checkout's src/, never from elsewhere."""
    if not (SRC / "facetail" / "__init__.py").is_file():
        raise SystemExit(f"error: no facetail sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import facetail

    if Path(facetail.__file__).resolve().parent != (SRC / "facetail").resolve():
        raise SystemExit(f"error: imported facetail from {facetail.__file__}, not {SRC}")
    return facetail


def main(argv=None) -> int:
    args = _parse(argv)
    ft = _import_facetail()
    from spans import Tracer
    from workloads import WORKLOADS, Session

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(ft, Tracer(enabled=False), work, SRC, args.seed, args.smoke)
    try:
        workload = WORKLOADS[args.workload](session)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        if args.trace:
            metrics = _traced_run(session, workload, args.seconds)
        else:
            metrics = _timed_run(session, workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in session.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        session.tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.json",
                            {"workload": args.workload, "seed": args.seed,
                             "machine": machine_info(), "metrics": metrics})
    print(f"machine {json.dumps(machine_info())}")
    for kind, times in sorted(session.times.items()):
        print(f"op {kind}: median {statistics.median(times):.6g} s over {len(times)} calls")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _closed_loop(seconds: float, run_pass, minimum_passes: int = 1) -> None:
    """Run passes back to back.  Another pass starts while the run would end
    within half a median pass of the budget, so runs average the budget."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        run_pass(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum_passes and \
                elapsed + statistics.median(durations) / 2 > seconds:
            return


def _timed_run(session, workload, seconds: float, setup_s: float) -> dict:
    _closed_loop(seconds, lambda _index: workload.run_pass())
    # each operation kind runs once per pass; its median over the run's
    # passes rejects a call slowed by a burst of outside load
    medians = [statistics.median(times) for kind, times in session.times.items()
               if not kind.startswith("setup.")]
    metrics = {
        "pass_s": (sum(medians), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "ok_frac": ((session.attempted - session.failed) / session.attempted, "frac"),
    }
    for name, value, unit in workload.details():
        print(f"detail {name}: {value:.6g} {unit}")
    return metrics


def _traced_run(session, workload, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer numbers come from the
    traced ones and their layer sweeps, the overhead from the comparison."""
    plain: list[float] = []
    traced: list[float] = []
    tracer = session.tracer

    def one_pass(index):
        session.pass_ops = []
        tracer.enabled = index % 2 == 1
        if tracer.enabled:
            with tracer.span("pass", index=index):
                with tracer.span("workload"):
                    workload.run_pass()
                traced.append(sum(session.pass_ops))
                with tracer.span("sweep"):
                    workload.sweep()
        else:
            workload.run_pass()
            plain.append(sum(session.pass_ops))
        tracer.enabled = False

    _closed_loop(seconds, one_pass, minimum_passes=2)
    metrics = workload.layer_metrics()
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                      "frac")
    return metrics


def machine_info() -> dict:
    import platform
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


if __name__ == "__main__":
    sys.exit(main())
