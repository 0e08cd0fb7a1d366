"""Benchmark of the hilbertnorm package, run from the repository root:

    python3 perfbench/run.py --workload release --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and the module of each):
  release       hilbertnorm verify, then every curve and table   (release.py)
  hardy-series  hardy_norm of seeded random polynomials           (hardy.py)
  quad-direct   small independent public-API integrations         (quad.py)

Each workload has a primary and a secondary part, timed in rounds, in paced
seconds: wall seconds corrected for the host's CPU speed (see pace.py; the
wall medians are printed too).  With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` the package is
instrumented at its module boundaries (see layers.py), a fixed number of
rounds runs, and the per-layer metrics are reported instead.  Every output is checked against an independent reference
or the golden record; ``attempted``/``failed`` count those checks.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7

CHECK_NAMES = (
    "bloch-A-constant", "bloch-B-constant", "bloch-to-blochlog-norm",
    "alpha-lower-bound-1.5", "alpha-upper-bound-1.5", "alpha-bounds-order",
    "alpha-unbounded-0.5", "alpha-unbounded-2", "alpha-unbounded-2.5",
    "h1-upper-internals", "h1-lower-bound-0.5", "h1-lower-bound-0.99",
    "hinf-norm", "series-integral-agreement", "modulus-mean-bands",
    "gamma-identities",
)


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= NPROC:
            os.environ[var] = str(NPROC)


def environment():
    import numpy

    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def setup_seconds():
    """Medians of the wall and paced time of ``import hilbertnorm`` in
    fresh interpreters; each import is paced by the kernel timed in the
    same interpreter right after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    code = ("import time; t = time.perf_counter(); import hilbertnorm; "
            "t = time.perf_counter() - t; import pace; "
            "print(t, t * pace.REFERENCE_S / pace.kernel_seconds())")
    wall, paced = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        w, p = (float(v) for v in out.stdout.split())
        wall.append(w)
        paced.append(p)
    return statistics.median(wall), statistics.median(paced)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(times, setup):
    primary, secondary = times
    return {
        "setup_s": metric(setup[1], "s"),
        "primary_s": metric(statistics.median(primary["paced"]), "s"),
        "secondary_s": metric(statistics.median(secondary["paced"]), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, times):
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    out = {}
    checks = tracer.root_checks()
    for name in CHECK_NAMES:
        wall, own = checks.get(name, (0.0, 0.0))
        out[f"verification.check.{name}.s"] = metric(own, "s")
        out[f"verification.check.{name}.wall_s"] = metric(wall, "s")
    for fn in ("compute_A", "compute_B"):
        out[f"verification.{fn}.calls"] = metric(
            calls[f"verification.{fn}"], "count")
    for layer in ("quadrature", "quadrature.batched"):
        out[f"{layer}.calls"] = metric(calls[layer], "count")
        out[f"{layer}.evals"] = metric(counts[f"{layer}.evals"], "count")
        out[f"{layer}.s"] = metric(self_s[layer], "s")
    out["quadrature.circle_mean.calls"] = metric(
        calls["quadrature.circle_mean"], "count")
    out["quadrature.circle_mean.points"] = metric(
        counts["quadrature.circle_mean.callback_points"], "count")
    out["quadrature.circle_mean.s"] = metric(
        self_s["quadrature.circle_mean"], "s")
    out["supsearch.calls"] = metric(calls["supsearch"], "count")
    out["supsearch.objective_calls"] = metric(
        counts["supsearch.callbacks"], "count")
    out["supsearch.s"] = metric(self_s["supsearch"], "s")
    for layer in ("norms", "hilbertop", "specfun"):
        out[f"{layer}.calls"] = metric(calls[layer], "count")
        out[f"{layer}.s"] = metric(self_s[layer], "s")
    out["catalog.eval_series.calls"] = metric(
        calls["catalog.eval_series"], "count")
    out["catalog.eval_series.points"] = metric(
        counts["catalog.eval_series.points"], "count")
    out["catalog.s"] = metric(self_s["catalog"], "s")
    out["cli.s"] = metric(self_s["cli"], "s")
    out["traced.primary_s"] = metric(
        statistics.median(times[0]["paced"]), "s")
    out["traced.secondary_s"] = metric(
        statistics.median(times[1]["paced"]), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("release", "hardy-series", "quad-direct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hilbertnorm" / "__init__.py").is_file():
        print(f"error: no hilbertnorm sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))

    import hilbertnorm
    import hilbertnorm.cli  # noqa: F401  (bound as hilbertnorm.cli)
    from common import Tally, measure
    from pace import Pacer

    import hardy
    import quad
    import release

    build = {"release": release.build, "hardy-series": hardy.build,
             "quad-direct": quad.build}
    tally = Tally()
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install(hilbertnorm)

        def entry(fn):
            return tracer.wrap(fn, "bench")
    else:
        def entry(fn):
            return fn

    print(f"env {json.dumps(environment())}")
    setup = None if args.trace else setup_seconds()
    work = build[args.workload](args.seed, entry, tally)
    with Pacer() as pacer:
        times = measure(work, args.seconds, tally, pacer,
                        work.trace_rounds if args.trace else None)
    wall = (f"wall primary_s={statistics.median(times[0]['wall'])!r} "
            f"secondary_s={statistics.median(times[1]['wall'])!r}")
    if args.trace:
        metrics = per_layer(tracer, times)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.npz")
        print(wall)
    else:
        metrics = end_to_end(times, setup)
        print(f"{wall} setup_s={setup[0]!r}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"rounds primary={len(times[0]['wall'])} "
          f"secondary={len(times[1]['wall'])}")
    print(f"fail_ratio = {tally.failed}/{tally.attempted}")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
