"""Benchmark of the staytime package.

    python3 benchmarks/run.py --workload fit-ctrn --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports the package from the
checkout's src/ directory and exits with an error when that is missing.
Workloads are fit-ctrn, score-20k and bench-slate (see workloads.py and
README.md).  A run warms up with one small untimed round, sets up its inputs
from the seed (at least three times), repeats whole rounds of the workload
until --seconds have passed, and then runs the correctness checks.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics, taken from one traced set-up and traced rounds that
alternate with untraced ones.  --smoke runs the small sizes with every
check.  Each run leaves a record of its environment, timings and checks
under .bench_out/ in the checkout, and traced runs their spans as well.
"""

import os

# One BLAS thread for every workload, fixed before numpy is first imported.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed
MIN_SETUPS = 3
SETUP_SECONDS = 2.0


def log(message: str) -> None:
    sys.stderr.write(f"[bench] {message}\n")
    sys.stderr.flush()


def import_package():
    """Import staytime from this checkout's src/, never from elsewhere."""
    if not (SRC / "staytime" / "__init__.py").is_file():
        sys.exit(f"run.py: no staytime sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import staytime

    if SRC.resolve() not in Path(staytime.__file__).resolve().parents:
        sys.exit(f"run.py: imported staytime from {staytime.__file__}, not from {SRC}")
    return staytime


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy ships, if any."""
    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed, and the checks' verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_check(self, name, fn):
        self.attempted += 1
        try:
            problem = fn()
        except Exception:
            self.failed += 1
            log(f"check {name!r} raised:\n{traceback.format_exc()}")
            return {"check": name, "ok": False, "raised": True}
        if problem:
            self.problems.append(f"{name}: {problem}")
            log(f"check {name!r} failed: {problem}")
        return {"check": name, "ok": not problem}


def measure(wl, seed: int, seconds: float, traced: bool, smoke: bool, work: Path) -> dict:
    size = wl.sizes["smoke" if smoke else "full"]
    min_setups = 1 if (smoke or traced) else MIN_SETUPS
    tally = Tally()

    # one small untimed round first, so first-call costs stay out of the timings
    wl.run_round(wl.setup(work / "warm-up", seed, wl.sizes["warm-up"]))

    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        setup_s = []
        state = None
        while len(setup_s) < min_setups or (not traced and sum(setup_s) < SETUP_SECONDS):
            state = None  # let the previous inputs go before building new ones
            if tracer:
                tracer.phase = "setup"
            t0 = time.perf_counter()
            state = wl.setup(work / "run", seed, size)
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.phase = None
            log(f"{wl.name} set-up {len(setup_s)}: {setup_s[-1]:.3f} s")

        plain, with_trace = [], []
        last = None
        ops = wl.ops_per_round(size)
        start = time.perf_counter()
        attempts = {False: 0, True: 0}
        while True:
            trace_this = traced and attempts[False] > attempts[True]
            attempts[trace_this] += 1
            tally.attempted += ops
            if last is not None:
                last.out.clear()  # one round's outputs alive at a time keeps peak RSS fixed
            if trace_this:
                tracer.phase = "round"
            try:
                result = wl.run_round(state)
            except Exception:
                tally.failed += ops
                log(f"{wl.name} round raised:\n{traceback.format_exc()}")
                result = None
            finally:
                if tracer:
                    tracer.phase = None
            if result is not None:
                last = result
                (with_trace if trace_this else plain).append(result)
                if trace_this:
                    tracer.rounds += 1
                log(f"{wl.name} round{' (traced)' if trace_this else ''}: {result.wall_s:.3f} s")
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and attempts[False] and (not traced or attempts[True]):
                break
    finally:
        if tracer:
            tracer.uninstall()

    if not plain or (traced and not with_trace):
        sys.exit(f"run.py: every round of {wl.name} failed")

    verdicts = [tally.run_check(name, fn) for name, fn in wl.correctness_checks(state, last)]
    if traced:
        verdicts.append(tally.run_check(
            "child spans within train_model",
            lambda: None if tracer.children_within_parents("training.train_model")
            else "child spans of train_model exceed its span"))

    median = statistics.median
    if traced:
        overhead = median(r.wall_s for r in with_trace) - median(r.wall_s for r in plain)
        metrics = tracer.metrics(overhead)
    else:
        metrics = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "wall_s": {"value": median(r.wall_s for r in plain), "unit": "s"},
            "records_per_s": {"value": median(r.records_per_s for r in plain), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "c_index": {"value": median(r.c_index for r in plain), "unit": "ratio"},
        }
    return {
        "result": {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
        "record": {
            "setup_s": setup_s,
            "round_wall_s": [r.wall_s for r in plain],
            "traced_round_wall_s": [r.wall_s for r in with_trace],
            "checks": verdicts,
            "problems": tally.problems,
        },
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the small sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment()
    log(f"environment {json.dumps(env, sort_keys=True)}")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"args": vars(args), "environment": env, **run["record"], **run["result"]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if run["tracer"] is not None:
        run["tracer"].write(OUT / f"{tag}-spans.jsonl")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
