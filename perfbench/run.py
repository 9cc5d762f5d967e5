"""Run one workload of the quadharm benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of problems until S seconds have
passed, timing each call into the package and checking each answer with
the independent checker.  It also sets the package up several times
(import plus the first problem), before the first problem and at even
times between problems.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 every
problem is solved untraced and then traced, and the metrics are the
per-layer figures of the traced solves (per problem) plus the tracing
overhead against the untraced solves of the same problems.
"""

import gc
import importlib
import os
import statistics
import sys
import time

import checker
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 9


def parse_args(argv: list[str]) -> dict:
    usage = ("usage: run.py --workload {" + ",".join(WORKLOADS) + "} "
             "--seed N --seconds S --trace {0,1}")
    if len(argv) % 2:
        raise SystemExit(usage)
    args = dict(zip(argv[::2], argv[1::2]))
    try:
        out = {
            "workload": args.pop("--workload"),
            "seed": int(args.pop("--seed")),
            "seconds": float(args.pop("--seconds")),
            "trace": int(args.pop("--trace", "0")),
        }
    except (KeyError, ValueError):
        raise SystemExit(usage) from None
    if args or out["workload"] not in WORKLOADS or out["trace"] not in (0, 1):
        raise SystemExit(usage)
    return out


class Setup:
    """Timed set-ups of the package: its import plus building the first
    problem, SETUP_REPEATS times over one run.

    Repeat 0 runs before the first problem.  The others run between
    problems, one each time another SETUP_REPEATS-th of the run has passed,
    so that the median reflects the machine over the whole run and not over
    one fraction of a second.  Before each repeat after the first, every
    pure-Python module the first import added is dropped from sys.modules,
    so each repeat pays for the package and for the standard-library
    modules only it needs, and the problems after it use the fresh package.
    Extension modules cannot be loaded twice and stay.

    During a repeat the bytecode cache is a directory of this run's own
    (sys.pycache_prefix) with writing on, so repeat 0 compiles every module
    it loads and the later repeats read what it wrote, whatever
    ``__pycache__`` directories exist and whatever PYTHONDONTWRITEBYTECODE
    says.  The median is thus an import from a warm bytecode cache.
    """

    def __init__(self, workload, problem, seconds):
        self.workload, self.problem = workload, problem
        self.before = set(sys.modules)
        self.added: list[str] = []
        self.samples: list[float] = []
        self.cache = os.path.join(HERE, f".setup-pycache-{os.getpid()}-{time.time_ns()}")
        os.mkdir(self.cache)
        try:
            self.package = self.repeat()
        except BaseException:
            self.remove_cache()
            raise
        start = time.perf_counter()
        self.due = [start + seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]

    def repeat(self):
        for name in self.added:
            if (getattr(sys.modules.get(name), "__file__", None) or "").endswith(".py"):
                del sys.modules[name]
        gc.collect()
        saved = sys.pycache_prefix, sys.dont_write_bytecode
        sys.pycache_prefix, sys.dont_write_bytecode = self.cache, False
        try:
            t0 = time.perf_counter()
            importlib.import_module(self.workload.entry)
            self.workload.prepare(self.problem, sys.modules["quadharm"])
            self.samples.append(time.perf_counter() - t0)
        finally:
            sys.pycache_prefix, sys.dont_write_bytecode = saved
        if len(self.samples) == 1:
            self.added = sorted(set(sys.modules) - self.before)
        package = sys.modules["quadharm"]
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"quadharm was imported from {package.__file__}, not from {SRC}")
        return package

    def current(self):
        """The package for the next problem, after a repeat if one is due."""
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.package = self.repeat()
        return self.package

    def finish(self) -> list[float]:
        """Run the repeats not yet due, remove the cache; the samples."""
        try:
            while self.due:
                self.due.pop(0)
                self.repeat()
        finally:
            self.remove_cache()
        return self.samples

    def remove_cache(self) -> None:
        import shutil  # not before the timed imports: shutil is not the package's

        shutil.rmtree(self.cache, ignore_errors=True)


class Tally:
    """What the rounds of one run add up to."""

    def __init__(self):
        self.attempted = self.failed = self.traced = 0
        self.latencies: list[float] = []  # seconds, untraced problems only
        self.solve_time = {False: 0.0, True: 0.0}  # by traced
        self.layers = dict.fromkeys(tracer.METRICS, 0.0)
        self.wrong: list[str] = []
        self.digits = checker.DIGITS_CAP
        self.passed: list[tuple] = []  # (problem, h, f) from round 0


def timed_call(workload, package, problem, spans):
    """(result or the exception it raised, seconds); traced when ``spans``."""
    call = workload.prepare(problem, package)
    if spans is not None:
        spans.install()
    try:
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crash counts as a failed problem
            result = exc
        return result, time.perf_counter() - t0
    finally:
        if spans is not None:
            spans.uninstall()


def run_round(workload, setup, problems, tally, spans, first):
    """Solve, time and check one round.

    In a traced run (``spans`` set) each problem is solved twice in a row,
    untraced and then traced, so that the overhead compares the same input
    at nearly the same moment.
    """
    for problem in problems:
        package = setup.current()
        runs = [(timed_call(workload, package, problem, None), False)]
        if spans is not None:
            runs.append((timed_call(workload, package, problem, spans), True))
        for (result, elapsed), traced in runs:
            tally.attempted += 1
            tally.solve_time[traced] += elapsed
            if traced:
                tally.traced += 1
                for name, value in tracer.layer_metrics(spans.take()).items():
                    tally.layers[name] += value
            else:
                tally.latencies.append(elapsed)
            if isinstance(result, Exception):
                tally.failed += 1
                print(f"failed: {problem.label}: {type(result).__name__}: {result}",
                      file=sys.stderr)
                continue
            h, f, reported_failure = workload.read(problem, result)
            tally.failed += reported_failure or h is None
            if h is None:
                continue
            reason, digits = checker.check(problem, h, f)
            if reason:
                tally.wrong.append(f"{problem.label}: {reason}")
                continue
            tally.digits = min(tally.digits, digits)
            if first and not traced:
                tally.passed.append((problem, h, f))


def self_test(tally) -> None:
    """Check that the checker rejects wrong answers built from round 0."""
    if not tally.passed:
        tally.wrong.append("self-test: no answer in round 0 passed")
        return
    n = len(tally.passed[0][0].surface.a)
    pair = [t for t in tally.passed if len(t[0].surface.a) == n][:2]
    if len(pair) < 2:
        tally.wrong.append("self-test: fewer than two answers in round 0 passed")
        return
    tally.wrong += [f"self-test: checker accepted {name}" for name in checker.self_test(*pair)]


def end_to_end(tally, setup_samples) -> dict:
    import resource

    lat = tally.latencies
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "problems_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_ms_p50": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
        "latency_ms_p90": {"value": 1000.0 * statistics.quantiles(lat, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "float_digits": {"value": tally.digits, "unit": "digits"},
    }


def per_layer(tally, spans) -> dict:
    for name in spans.missing:
        print(f"trace: {name} not found; metrics fed only by it are absent", file=sys.stderr)
    gone = tracer.absent(spans.missing)
    metrics = {name: {"value": tally.layers[name] / tally.traced, "unit": unit}
               for name, (unit, _) in tracer.METRICS.items() if name not in gone}
    overhead = tally.solve_time[True] / tally.solve_time[False] - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadharm", "__init__.py")):
        print(f"error: no package source at {SRC}/quadharm", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args["workload"]]
    seed, trace = args["seed"], bool(args["trace"])

    first_round = workload.rounds(seed, 0)
    setup = Setup(workload, first_round[0], args["seconds"])
    try:
        tally, spans = Tally(), tracer.Tracer()
        deadline = time.perf_counter() + args["seconds"]
        index = 0
        # Whole rounds only.
        while index == 0 or time.perf_counter() < deadline:
            problems = first_round if index == 0 else workload.rounds(seed, index)
            run_round(workload, setup, problems, tally, spans if trace else None, index == 0)
            index += 1
    finally:
        setup_samples = setup.finish()

    import json

    self_test(tally)
    for line in tally.wrong:
        print(f"wrong: {line}", file=sys.stderr)

    metrics = per_layer(tally, spans) if trace else end_to_end(tally, setup_samples)
    print(f"{args['workload']}: {index} rounds, {tally.attempted} problems, "
          f"{tally.failed} failed, {len(tally.wrong)} wrong")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
