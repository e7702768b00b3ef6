"""ordembed benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Set-up is the program's import (timed here and in three fresh
interpreters) plus building the workload's inputs from the seed (three
times); setup_s adds the two medians. Then whole passes over the
workload's ops repeat until the next pass would end after --seconds (at
least two passes, so that falsifier reports can be compared byte for
byte). Every op's output is checked; a wrong exit code, an uncaught
exception or a failed check counts the op as failed.

--trace 0 times the ops untraced and prints the end-to-end metrics: set-up
time, and pass_refs, the median pass time divided by the speed of a fixed
reference kernel sampled between ops (see Reference). Raw seconds per pass
and per kind of op are printed too; on a shared machine whose speed
drifts they do not repeat within a useful bound.
--trace 1 runs passes untraced for half the time, then as many passes again
with every layer wrapped in spans, and prints the per-layer metrics; the
difference between the two halves is the tracing overhead. Spans are
written to bench/.work/trace-<workload>.tsv.

Lines before the last are a readable report (each metric with its unit,
per-kind latencies, machine facts); the last line is one JSON object with
correct, attempted, failed and metrics.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3       # fresh interpreters timing the program's import
REFERENCE_EVERY = 0.25   # seconds of op time between reference samples
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 30    # below this the tail would sit under p67


def _blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the cores this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = nproc
    if asked.isdigit() and int(asked) > 0:
        threads = min(int(asked), nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


NPROC, BLAS_THREADS = _blas_threads()


def _import_program():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import ordembed
    except ImportError as exc:
        sys.exit(f"bench: cannot import ordembed from {ROOT / 'src'}: {exc}")
    where = Path(ordembed.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"bench: ordembed imported from {where}, not from ./src")
    import ordembed.cli  # noqa: F401  (every module the trace wraps)


def import_times() -> list[float]:
    """Seconds to import the program in fresh interpreters with this
    process's environment, as this process paid once before set-up."""
    code = ("import sys, time; sys.dont_write_bytecode = True; "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "t = time.perf_counter(); import ordembed.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code],
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


def machine_facts(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


# ---------------------------------------------------------------------------
# measurement

class Reference:
    """Machine speed, sampled between ops: the median time of five runs
    of a fixed kernel in the program's mix (tuple-keyed dicts, JSON text, a
    small symmetric eigen-solve). On a shared 2-core Xeon VM, speed was
    seen to drift by up to half over seconds and minutes, with pure-Python
    and numpy work drifting together (correlation 0.94 over 2 s windows),
    so op time divided by the reference time around it repeats far better
    across runs than op time alone. The kernel is the benchmark's own
    code, so no change to the program can move it."""

    def __init__(self):
        import numpy as np
        m = np.cos(np.arange(3600.0)).reshape(60, 60)
        self.matrix = m + m.T
        self.eigvalsh = np.linalg.eigvalsh

    def _kernel(self) -> int:
        ranks = {(i, i + 1): i for i in range(1000)}
        total = sum(ranks[(i, i + 1)] for i in range(1000))
        text = json.dumps([list(p) for p in ranks])
        self.eigvalsh(self.matrix)
        return total + len(text)

    def sample(self) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def run_passes(ops, seconds: float, min_passes: int, tracer=None):
    """Replay whole passes over ops, at least `min_passes` of them, until
    the next pass would end after `seconds`.

    The reference is sampled at the start and end of each pass and between
    ops once REFERENCE_EVERY seconds of op time have gone by; the op time
    between two samples is divided by their mean, and a pass's sum of
    these quotients is its time in reference units (refs)."""
    reference = Reference()
    samples, pass_times, pass_refs, failures = [], [], [], []
    t0 = time.perf_counter()
    while True:
        busy = refs = pending = 0.0
        ref = reference.sample()
        for op in ops:
            if pending >= REFERENCE_EVERY:
                new = reference.sample()
                refs += pending / ((ref + new) / 2)
                ref, pending = new, 0.0
            if tracer is not None:
                tracer.begin_op(op.kind)
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an uncaught error fails the op
                dt = time.perf_counter() - start
                problem = f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - start
                try:
                    problem = op.check(result)
                except Exception as exc:  # output the check cannot read
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"{op.kind}: {problem}")
            samples.append((op.kind, op.pairs, dt))
            busy += dt
            pending += dt
        refs += pending / ((ref + reference.sample()) / 2)
        pass_times.append(busy)
        pass_refs.append(refs)
        if len(pass_times) >= min_passes and (
                time.perf_counter() - t0 + statistics.fmean(pass_times)
                > seconds):
            break
    return samples, pass_times, pass_refs, failures


def tail(values: list[float]):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank), or None below MIN_TAIL_SAMPLES samples."""
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        return None
    pct = 100 * (n - TAIL_BEYOND) // n
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def end_to_end(setup_s: float, samples, pass_times,
               pass_refs) -> tuple[dict, list]:
    """Metrics gated by BENCHMARK.json, and the report's per-kind lines."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_refs": (statistics.median(pass_refs), "refs"),
    }
    lines = [("pass_s", statistics.median(pass_times), "s",
              f"(median of {len(pass_times)} passes)")]
    by_kind: dict[str, list[float]] = {}
    for kind, _, dt in samples:
        by_kind.setdefault(kind, []).append(dt)
    for kind, values in by_kind.items():
        if kind == "falsify":
            continue
        lines.append((f"{kind}_p50_s", statistics.median(values), "s",
                      f"(n={len(values)})"))
        t = tail(values)
        if t is not None and kind in ("realize", "verify"):
            lines.append((f"{kind}_tail_s", t[1], "s",
                          f"(p{t[0]} of n={len(values)})"))
    if "falsify" in by_kind:
        lines.append(("falsify_s", statistics.median(pass_times), "s",
                      "(leg set)"))
    carried = [(p, dt) for kind, p, dt in samples
               if kind in ("realize", "verify", "induce")]
    if carried:
        lines.append(("pairs_per_s", sum(p for p, _ in carried)
                      / sum(dt for _, dt in carried), "1/s",
                      "(realize+verify+induce)"))
    return metrics, lines


def traced_run(wl, seconds: float, workload: str):
    """Untraced passes for half the time, then as many traced passes over
    the same ops; returns the untraced samples and the per-layer metrics."""
    from spans import Tracer
    samples, pass_times, pass_refs, failures = run_passes(
        wl.ops, seconds / 2, 1)
    tracer = Tracer()
    with tracer:
        t_samples, t_pass_times, t_pass_refs, t_failures = run_passes(
            wl.ops, 0, len(pass_times), tracer=tracer)
    tracer.write(WORK / f"trace-{workload}.tsv")
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = (
        (sum(t_pass_times) - sum(pass_times)) / len(pass_times), "s")
    # the ratio compares reference-scaled times, which machine speed
    # drift moves far less than the raw seconds
    layers["trace.overhead_ratio"] = (
        sum(t_pass_refs) / sum(pass_refs) - 1.0, "ratio")
    losses = wl.facts.get("refute_loss", {})
    layers["counterexamples.refute_loss_min"] = (
        min(losses.values()) if losses else 0.0, "loss")
    with open(BENCH / "baseline.json", encoding="utf-8") as fh:
        called_only_in = json.load(fh)["called_only_in"]
    for prefix, home in called_only_in.items():
        called = any(v for k, (v, _) in layers.items()
                     if k.startswith(prefix) and k.endswith(".calls"))
        word = "holds" if called == (workload == home) else "broken"
        print(f"prediction {word}: {prefix}* called only in {home}")
    return (samples, pass_times, pass_refs, failures + t_failures,
            len(samples) + len(t_samples), layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    t_imported = time.perf_counter()

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        try:
            wl = build(np.random.default_rng(args.seed), work)
        except workloads.SetupError as exc:
            sys.exit(f"bench: set-up failed: {exc}")
        setups.append(time.perf_counter() - t)
    imports = [t_imported - T_START] + import_times()
    setup_s = statistics.median(imports) + statistics.median(setups)

    if args.trace:
        (samples, pass_times, pass_refs, failures, attempted,
         result) = traced_run(wl, args.seconds, args.workload)
    else:
        samples, pass_times, pass_refs, failures = run_passes(
            wl.ops, args.seconds, 2)
        attempted = len(samples)
    metrics, lines = end_to_end(setup_s, samples, pass_times, pass_refs)
    if not args.trace:
        result = metrics
    lines = [(k, v, u, "") for k, (v, u) in metrics.items()] + lines

    for name, value, unit, note in lines:
        print(f"{name} {value!r} {unit} {note}".rstrip())
    print(f"fail_ratio {len(failures) / attempted!r} ratio "
          f"({len(failures)} failed of {attempted} ops attempted)")
    facts = {"workload": args.workload, "pass_times_s": pass_times,
             "pass_refs": pass_refs,
             "ops_per_pass": len(wl.ops), "import_runs_s": imports,
             "setup_runs_s": setups,
             "machine": machine_facts(args.seed), **wl.facts}
    print("facts " + json.dumps(facts))
    for problem in failures[:10]:
        print(f"bench: failed op: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
