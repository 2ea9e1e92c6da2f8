"""tiplab study benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload {critical-rate,lambda-star,early-warning}
                             --seed N --seconds S --trace {0,1}

With --trace 0 it answers the workload's study problem repeatedly for about
S seconds, untraced, and reports the end-to-end metrics, with times rescaled
to a fixed CPU speed by the sampler in speed.py. With --trace 1 it
answers once untraced and twice under the outside-in tracer, and reports the
per-layer metrics. Both modes run the correctness gate. The last line of
stdout is the result object; the line before it stamps the environment and
the sample counts. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# single-threaded numerics for every process of the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracer
from speed import SpeedSampler
from workloads import WORKLOADS, Answer, Cell, canonical

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_PROBES = 5
# a median needs more than one sample, even when outside load slows the
# machine; more than two would stretch a run well past --seconds then
MIN_ANSWERS = 2

END_TO_END = (("answer_s", "s"), ("cell_p50_ms", "ms"), ("cell_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def read_loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(root: Path, workload: str) -> list[float]:
    """Seconds from spawning the probe to its ready line, once per probe:
    the interpreter's start as wall time, the probe's own work (imports and
    model construction) at reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        fields = line.split()
        if rc != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit code {rc})")
        own_wall, own_ref = float(fields[1]), float(fields[2])
        times.append(elapsed - own_wall + own_ref)
    return times


def run_answer(workload):
    """One answer; an exception fails every op of it."""
    t0 = time.perf_counter()
    try:
        return workload.answer()
    except Exception as exc:  # the benchmark must report, not stop
        traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        why = f"{type(exc).__name__}: {exc}"
        return Answer(t0, t1, [Cell(t0, t1, False, why)] * workload.OPS, None)


def cell_percentiles(answers, seconds) -> tuple[float, float]:
    """p50 and p90 of the op latencies (ms) of each answer, each taken as a
    median over the run's answers, so one answer slowed by outside load does
    not become the run's tail. ``seconds(t0, t1)`` times one op."""
    p50s, p90s = [], []
    for a in answers:
        ms = [seconds(c.t0, c.t1) * 1e3 for c in a.cells]
        p50s.append(statistics.median(ms))
        p90s.append(statistics.quantiles(ms, n=10, method="inclusive")[8]
                    if len(ms) > 1 else ms[0])
    return statistics.median(p50s), statistics.median(p90s)


def gate(workload, answers, seed: int, reference: dict) -> list[tuple[bool, str]]:
    """Checks on the answers as a whole; per-op checks live in the cells."""
    prints = {canonical(a.fingerprint) for a in answers}
    checks = [(len(prints) == 1, f"{len(prints)} distinct answers to one input")]
    if seed == DEFAULT_SEED:
        want = reference.get(workload.name)
        got = canonical(answers[0].fingerprint)
        checks.append((want is not None and canonical(want) == got,
                       "default seed reproduces the recorded reference answer"))
    checks.extend(workload.invocation_checks())
    return checks


def timed_mode(workload, seconds: float):
    """Answer repeatedly, under the speed sampler: at least MIN_ANSWERS
    times, then while a typical answer still fits in the measuring time."""
    answers = []
    with SpeedSampler() as speed:
        start = time.perf_counter()
        while True:
            answers.append(run_answer(workload))
            elapsed = time.perf_counter() - start
            if (len(answers) >= MIN_ANSWERS
                    and elapsed + statistics.median(a.seconds for a in answers) > seconds):
                break
    return answers, speed


def traced_mode(workload, out: Path, seed: int):
    untraced = run_answer(workload)
    tr = tracer.Tracer()
    tr.install()
    installed = tr.patched
    traced, counts = [], []
    try:
        for run in (1, 2):
            tr.run = run
            before = Counter(tr.counts)
            traced.append(run_answer(workload))
            counts.append(tr.counts - before)
    finally:
        restored = tr.restore()
    tr.write(out / f"spans-{workload.name}-seed{seed}.jsonl")
    layers = [tracer.layer_metrics(tr, run, counts[run - 1]) for run in (1, 2)]
    metrics = dict(layers[0])
    metrics.update(tracer.replay(tr.samples))
    metrics["trace.answer_s"] = traced[0].seconds
    metrics["trace.overhead_s"] = traced[0].seconds - untraced.seconds

    differ = [k for k in tracer.DETERMINISTIC if layers[0][k] != layers[1][k]]
    prints = {canonical(a.fingerprint) for a in [untraced, *traced]}
    checks = [
        (restored, f"all {installed} wrapped names restored"),
        (not differ, "traced counters repeat exactly"
         + (f" (differ: {', '.join(differ)})" if differ else "")),
        (len(prints) == 1, "traced and untraced answers bitwise identical"),
    ]
    return [untraced, *traced], metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiplab study benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("critical-rate", "lambda-star", "early-warning"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    speed_stamp = None

    root = Path.cwd()
    if not (root / "src" / "tiplab" / "__init__.py").is_file():
        print("perfbench: src/tiplab not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy

    load_before = read_loadavg()
    out = root / ".perfbench_out"
    workdir = out / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    try:
        setup = measure_setup(root, args.workload)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            answers, metrics, checks = traced_mode(workload, out, args.seed)
            units = dict(tracer.PER_LAYER)
        else:
            answers, speed = timed_mode(workload, args.seconds)
            checks = []
            p50, p90 = cell_percentiles(answers, speed.reference_seconds)
            answer_ref_s = [speed.reference_seconds(a.t0, a.t1) for a in answers]
            speed_stamp = {"probes": speed.probes, "slow_ratio": speed.slow_ratio(),
                           "answer_s": answer_ref_s}
            metrics = {
                "answer_s": statistics.median(answer_ref_s),
                "cell_p50_ms": p50,
                "cell_p90_ms": p90,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        checks += gate(workload, answers, args.seed, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = read_loadavg()

    cells = [c for a in answers for c in a.cells]
    failed = sum(1 for c in cells if not c.ok)
    nproc = len(os.sched_getaffinity(0))
    loaded = any(load is not None and load[0] > nproc for load in (load_before, load_after))
    if loaded:
        print(f"perfbench: load average above nproc={nproc} "
              f"(before {load_before}, after {load_after})", file=sys.stderr)
    for c in cells:
        if not c.ok:
            print(f"perfbench: failed op: {c.detail}", file=sys.stderr)
    for ok, detail in checks:
        if not ok:
            print(f"perfbench: failed check: {detail}", file=sys.stderr)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "answers": len(answers), "answer_wall_s": [a.seconds for a in answers],
        "speed": speed_stamp,
        "ops": len(cells), "fail_ratio": failed / len(cells),
        "setup_s": setup, "checks": [[ok, d] for ok, d in checks],
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": nproc, "cpu": cpu_model(), "commit": git_commit(root),
                "loadavg_before": load_before, "loadavg_after": load_after,
                "load_above_nproc": loaded},
    }
    result = {
        "correct": failed == 0 and all(ok for ok, _ in checks),
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "result": result, "answer": answers[0].fingerprint},
                   indent=1), encoding="utf-8")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
