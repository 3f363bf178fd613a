"""storyfactors benchmark: cold CLI runs end to end, and a traced in-process pass.

    python3 storybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 storybench/run.py --workload all --seed N --seconds S

``--trace 0`` times fresh ``storyfactors run`` processes, one at a time
(a closed loop with one client), for ``S`` seconds after one discarded
warm-up run.  ``--trace 1`` runs the pipeline in this process with every
layer's public functions wrapped in timing spans, then once more under
tracemalloc for the per-layer memory peaks.  Every run's artifacts are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import spans
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "storyfactors" / "data"
WORK = ROOT / ".storybench"
CHILD = Path(__file__).resolve().parent / "child.py"

CHILD_TIMEOUT_S = 60
MIN_RUNS = 3

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<group>.s" is the group's self time, "<group>.peak_mb"
# its tracemalloc peak; the rest are work counts taken at layer boundaries.
PER_LAYER = {
    "textprep.segment_text.s": "s", "textprep.tokenize.s": "s",
    "textprep.sentences_to_csv.s": "s", "textprep.sentences": "count",
    "textprep.paragraphs": "count", "textprep.tokens": "count",
    "corpus.build_table.s": "s", "corpus.apply_filter.s": "s",
    "corpus.aggregate.s": "s", "corpus.table_to_csv.s": "s",
    "corpus.rows": "count", "corpus.cols": "count", "corpus.cells": "count",
    "ca.fit_ca.s": "s", "ca.fit_ca.peak_mb": "MB", "ca.axes": "count",
    "ca.export_csv.s": "s", "ca.csv_cells": "count",
    "clustering.ward_cluster.s": "s", "clustering.ward_cluster.peak_mb": "MB",
    "clustering.constrained_complete_link.s": "s",
    "clustering.constrained_complete_link.peak_mb": "MB",
    "clustering.pair_tensor_mb": "MB", "clustering.leaves": "count",
    "clustering.dims": "count", "clustering.cut.s": "s",
    "clustering.dendrogram_to_text.s": "s",
    "characterize.characterize_clusters.s": "s", "characterize.tests": "count",
    "characterize.entries": "count",
    "plots.render.s": "s", "plots.svg_bytes": "bytes",
    "pipeline.run_pipeline.s": "s", "pipeline.self_s": "s",
    "pipeline.run_pipeline.peak_mb": "MB", "pipeline.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def environment() -> dict:
    import numpy

    mem_available = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                mem_available = int(line.split()[1]) // 1024
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = git.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_available_mb": mem_available,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
    }


def prepare(workload: gen.Workload, seed: int, mode: str) -> tuple[Path, Path]:
    work = WORK / f"{workload.name}-seed{seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    return work, gen.write_inputs(workload, seed, DATA, work / "inputs")


def structure_problems(out_dir: Path, workload: gen.Workload) -> list[str]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from storyfactors import clustering

    try:
        return verify.check_structure(out_dir, "segment_sizes" in workload.keys, clustering)
    except (OSError, ValueError, IndexError) as err:
        return [f"structural check failed: {err!r}"]


# ---------------------------------------------------------------- end to end

def spawn_run(config: Path, out_dir: Path, logs: Path) -> dict:
    """One fresh ``storyfactors run`` process; rusage from its own wait4.

    A child's ``ru_maxrss`` starts at the RSS of the process that spawned
    it, so this process must not have run the pipeline itself.
    """
    logs.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(CHILD), "run", "--config", str(config), "--out", str(out_dir)]
    timed_out = threading.Event()
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)

    def kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)

    ready = None
    stderr = (logs / "stderr").read_text(encoding="utf-8", errors="replace")
    for line in stderr.splitlines():
        if line.startswith("ready "):
            ready = float(line.split()[1])
    problems = []
    if timed_out.is_set():
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
    elif proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}: {stderr.strip()[-300:]}")
    return {
        "run_s": end - start,
        "setup_s": (ready - start) if ready is not None else end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "summary": (logs / "stdout").read_text(encoding="utf-8", errors="replace").splitlines(),
        "problems": problems,
    }


def end_to_end(workload: gen.Workload, seed: int, seconds: float) -> dict:
    work, config = prepare(workload, seed, "end_to_end")
    expected = verify.expected_files(workload.keys)

    def out_of(i: int) -> Path:
        return work / "out" / ("shared" if workload.overwrite else f"run{i}")

    warm = spawn_run(config, out_of(0), work / "logs" / "warmup")
    reference = verify.digests(out_of(0)) if out_of(0).is_dir() else {}
    warm["problems"] += verify.check_set(reference, expected, None)

    runs: list[dict] = []
    start = clock()
    while len(runs) < MIN_RUNS or clock() - start < seconds:
        i = len(runs) + 1
        run = spawn_run(config, out_of(i), work / "logs" / f"run{i}")
        if out_of(i).is_dir():
            run["problems"] += verify.check_set(verify.digests(out_of(i)), expected, reference)
            if not workload.overwrite:
                shutil.rmtree(out_of(i))
        runs.append(run)

    # Every timed run is byte-identical to the warm-up (or already failed),
    # so the structural checks run once, on the warm-up's bytes.
    if not warm["problems"]:
        warm["problems"] += structure_problems(out_of(0), workload)
    shutil.rmtree(work / "out", ignore_errors=True)
    failed = len(runs) if warm["problems"] else sum(bool(r["problems"]) for r in runs)
    ok = [r for r in runs if r["exit"] == 0] or runs
    stats = {name: summarize([r[name] for r in ok]) for name in END_TO_END}
    return {
        "workload": workload.name, "seed": seed, "mode": "end_to_end",
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "error_rate": failed / len(runs),
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "stats": stats, "warmup": warm, "runs": runs,
    }


# -------------------------------------------------------------------- traced

def traced(workload: gen.Workload, seed: int, seconds: float) -> dict:
    work, config_path = prepare(workload, seed, "traced")
    sys.path.insert(0, str(SRC))
    import tracemalloc

    import storyfactors
    from storyfactors import pipeline

    config = pipeline.parse_config(config_path)
    expected = verify.expected_files(workload.keys)
    passes = itertools.count()

    def once(tracer: spans.Tracer | None, reference: dict | None) -> tuple[float, dict, list]:
        """One in-process run; with no reference it is the warm-up run."""
        out_dir = work / "out" / ("shared" if workload.overwrite else f"pass{next(passes)}")
        start = time.perf_counter()
        try:
            if tracer is None:
                pipeline.run_pipeline(config, out_dir=out_dir)
            else:
                with spans.installed(tracer, storyfactors):
                    tracer.wrap("pipeline.run_pipeline", pipeline.run_pipeline)(
                        config, out_dir=out_dir)
        except pipeline.StageError as err:
            return time.perf_counter() - start, {}, [f"error {err}"]
        elapsed = time.perf_counter() - start
        found = verify.digests(out_dir)
        problems = verify.check_set(found, expected, reference)
        if reference is None:
            problems += structure_problems(out_dir, workload)
        if not workload.overwrite:
            shutil.rmtree(out_dir)
        return elapsed, found, problems

    warm_s, reference, warm_problems = once(None, None)
    plain_s, tracers, problems = [], [], []
    start = clock()
    while not tracers or clock() - start < seconds:
        tracer = spans.Tracer()
        # Alternate which pass of the pair goes first, so that drift during
        # the pair does not bias trace.overhead_s.
        for t in (None, tracer) if len(tracers) % 2 == 0 else (tracer, None):
            elapsed, _, bad = once(t, reference)
            problems.append(bad)
            if t is None:
                plain_s.append(elapsed)
        tracers.append(tracer)

    memory = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        problems.append(once(memory, reference)[2])
    finally:
        tracemalloc.stop()
    shutil.rmtree(work / "out", ignore_errors=True)

    values = {}
    selfs = [t.self_seconds() for t in tracers]
    totals = [sum(s.seconds for s in t.spans if s.name == "pipeline.run_pipeline")
              for t in tracers]
    peaks = memory.peaks_mb()
    for name in PER_LAYER:
        if name == "pipeline.run_pipeline.s":
            values[name] = statistics.median(totals)
        elif name == "pipeline.self_s":
            values[name] = statistics.median(s.get("pipeline.run_pipeline", 0.0) for s in selfs)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(totals) - statistics.median(plain_s)
        elif name.endswith(".peak_mb"):
            values[name] = peaks.get(name[: -len(".peak_mb")], 0.0)
        elif name.endswith(".s"):
            values[name] = statistics.median(s.get(name[:-2], 0.0) for s in selfs)
        else:
            values[name] = tracers[0].counts.get(name, 0)
    failed = len(problems) if warm_problems else sum(bool(p) for p in problems)
    return {
        "workload": workload.name, "seed": seed, "mode": "traced",
        "correct": failed == 0, "attempted": len(problems), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "passes": {"untraced_s": plain_s, "traced_s": totals, "warmup_s": warm_s},
        "span_self_s": {k: statistics.median(s.get(k, 0.0) for s in selfs)
                          for k in sorted(set().union(*selfs))},
        "problems": [warm_problems, *problems],
    }


# ------------------------------------------------------------------- report

def report(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} ({result['mode']})")
    if result["mode"] == "end_to_end":
        for line in result["warmup"]["summary"]:
            print(f"   {line}")
        warm = result["warmup"]
        print(f"   warm-up (discarded): run_s {warm['run_s']:.4f} s, "
              f"setup_s {warm['setup_s']:.4f} s, peak_rss_mb {warm['peak_rss_mb']:.1f} MB")
        for name, unit in END_TO_END.items():
            s = result["stats"][name]
            print(f"   {name:<12} {s['median']:.4f} {unit} median "
                  f"(min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']})")
        print(f"   error_rate   {result['error_rate']:.4f} ratio "
              f"({result['failed']}/{result['attempted']} runs failed)")
    else:
        for name, metric in result["metrics"].items():
            print(f"   {name:<46} {metric['value']:.6g} {metric['unit']}")
        p = result["passes"]
        print(f"   passes: {len(p['traced_s'])} traced, {len(p['untraced_s'])} untraced, "
              f"1 tracemalloc; warm-up {p['warmup_s']:.4f} s (discarded)")
    for problem in _problems(result):
        print(f"   FAILED: {problem}")


def _problems(result: dict) -> list[str]:
    if result["mode"] == "end_to_end":
        lists = [result["warmup"]["problems"]] + [r["problems"] for r in result["runs"]]
    else:
        lists = result["problems"]
    return sorted({p for problems in lists for p in problems})


def run_all(args) -> int:
    """Every workload, end to end and traced, each in a fresh benchmark process.

    A child's ``ru_maxrss`` starts from the RSS of the process that spawned
    it, so end-to-end runs must come from a process that has not itself run
    the pipeline.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in gen.WORKLOADS:
        for mode in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(mode)]
            lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                   check=False).stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"error: {name} (trace {mode}) printed no result", file=sys.stderr)
                return 1
            for key in ("attempted", "failed"):
                combined[key] += result[key]
            combined["correct"] &= result["correct"]
            combined["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "storyfactors" / "cli.py").is_file():
        print(f"error: no storyfactors sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    bench = traced if args.trace else end_to_end
    result = bench(gen.WORKLOADS[args.workload], args.seed, args.seconds)
    report(result)
    result["environment"] = environment()
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    record = WORK / f"{args.workload}-seed{args.seed}-{result['mode']}" / "result.json"
    record.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
