"""Pipeline benchmark for flowlab: pcap -> cf.csv/pf_*.csv -> results.csv.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload snapshot-sweep --seed 0 --seconds 40 --trace 0

Set-up generates the workload's corpus from the seed (``setup_corpus.py``),
several times over so that its time is a median, and checks the meter
against the reference meter on a slice of it. Then, for ``--seconds``, the
benchmark runs the user's three CLI stages (``preprocess``, ``meter``,
``eval``), each as a fresh process, and checks every run's outputs.
``--trace 0`` reports the end-to-end metrics, medians over the runs, with
every child pinned to one CPU next to the speed probe of ``speed.py``:
a time is the child's CPU time at the probe's reference speed (see
``measure``). ``--trace 1`` alternates untraced runs with runs whose
stages go through ``tracer.py`` and reports the per-layer metrics of
``spans.py``. ``--workload all`` runs every workload in turn.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Measurement is process-local: CPU time and peak RSS from each stage's own
rusage, host speed from a probe process on the same CPU, wall time from
this process in the traced run. There is no system-wide tracing and no
page-cache dropping, and the reference machine is a shared 2-core box.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from spans import LAYERS, STAGES, layer_metrics
from speed import Probe, pin
from workloads import WORKLOADS, Workload, scaled_min_class_count

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH, "digests.json")

STAGE_TIMEOUT_S = 150
SETUP_BUILDS = 5
MIN_RUNS = 3
LIMITATION = (
    "process-local measurement only: CPU time of each stage process scaled by a "
    "speed probe on the same CPU, and its own peak RSS; no system-wide tracing and "
    "no page-cache dropping; shared 2-core machine"
)

# (name, unit); see measure() for how each value is formed from the runs.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("preprocess_s", "s"),
    ("meter_s", "s"),
    ("eval_s", "s"),
    ("packets_per_s", "1/s"),
    ("preprocess_rss_mb", "MB"),
    ("meter_rss_mb", "MB"),
    ("eval_rss_mb", "MB"),
)
_PF_NAME = re.compile(r"pf_(pc|fd|bc)_\d+\.csv")


class Tally:
    """Operations attempted and failed; a failure is never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    returncode: int
    cpu_s: float  # user + system time of the process and its threads
    start: float  # time.perf_counter() at start and end
    end: float


def run_process(argv: list[str], cwd: str, log: str, timeout: float = STAGE_TIMEOUT_S,
                cpu: int | None = None) -> StageRun:
    """Run one process to completion, pinned to ``cpu`` when one is given;
    its wall and CPU time and its own peak RSS.

    The rusage of os.wait4 is the child's alone. Its peak includes what the
    child inherited before exec, which is why this process stays
    small (it never imports flowlab or numpy).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                preexec_fn=None if cpu is None else lambda: pin(0, cpu))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return StageRun(t1 - t0, usage.ru_maxrss / 1024, proc.returncode,
                    usage.ru_utime + usage.ru_stime, t0, t1)


def stage_args(workload: Workload, scale: float) -> dict[str, list[str]]:
    """flowlab CLI arguments of each stage, relative to the run directory."""
    return {
        "preprocess": ["preprocess", "input.pcap", "clean.pcap"],
        "meter": [
            "meter", "clean.pcap", "rules.json", "out", "--config", "meter.json",
            "--min-class-count", str(scaled_min_class_count(workload, scale)),
        ],
        "eval": ["eval", "out/cf.csv", *(f"out/{p}" for p in workload.pf_files),
                 "results", *workload.eval_flags],
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(run_dir: str, truth: dict[str, str], workload: Workload) -> tuple[str, list[str]]:
    """Digest of cf.csv, every pf_*.csv and results.csv, and what is wrong.

    Each ground-truth flow must be exactly one CF row with its label; every
    PF row must carry its parent's label; the PF files given to eval must be
    non-empty; results.csv must hold every expected cell, none skipped.
    """
    out = os.path.join(run_dir, "out")
    errors: list[str] = []
    try:
        cf_rows = _read_rows(os.path.join(out, "cf.csv"))
        cf = {row[-2]: row[-3] for row in cf_rows}
        if len(cf) != len(cf_rows):
            errors.append("cf.csv repeats a flow hash")
        if cf != truth:
            missing = len(truth.keys() - cf.keys())
            wrong = sum(1 for h in truth.keys() & cf.keys() if cf[h] != truth[h])
            extra = len(cf.keys() - truth.keys())
            errors.append(f"cf.csv vs ground truth: {missing} missing, {wrong} mislabelled, {extra} extra")
        pf_names = sorted(n for n in os.listdir(out) if _PF_NAME.fullmatch(n))
        for name in pf_names:
            rows = _read_rows(os.path.join(out, name))
            if any(cf.get(row[-2]) != row[-3] for row in rows):
                errors.append(f"{name}: a row does not match its parent's label")
            if not rows and name in workload.pf_files:
                errors.append(f"{name} is empty but eval needs it")
        results = _read_rows(os.path.join(run_dir, "results", "results.csv"))
        if len(results) != workload.cells or any(row[-1] for row in results):
            errors.append(f"results.csv: {len(results)} rows (want {workload.cells}) or skipped cells")
        files = [os.path.join(out, n) for n in ["cf.csv", *pf_names]]
        files.append(os.path.join(run_dir, "results", "results.csv"))
    except (OSError, IndexError) as exc:
        return "", errors + [f"unreadable outputs: {exc}"]
    digest = hashlib.sha256(
        "".join(f"{os.path.basename(p)}:{_sha256(p)}\n" for p in files).encode()
    ).hexdigest()
    return digest, errors


def pf_files_nonempty(run_dir: str) -> int:
    out = os.path.join(run_dir, "out")
    return sum(
        1 for n in os.listdir(out)
        if _PF_NAME.fullmatch(n) and len(_read_rows(os.path.join(out, n))) > 0
    )


@dataclass
class Bench:
    """One benchmark run of one workload and seed."""

    workload: Workload
    seed: int
    scale: float
    run_dir: str
    tally: Tally = field(default_factory=Tally)
    truth: dict = field(default_factory=dict)
    digests: set = field(default_factory=set)
    setup: dict = field(default_factory=dict)  # the set-up report
    cpu: int | None = None  # the CPU every child is pinned to, if any

    def set_up(self, builds: int = SETUP_BUILDS) -> bool:
        """Build the corpus ``builds`` times in one child process.

        Keeps each build's timing in ``setup["builds"]`` as [start, end,
        CPU seconds], checks that every build wrote the same bytes and that
        the meter agrees with the reference meter.
        """
        log = os.path.join(self.run_dir, "setup.log")
        argv = [sys.executable, os.path.join(BENCH, "setup_corpus.py"), self.workload.name,
                str(self.seed), repr(self.scale), self.run_dir, str(builds)]
        code = run_process(argv, self.run_dir, log, cpu=self.cpu).returncode
        if not self.tally.record(code == 0, f"set-up exited {code}"):
            with open(log, encoding="utf-8", errors="replace") as fh:
                print(fh.read()[-2000:], file=sys.stderr)
            return False
        with open(log, encoding="utf-8") as fh:
            report = json.loads(fh.read().splitlines()[-1])
        with open(os.path.join(self.run_dir, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.tally.record(len(set(report["digests"])) == 1,
                          "set-up wrote different bytes for one seed")
        self.tally.record(not report["reference_error"], report["reference_error"])
        self.setup = report
        return True

    def pipeline(self, run_id: str, traced: bool) -> dict[str, StageRun] | None:
        """Run the three stages in order on fresh output paths; None when one fails."""
        shutil.rmtree(os.path.join(self.run_dir, "out"), ignore_errors=True)
        shutil.rmtree(os.path.join(self.run_dir, "results"), ignore_errors=True)
        log = os.path.join(self.run_dir, "stages.log")
        runs = {}
        for stage, args in stage_args(self.workload, self.scale).items():
            if traced:
                prefix = [os.path.join(BENCH, "tracer.py"), f"spans-{stage}.json", run_id]
            else:
                prefix = ["-m", "flowlab.cli"]
            with open(log, "w"):  # keep only this stage's output
                pass
            run = run_process([sys.executable, *prefix, *args], self.run_dir, log, cpu=self.cpu)
            if not self.tally.record(run.returncode == 0, f"{run_id} {stage} exited {run.returncode}"):
                with open(log, encoding="utf-8", errors="replace") as fh:
                    print(fh.read()[-2000:], file=sys.stderr)
                return None
            runs[stage] = run
        self.check(run_id)
        return runs

    def check(self, run_id: str) -> None:
        digest, errors = check_outputs(self.run_dir, self.truth, self.workload)
        self.digests.add(digest)
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh).get(self.workload.name, {}).get(str(self.seed))
        if expected is not None and digest != expected:
            errors.append(f"output digest {digest[:12]} differs from the recorded {expected[:12]}")
        if len(self.digests) > 1:
            errors.append("outputs differ between repeats of the same input")
        self.tally.record(not errors, f"{run_id} output check: {'; '.join(errors)}")

    def import_only(self) -> StageRun | None:
        """A process that only starts the interpreter and imports the CLI."""
        argv = [sys.executable, "-c", "import flowlab.cli"]
        run = run_process(argv, self.run_dir, os.path.join(self.run_dir, "import.log"))
        if not self.tally.record(run.returncode == 0, f"import-only exited {run.returncode}"):
            return None
        return run

    def load_spans(self) -> dict[str, dict]:
        """Each stage's span file: {"run_id", "stage", "spans"}."""
        docs = {}
        for stage in STAGES:
            with open(os.path.join(self.run_dir, f"spans-{stage}.json"), encoding="utf-8") as fh:
                docs[stage] = json.load(fh)
        return docs


def measure(bench: Bench, seconds: float, probe: Probe) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Untraced pipeline runs for ``seconds`` (at least ``MIN_RUNS``).

    Every child runs on the probe's CPU (see ``speed.py``); a time is the
    child's CPU time at the reference speed. Returns each end-to-end
    metric's median over the runs and the per-run samples behind it.
    ``setup_s`` is the median over the set-up builds. Every run's outputs
    are checked.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(bench.pipeline(f"run{len(runs) + 1}", traced=False))
    if not probe.stop():
        bench.tally.record(False, "the speed probe died")
        return {}, {}
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    samples["setup_s"] = [probe.scaled(cpu_s, t0, t1) for t0, t1, cpu_s in bench.setup["builds"]]
    if not bench.tally.record(None not in samples["setup_s"], "set-up: no probe passes"):
        return {}, {}
    for n, stage_runs in enumerate(runs, 1):
        if stage_runs is None:
            continue
        scaled = {s: probe.scaled(r.cpu_s, r.start, r.end) for s, r in stage_runs.items()}
        if not bench.tally.record(None not in scaled.values(), f"run{n}: no probe passes"):
            continue
        for stage, run in stage_runs.items():
            samples[f"{stage}_s"].append(scaled[stage])
            samples[f"{stage}_rss_mb"].append(run.rss_mb)
        samples["pipeline_s"].append(sum(scaled.values()))
        samples["packets_per_s"].append(
            bench.setup["packets"] / (scaled["preprocess"] + scaled["meter"])
        )
    if not samples["pipeline_s"]:
        return {}, samples
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def measure_traced(bench: Bench, seconds: float) -> tuple[dict[str, list[float]], list]:
    """Pairs of an untraced and a traced run, in alternating order, for ``seconds``.

    Each pair also runs a process that only imports the CLI, the floor
    under every stage's time and peak RSS.
    """
    samples: dict[str, list[float]] = {name: [] for name, _, _ in LAYERS}
    trace_log = []
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        n += 1
        order = (False, True) if n % 2 else (True, False)
        runs = {traced: bench.pipeline(f"pair{n}-{'traced' if traced else 'plain'}", traced)
                for traced in order}
        import_only = bench.import_only()
        if runs[False] is None or runs[True] is None or import_only is None:
            continue
        docs = bench.load_spans()
        trace_log.extend(docs.values())
        packet_path_s = docs["meter"]["packet_path_s"]
        traced_wall = {s: r.wall_s for s, r in runs[True].items()}
        traced_wall["meter"] -= packet_path_s  # the tracer's extra meter call
        values = layer_metrics(
            {stage: doc["spans"] for stage, doc in docs.items()},
            traced_wall,
            {s: r.wall_s for s, r in runs[False].items()},
            packet_path_s,
            pf_files_nonempty(bench.run_dir),
            (import_only.wall_s, import_only.rss_mb),
        )
        for name, value in values.items():
            samples[name].append(value)
    return samples, trace_log


def provenance(seed: int, setup: dict) -> dict:
    """What was measured, where; src_sha256 identifies a checkout without git."""
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src", "flowlab"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            src.update(name.encode() + bytes.fromhex(_sha256(os.path.join(base, name))))
    mem_kb = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": setup.get("numpy"),
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "seed": seed,
        "limitation": LIMITATION,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object (plus a printable table).

    ``scale`` multiplies every template's flow count; only the self-test
    sets it.
    """
    workload = WORKLOADS[name]
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    bench = Bench(workload, seed, scale, run_dir)
    affinity = os.sched_getaffinity(0)
    probe = None
    try:
        if not trace:
            # The children share one CPU with the speed probe; this process keeps off it.
            bench.cpu = max(affinity)
            if len(affinity) > 1:
                os.sched_setaffinity(0, affinity - {bench.cpu})
            probe = Probe(bench.cpu, os.path.join(run_dir, "probe.bin"))
        metrics: dict = {}
        rows = []
        if bench.set_up():
            if trace:
                samples, trace_log = measure_traced(bench, seconds)
                values = {n: statistics.median(v) for n, v in samples.items() if v}
                units = {n: u for n, u, _ in LAYERS}
                with open(os.path.join(WORK, f"trace-{name}-seed{seed}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump({"provenance": provenance(seed, bench.setup),
                               "span_fields": ["id", "parent", "name", "start", "end", "counts"],
                               "stages": trace_log}, fh)
            else:
                values, samples = measure(bench, seconds, probe)
                units = dict(END_TO_END)
            for metric, value in values.items():
                metrics[metric] = {"value": value, "unit": units[metric]}
                runs = samples[metric]
                q1, med, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
                rows.append(f"  {metric:<40} {value:>14.6g} {units[metric]:<6} runs: "
                            f"min {min(runs):.6g}  q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}  "
                            f"n={len(runs)}")
        tally = bench.tally
        expected = [n for n, _, _ in LAYERS] if trace else [n for n, _ in END_TO_END]
        result = {
            "correct": not tally.failures and all(n in metrics for n in expected),
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": metrics,
        }
        print(f"== {name} seed={seed} trace={int(trace)}  "
              f"packets={bench.setup.get('packets')} flows={bench.setup.get('flows')}")
        print("\n".join(rows))
        print(f"  output checks: {'PASS' if result['correct'] else 'FAIL'} "
              f"({tally.attempted} operations, {len(tally.failures)} failed)")
        print("provenance " + json.dumps(provenance(seed, bench.setup)))
        return result
    finally:
        if probe is not None:
            probe.stop()
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flowlab", "cli.py")):
        print(f"error: no flowlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
