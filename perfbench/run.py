"""Robust-pipeline benchmark for orlicz-uat.

Runs ``run_robust_experiment`` (config -> family -> certificate -> width/seed
schedule -> verification -> artifacts) on one named workload and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload mid --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics: self times and counts of spans recorded
around the program's public calls (see ``spans.py``), plus the tracing
overhead.  ``--workload all`` runs every workload, each in its own process,
and prints one line per metric.

Every run writes into a fresh directory and passes the correctness gate in
``gate.py``; a run that raises or fails the gate counts as failed.  BLAS
and OpenMP pools are pinned to one thread and ``ORLICZ_UAT_THREADS`` is
removed, so the program's default thread pool runs.  Run from the root of a
source checkout: the program is imported from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
RSS_PROBES = 5
_RSS_PROBE = """\
import json, resource, sys
from orlicz_uat.robust import run_robust_experiment
run_robust_experiment(json.loads(sys.argv[1]), out_dir=sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# The benchmark's span around each whole run; its self time is the
# main-thread time spent in no layer, reported as robust.glue_s.
ROOT_SPAN = "robust.run"


def pin_environment() -> None:
    """Pin thread pools before numpy loads and make ``src/`` importable."""
    os.environ.update(PINNED_THREADS)
    os.environ.pop("ORLICZ_UAT_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import orlicz_uat.cli"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        (*PINNED_THREADS, "ORLICZ_UAT_THREADS")}}


class Bench:
    """Repeated, gated runs of one workload over its families."""

    def __init__(self, name: str, seed: int, references: dict | None):
        """``references`` is the content of ``reference.json``, or None to skip that check."""
        # Imported here, after pin_environment, because they load numpy.
        import gate
        from orlicz_uat.robust import build_family, run_robust_experiment

        self._gate = gate
        self._run = run_robust_experiment
        self._rows = workloads.schedule_length(name)
        self._rtol = references["rtol"] if references else 0.0
        known = references["families"].get(name, {}) if references else {}
        self.timed = workloads.family_seeds(name, seed)
        self.panel = workloads.panel_seeds(name)
        self.families = {}  # family seed -> (config, members, reference)
        for fseed in dict.fromkeys(self.panel + self.timed):
            cfg = workloads.config(name, fseed)
            members = build_family(cfg["family"])[0].members
            self.families[fseed] = (cfg, members, known.get(str(fseed)))
        self.references = sum(ref is not None for _, _, ref in self.families.values())
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.outcomes: dict = {}

    def _gated(self, fseed: int, run):
        """Call ``run(config, out_dir)`` for one family in a fresh directory, then gate it.

        Returns what ``run`` returned, or None if it raised or failed the gate.
        """
        cfg, members, reference = self.families[fseed]
        self.attempted += 1
        out = tempfile.mkdtemp(dir=OUT_ROOT)
        try:
            value = run(cfg, out)
            outcome = self._gate.check(out, members, cfg, self._rows,
                                       reference, self._rtol)
            if self.digests.setdefault(fseed, outcome.digest) != outcome.digest:
                raise self._gate.GateError("artifacts differ from an earlier repeat")
        except Exception:  # a failed run is counted and reported, never fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.outcomes[fseed] = outcome
        return value

    def attempt(self, fseed: int, tracer=None):
        """Wall seconds of one gated run of a family, or None if it failed."""
        from spans import instrument

        def run(cfg, out):
            if tracer is None:
                start = time.perf_counter()
                self._run(cfg, out_dir=out)
                return time.perf_counter() - start
            with instrument(tracer), tracer.span(ROOT_SPAN) as root:
                result = self._run(cfg, out_dir=out)
            tracer.count("robust.schedule_entries", len(result.rows))
            return root.duration
        return self._gated(fseed, run)

    def peak_rss_mb(self):
        """Median ``ru_maxrss`` of fresh processes that each make one gated run.

        One process that repeats runs keeps the largest peak of them all, and
        that peak jumps by about 7% on mid whenever two pooled fits happen to
        overlap; one run per process keeps the figure steady.
        """
        def run(cfg, out):
            proc = subprocess.run([sys.executable, "-c", _RSS_PROBE, json.dumps(cfg), out],
                                  check=True, stdout=subprocess.PIPE, text=True)
            return int(proc.stdout) / 1024.0
        peaks = [self._gated(self.timed[j % len(self.timed)], run) for j in range(RSS_PROBES)]
        peaks = [p for p in peaks if p is not None]
        return statistics.median(peaks) if peaks else None

    def rounds(self, seconds: float, traced: bool):
        """Whole rounds over the timed families, as many as fit in ``seconds``.

        At least one round runs; another starts only if, at the pace so far,
        it ends within ``seconds``.  Whole rounds keep every family equally
        represented, so medians of counts do not depend on the pace.  Yields
        (untraced seconds, tracer) per family visit; with ``traced`` each
        visit makes one untraced and one traced run, else tracer is None.
        """
        from spans import Tracer

        for fseed in self.panel:  # warm-up
            self.attempt(fseed)
        start = time.perf_counter()
        done = 0
        while True:
            for fseed in self.timed:
                plain = self.attempt(fseed)
                tracer = Tracer() if traced else None
                if traced and self.attempt(fseed, tracer) is None:
                    tracer = None
                yield plain, tracer
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed * (done + 1) / done > seconds:
                return

    def quality(self, fseeds: list) -> dict:
        """Means of the deterministic report values, if every family passed."""
        done = [self.outcomes[f] for f in fseeds if f in self.outcomes]
        if len(done) < len(fseeds):
            return {}
        return {"sup_l1": statistics.fmean(o.sup_l1 for o in done),
                "holder_rhs": statistics.fmean(o.holder_rhs for o in done)}


def layer_values(tracer) -> dict:
    """Per-layer metrics of one traced run: ``<span>_s`` self times and the counts."""
    self_s = tracer.self_times()
    glue = self_s.pop(ROOT_SPAN)
    values = {f"{name}_s": t for name, t in self_s.items()}
    values.update({k: float(v) for k, v in tracer.counts.items()})
    wall = next(s.duration for s in tracer.spans if s.name == ROOT_SPAN)
    busy = glue + sum(self_s.values()) - values.get("robust.pool_wait_s", 0.0)
    values["robust.glue_s"] = glue
    values["robust.busy_over_wall"] = busy / wall
    values["trace.attributed_frac"] = 1.0 - glue / busy
    values["trace.wall_s"] = wall
    return values


def measure(name: str, seed: int, seconds: float, traced: bool):
    """(bench, values, timed runs): every metric this process can report."""
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    setup = None if traced else setup_seconds()
    bench = Bench(name, seed, json.loads(REFERENCE.read_text()))
    peak_rss = None if traced else bench.peak_rss_mb()
    plain, layers = [], []
    for untraced_s, tracer in bench.rounds(seconds, traced):
        if untraced_s is not None:
            plain.append(untraced_s)
        if tracer is not None:
            layers.append(layer_values(tracer))
    values = bench.quality(bench.panel)
    if plain:
        values["run_s"] = statistics.median(plain)
    if setup is not None:
        values["setup_s"] = setup
    if peak_rss is not None:
        values["peak_rss_mb"] = peak_rss
    if layers:
        for key in set().union(*layers):
            values[key] = statistics.median(v.get(key, 0.0) for v in layers)
        if plain:
            values["trace.overhead_s"] = values["trace.wall_s"] - values["run_s"]
    return bench, values, len(plain)


def result_line(name: str, seed: int, seconds: float, trace: int) -> int:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    bench, values, runs = measure(name, seed, seconds, bool(trace))
    if "trace.wall_s" in values:
        # a traced run succeeded: a count it never made (net.artifact_layers
        # outside narrow, say) reads 0
        for m in wanted:
            values.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for {missing}: the runs that make them failed", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# workload {name} seed {seed} trace {trace}: {runs} timed runs over "
          f"{len(bench.timed)} families, quality over the {len(bench.panel)} panel "
          f"families, {bench.references} families with reference values")
    timed = bench.quality(bench.timed)
    if timed:
        print(f"# quality of the timed families: {json.dumps(timed)}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']!r} {m['unit']}")
    print(f"{name} failed_frac {bench.failed / bench.attempted!r} ratio")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a process of its own, so peak RSS stays per workload."""
    results, status = {}, 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "orlicz_uat").is_dir():
        print(f"no program to measure: {SRC / 'orlicz_uat'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    pin_environment()
    return result_line(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
