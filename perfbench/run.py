"""The repository benchmark: time one workload, check it, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload quick-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics:
``wall_s`` is the median seconds per pass; ``setup_s`` is the median of
three timed cold starts (fresh interpreter, imports, registry, source
fingerprint) plus the in-process preparation (for ``warm-rerun``, filling
the store); ``peak_rss_mb`` is the process's peak resident memory.  Both
times are read off a :class:`SpeedClock`, so they are seconds at a fixed
reference CPU speed (see there), whatever state the shared host is in.
Passes run for ``--seconds`` (at least three).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see ``layers.py``, raw seconds) plus ``trace.overhead_ratio``
(speed-normalised).  Either way every pass must serve exactly the
enumerated batch and reproduce the first document byte for byte (traced
passes included); a pass that raises or breaks either rule counts as
failed.  ``error_ratio`` (failed over attempted passes) is printed with the
record rather than as a final metric, because it reads 0 on every correct
run.

Output: human-readable lines, one ``perfbench-record:`` JSON line with the
full record (git rev, ``os.cpu_count()``, Python version, pass counts, each
metric's median, quartiles and sample count, the raw per-pass seconds, the
document's SHA-256), and last a JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  Exits 1 when a check fails and 2 when the ``repro``
sources are missing.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Job kinds with ``runner.cell.<kind>`` metrics, in registry order.
JOB_KINDS = (
    "figure5", "figure6", "pab", "table1", "table2", "ablation",
    "degradation", "churn", "faults", "fleet", "fuzz",
)

#: Cold starts timed for ``setup_s`` (their median is reported).
SETUP_REPEATS = 3

#: What one cold start does before a pass can run: interpreter start,
#: imports, registry load and the source fingerprint of the cache keys.
_COLD_START = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro.sim.experiments, repro.sim.specs; "
    "from repro.sim.jobs import code_fingerprint; code_fingerprint()"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if ".ns_per_" in name:
        return "ns"
    return "count"


def layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [
        "runner.enumerate_s", "runner.cache_hit_s", "runner.execute_s",
        "runner.assemble_s", "runner.cells_executed", "runner.cells_cached",
        "runner.cells_memoized",
    ]
    for kind in JOB_KINDS:
        names += [f"runner.cell.{kind}_s", f"runner.cell.{kind}.count"]
    names += [
        "store.load_many_s", "store.hit_ratio", "store.store_many_s",
        "store.flush_s", "store.live_bytes", "frames.document_s",
        "sim.run_s", "sim.runs", "sim.quanta", "sim.plan_reuse_ratio",
        "sim.self_s", "mem.warm.functional_s", "mem.warm.rewarm_s",
        "mem.warm.calls", "mem.warm.addresses", "mem.warm.ns_per_addr",
        "mem.rewarm.resident_ratio", "cpu.execute_s", "cpu.run_quantum.calls",
        "cpu.sim_cycles", "cpu.instructions", "cpu.ns_per_instr",
        "core.place_s", "core.place.calls", "core.transition_s",
        "core.transitions", "trace.overhead_ratio",
    ]
    return names


def summarise(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median (the reported value), quartiles and sample count of some samples."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    median = statistics.median(ordered)
    return {"unit": unit, "value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(ordered)}


def git_rev(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class SpeedClock:
    """Counts work so that it reads the same whether the CPU ran fast or slow.

    On a shared host each virtual CPU switches every few seconds between a
    fast state and one about 1.8x slower (a neighbour on the same core is
    busy), so raw seconds measure the neighbours as much as the program.
    While the clock runs, a ``SIGALRM`` every ``TICK_S`` seconds times a
    fixed probe of pure-Python dict work; the stretch of work since the
    previous tick is divided by the previous probe's time.  :meth:`now`
    therefore counts work in probes, and :meth:`seconds` turns a span of it
    into seconds at ``REFERENCE_PROBE_S`` per probe: the probe's time in the
    fast state of a 2-vCPU Xeon host under Python 3.11.  A fixed reference
    keeps one run comparable with the next, where the run's own fastest
    probe would vary with how often the fast state came up.  The handler's
    own time is left out.
    """

    TICK_S = 0.02
    REFERENCE_PROBE_S = 22e-6

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._work = 0.0
        self._ticks = 0
        self._last = 0.0
        self._probe_s = 1.0
        self._previous_handler = None

    @staticmethod
    def _probe() -> float:
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for i in range(256):
            counts[i & 15] = counts.get(i & 15, 0) + i
        return time.perf_counter() - start

    def _sample(self) -> None:
        self._probe_s = min(self._probe(), self._probe())
        self.probes.append(self._probe_s)
        self._ticks += 1
        self._last = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._work += (time.perf_counter() - self._last) / self._probe_s
        self._sample()

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def now(self) -> float:
        """Work done so far, in probes."""
        while True:
            ticks = self._ticks
            work = self._work + (time.perf_counter() - self._last) / self._probe_s
            if ticks == self._ticks:  # no tick landed while reading
                return work

    def seconds(self, work: float) -> float:
        """A span of work, in seconds at the reference speed."""
        return work * self.REFERENCE_PROBE_S


def cold_start(speed: SpeedClock) -> Dict[str, float]:
    """Work and raw seconds of one fresh interpreter doing the benchmark's imports.

    The interpreter and this process share one CPU meanwhile, so the
    clock's probes measure the CPU the interpreter runs on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        start, begin = time.perf_counter(), speed.now()
        subprocess.run([sys.executable, "-c", _COLD_START], cwd=ROOT, check=True)
        return {"work": speed.now() - begin, "raw_s": time.perf_counter() - start}
    finally:
        os.sched_setaffinity(0, allowed)


class Bench:
    """One benchmark run: the timed pass loop and its checks."""

    def __init__(self, workload, seconds: float, trace: bool, speed: SpeedClock) -> None:
        from layers import LayerTracer

        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.speed = speed
        self.tracer = LayerTracer()
        #: Work (in probes) of each passing pass, untraced and traced.
        self.work: Dict[bool, List[float]] = {False: [], True: []}
        #: Raw seconds of the same passes.
        self.durations: Dict[bool, List[float]] = {False: [], True: []}
        self.layer_samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)
        print(f"pass {self.attempted}: {message}", file=sys.stderr)

    def one_pass(self, traced: bool) -> None:
        from layers import LayerTracer, layer_metrics
        from repro.sim.jobs import execute_job

        self.attempted += 1
        executor = execute_job
        if traced:
            self.tracer.totals.clear()
            self.tracer.install()
            executor = self.tracer.executor(execute_job)
        elif LayerTracer.leftover_wrappers():
            raise RuntimeError(
                f"untraced pass with wrappers installed: {LayerTracer.leftover_wrappers()}"
            )
        start, begin = time.perf_counter(), self.speed.now()
        try:
            result = self.workload.run_pass(executor)
        except Exception as error:  # a failing pass is counted, not fatal
            self._fail(f"raised {type(error).__name__}: {error}")
            return
        finally:
            work = self.speed.now() - begin
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        try:
            if not self.workload.served_as_expected(result.stats):
                self._fail(f"runner served {result.stats.summary()}")
                return
            if self.workload.reference is None:
                self.workload.reference = result.document
            elif result.document != self.workload.reference:
                kind = "traced" if traced else "untraced"
                self._fail(f"{kind} document differs from the reference document")
                return
            self.work[traced].append(work)
            self.durations[traced].append(elapsed)
            if traced:
                metrics = layer_metrics(
                    self.tracer.totals,
                    result.stats,
                    JOB_KINDS,
                    result.live_bytes(),
                    result.document_s,
                )
                for name, value in metrics.items():
                    self.layer_samples.setdefault(name, []).append(value)
        finally:
            self.workload.finish_pass(result)

    def measure(self) -> None:
        """Run passes until the next one would overrun ``seconds`` (at least 3).

        Traced runs alternate untraced and traced passes, starting
        untraced, so both see the same host conditions.
        """
        start = time.perf_counter()
        while True:
            traced = self.trace and self.attempted % 2 == 1
            seen = self.durations[traced] or self.durations[not traced]
            estimate = statistics.median(seen) if seen else 0.0
            elapsed = time.perf_counter() - start
            if self.attempted >= 3 and elapsed + estimate > self.seconds:
                break
            self.one_pass(traced)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from repro.sim.jobs import code_fingerprint

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    import_s = time.perf_counter() - _PROCESS_START

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        with SpeedClock() as speed:
            cold_starts = [cold_start(speed) for _ in range(SETUP_REPEATS)]
            prepare_start, prepare_begin = time.perf_counter(), speed.now()
            workload.prepare()
            prepare_work = speed.now() - prepare_begin
            prepare_s = time.perf_counter() - prepare_start
            bench = Bench(workload, args.seconds, bool(args.trace), speed)
            bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced, traced = bench.work[False], bench.work[True]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [speed.seconds(cold["work"] + prepare_work) for cold in cold_starts]
    end_to_end = {}
    if untraced:
        end_to_end["wall_s"] = summarise([speed.seconds(w) for w in untraced], "s")
    end_to_end["setup_s"] = summarise(setup, "s")
    end_to_end["peak_rss_mb"] = summarise([peak_rss_mb], "MiB")
    layers = {}
    if args.trace and traced and untraced:
        for name, values in bench.layer_samples.items():
            layers[name] = summarise(values, layer_unit(name))
        layers["trace.overhead_ratio"] = summarise(
            [statistics.median(traced) / statistics.median(untraced)], "ratio"
        )

    wanted = layer_names() if args.trace else list(END_TO_END_UNITS)
    source = layers if args.trace else end_to_end
    correct = bench.failed == 0 and all(name in source for name in wanted)
    error_ratio = bench.failed / max(1, bench.attempted)
    reference = workload.reference or b""
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "git_rev": git_rev(ROOT),
        "code_fingerprint": code_fingerprint(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "passes": {"attempted": bench.attempted, "failed": bench.failed,
                   "untraced": len(untraced), "traced": len(traced)},
        "raw_pass_seconds": {"untraced": bench.durations[False],
                             "traced": bench.durations[True]},
        "speed": {"probes": len(speed.probes), "min_probe_s": min(speed.probes),
                  "median_probe_s": statistics.median(speed.probes)},
        "error_ratio": {"value": error_ratio, "unit": "ratio"},
        "problems": bench.problems,
        "document_sha256": hashlib.sha256(reference).hexdigest(),
        "setup_parts": {"in_process_import_s": import_s, "prepare_raw_s": prepare_s,
                        "prepare_s": speed.seconds(prepare_work),
                        "cold_start_raw_s": [cold["raw_s"] for cold in cold_starts]},
        "metrics": end_to_end,
        "layers": layers,
    }
    wall = end_to_end.get("wall_s", {}).get("value", float("nan"))
    raw = statistics.median(bench.durations[False]) if bench.durations[False] else float("nan")
    print(
        f"{workload.name} seed {args.seed}: {bench.attempted} passes "
        f"({len(traced)} traced), error_ratio {error_ratio:.3f}; wall_s {wall:.4f} s "
        f"(raw median {raw:.4f} s), setup_s {end_to_end['setup_s']['value']:.3f} s, "
        f"peak RSS {peak_rss_mb:.1f} MiB"
    )
    print("perfbench-record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": source[name]["value"], "unit": source[name]["unit"]}
            for name in wanted
            if name in source
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
