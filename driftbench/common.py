"""Shared machinery of the benchmark: statistics, the host witness,
hygiene checks, peak RSS, and the in-memory span recorder behind the
layer ledger.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import itertools
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs from (the parent of this
#: directory); every file the benchmark reads or writes lives under it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for state dirs, spools and span dumps; removed per run
#: except for the span dump a traced run writes out.
RUNS_DIR = os.path.join(ROOT, "driftbench", "_runs")
SHM_DIR = "/dev/shm"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken server)."""


def require_checkout() -> None:
    """Fail fast unless the program's sources are next to the benchmark."""
    needed = [
        os.path.join(SRC, "repro", "__init__.py"),
        os.path.join(ROOT, "benchmarks", "results.json"),
    ]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        raise BenchError(
            "not a checkout of the program: missing "
            + ", ".join(os.path.relpath(path, ROOT) for path in missing)
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(run_dir: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts: the program on
    the path, and temp files kept inside the run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = run_dir
    return env


# -- statistics -------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (inclusive interpolation; one sample is its own)."""
    if not values:
        raise ValueError("p90 of no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- the output oracle ------------------------------------------------------------


class Tally:
    """Operations attempted and failed over one run (thread-safe)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
        return ok


class Oracle:
    """Checks outputs against the expected (sequential) output and counts
    each check in ``tally``.  ``corrupt``, when given, is applied to every
    checked output first: the benchmark's own tests use it to prove that a
    wrong output trips the check."""

    def __init__(self, expected, tally: Tally,
                 corrupt: Optional[Callable] = None) -> None:
        self.expected = expected
        self.tally = tally
        self.corrupt = corrupt

    def check(self, output, ok: bool = True, expected=None) -> bool:
        """Count one operation; it passes when ``ok`` and ``output`` equals
        ``expected`` (default: the oracle's own expected output)."""
        if self.corrupt is not None:
            output = self.corrupt(output)
        reference = self.expected if expected is None else expected
        return self.record(ok and output == reference)

    def record(self, ok: bool) -> bool:
        """Count one operation that produced no output to compare (or
        raised: a crash of the program is a failed operation)."""
        return self.tally.record(ok)


def spaced(start: float, end: float, count: int) -> List[float]:
    """``count`` instants spread evenly through ``[start, end)``, one in
    the middle of each of ``count`` equal slices."""
    return [start + (k + 0.5) * (end - start) / count for k in range(count)]


# -- host witness -----------------------------------------------------------------

#: Iterations of the calibration spin: ~20-40 ms of one core on the
#: development host.
CAL_ITERATIONS = 150_000


def spin(iterations: int = CAL_ITERATIONS) -> int:
    acc = 0
    for k in range(iterations):
        acc = (acc * 1664525 + k + 1013904223) & 0xFFFFFFFF
    return acc


def cal_spin_ms() -> float:
    """One fixed single-thread spin, in milliseconds."""
    started = time.perf_counter()
    spin()
    return (time.perf_counter() - started) * 1e3


_SPINNER = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "t = time.perf_counter()\n"
    "acc = 0\n"
    "for k in range({n}):\n"
    "    acc = (acc * 1664525 + k + 1013904223) & 0xFFFFFFFF\n"
    "print(time.perf_counter() - t, flush=True)\n"
)


def _spinners(count: int, iterations: int) -> List[float]:
    """Seconds each of ``count`` concurrent spinner processes took; they
    start spinning together on a go line, after interpreter start-up."""
    code = _SPINNER.format(n=iterations)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(count)
    ]
    try:
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return [float(proc.communicate(timeout=60)[0]) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def parallelism_probe(iterations: int = 4 * CAL_ITERATIONS) -> float:
    """Effective parallel capacity: two concurrent spinners against one.
    2.0 means two full cores; 1.0 means the pair ran as slowly as serial."""
    single = _spinners(1, iterations)[0]
    pair = max(_spinners(2, iterations))
    return 2.0 * single / pair


def host_fingerprint() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


class HostWitness:
    """``host.cal_ms`` spins interleaved through a run, and
    ``host.parallelism`` probed at its start and end."""

    def __init__(self, spans: "Spans") -> None:
        self.spans = spans
        self.cal_ms: List[float] = []
        self.parallelism: List[float] = []

    def cal(self) -> None:
        with self.spans.span("host.cal"):
            self.cal_ms.append(cal_spin_ms())

    def probe_parallelism(self) -> None:
        with self.spans.span("host.parallelism"):
            self.parallelism.append(parallelism_probe())

    def summary(self) -> dict:
        return {
            **host_fingerprint(),
            "cal_ms": median(self.cal_ms) if self.cal_ms else None,
            "cal_samples": len(self.cal_ms),
            "parallelism": (
                median(self.parallelism) if self.parallelism else None
            ),
            "parallelism_samples": [round(p, 3) for p in self.parallelism],
        }


# -- hygiene ----------------------------------------------------------------------


def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, state) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # comm may hold spaces and parens: split after its closing paren.
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def live_descendants(root: Optional[int] = None) -> List[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _state) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            if table[child][1] != "Z":
                found.append(child)
            frontier.append(child)
    return found


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def shm_names() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class Hygiene:
    """Between-run hygiene: no child process, server process group or shm
    segment may outlive a workload, and the run's state dir goes away.
    Each check is one attempted operation; a leak is a failed one."""

    def __init__(self) -> None:
        self.shm_before = shm_names()
        self.groups: List[int] = []
        self.checks = 0
        self.leaks: List[str] = []

    def watch_group(self, pgid: int) -> None:
        self.groups.append(pgid)

    def check(self, run_dir: Optional[str] = None, settle_s: float = 3.0) -> None:
        """Wait up to ``settle_s`` for stragglers to go, then record what
        is left as leaks (and kill it, so a leak cannot steal a vCPU from
        the next run)."""
        deadline = time.monotonic() + settle_s
        while True:
            children = live_descendants()
            groups = [g for g in self.groups if group_alive(g)]
            segments = sorted(shm_names() - self.shm_before)
            if not (children or groups or segments) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        self.checks += 1
        for pid in children:
            self.leaks.append(f"child process {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # gone already, or a grandchild that init reaps
        for pgid in groups:
            self.leaks.append(f"process group {pgid}")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for name in segments:
            self.leaks.append(f"shm segment {name}")
        if run_dir is not None:
            remove_tree(run_dir)
            if os.path.exists(run_dir):
                self.leaks.append(f"state dir {run_dir}")

    @property
    def failed(self) -> int:
        return len(self.leaks)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def new_run_dir(workload: str, seed: int) -> str:
    path = os.path.join(RUNS_DIR, f"{workload}-{seed}-{os.getpid()}")
    remove_tree(path)
    os.makedirs(path)
    return path


# -- memory -----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- fresh-launch set-up ----------------------------------------------------------


def timed_launch(argv: Sequence[str], env: Dict[str, str], ready: str,
                 timeout: float = 120.0) -> float:
    """Seconds from spawning ``argv`` to its ``ready`` line; the process
    must then exit 0."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != ready or proc.returncode != 0:
        raise BenchError(
            f"set-up launch {argv[1:]} failed (rc={proc.returncode}): "
            f"{line.strip()!r} {err.strip()[-400:]}"
        )
    return elapsed


# -- spans and the layer ledger ---------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    A span has a name (its layer), start and end, and the span that caused
    it.  Spans opened in one thread nest automatically; a span opened on a
    client thread names its parent explicitly and carries a weight of
    1/threads, so concurrent client threads share their parent's interval
    instead of over-filling it.  When disabled every call is a no-op.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, weight: float = 1.0,
             **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = parent if parent is not None else (stack[-1] if stack else None)
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append({
                    "id": span_id, "parent": parent_id, "name": name,
                    "t0": started, "t1": ended, "weight": weight,
                    "thread": threading.get_ident(), **attrs,
                })

    def durations(self, name: str) -> List[float]:
        return [r["t1"] - r["t0"] for r in self.records if r["name"] == name]

    def ledger(self, wall_s: float) -> dict:
        """Self seconds per layer, their sum, and the residual against the
        measured wall.  A span's self time is its duration minus the
        weighted durations of its children."""
        covered: Dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] = covered.get(record["parent"], 0.0) + (
                    (record["t1"] - record["t0"]) * record["weight"]
                )
        weights = _effective_weights(self.records)
        layers: Dict[str, float] = {}
        for record in self.records:
            own = record["t1"] - record["t0"] - covered.get(record["id"], 0.0)
            layers[record["name"]] = (
                layers.get(record["name"], 0.0) + own * weights[record["id"]]
            )
        total = sum(layers.values())
        return {
            "wall_s": wall_s,
            "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
            "sum_s": total,
            "residual_s": wall_s - total,
        }

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as handle:
            json.dump(self.records, handle)


#: A recorder that records nothing, for untraced units.
NO_SPANS = Spans(enabled=False)


def _effective_weights(records: Iterable[dict]) -> Dict[int, float]:
    """A span's share of wall time: its own weight times its ancestors'."""
    by_id = {record["id"]: record for record in records}
    weights: Dict[int, float] = {}

    def weight(span_id: int) -> float:
        if span_id not in weights:
            record = by_id[span_id]
            parent = record["parent"]
            weights[span_id] = record["weight"] * (
                weight(parent) if parent in by_id else 1.0
            )
        return weights[span_id]

    for span_id in by_id:
        weight(span_id)
    return weights


def format_ledger(workload: str, ledger: dict, overhead: dict) -> str:
    wall = ledger["wall_s"]
    lines = [f"ledger {workload}: measured wall {wall:.3f} s"]
    for layer, seconds in ledger["layers"].items():
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:<28} {seconds:10.4f} s  {share:7.2%}")
    lines.append(f"  {'sum of layers':<28} {ledger['sum_s']:10.4f} s")
    lines.append(f"  {'residual (wall - sum)':<28} {ledger['residual_s']:10.4f} s")
    lines.append(
        f"  tracing overhead: traced unit {overhead['traced_s']:.4f} s - "
        f"untraced unit {overhead['untraced_s']:.4f} s = "
        f"{overhead['traced_s'] - overhead['untraced_s']:+.4f} s "
        f"({overhead['traced_units']} traced / {overhead['untraced_units']} "
        "untraced units)"
    )
    return "\n".join(lines)
