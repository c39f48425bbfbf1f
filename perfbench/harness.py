"""Measurement plumbing shared by the workloads: the run tally, span
recording, summary statistics and closed-loop child processes."""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass

now = time.perf_counter

# A few failure messages are kept for the report; the rest are only counted.
MAX_MESSAGES = 20


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    pass_index: int
    size: int        # graph size for two-size stages, 0 otherwise


class Recorder:
    """Wraps calls into swapsim. With tracing on, each wrapped call becomes a
    span kept in memory; with tracing off the call runs bare."""

    def __init__(self, workload: str, tracing: bool):
        self.workload = workload
        self.tracing = tracing
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.pass_index = 0

    def call(self, name: str, fn, *args, size: int = 0, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.pass_index, size)

    def self_times(self) -> dict[tuple[str, int], list[float]]:
        """Per (name, size): each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[tuple[str, int], list[float]] = {}
        for s, covered in zip(self.spans, child_time):
            out.setdefault((s.name, s.size), []).append(s.end - s.start - covered)
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace format: one complete ("X") event per span, in µs."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 0, "tid": 0,
            "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
            "args": {"workload": self.workload, "pass": s.pass_index,
                     "parent": s.parent, "size": s.size},
        } for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(events, fh)


class Tally:
    """Operations attempted and failed, timing samples, per-pass counts and
    the fingerprint of every simulated output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.traced_samples: dict[str, list[float]] = {}
        self.traced = False    # set while a traced pass runs
        self.counts: dict[str, float] = {}
        self.simulated: dict[str, float] = {}
        self.child_peak_kib = 0
        self._digest = hashlib.sha256()
        self.pass_digests: list[str] = []

    def op(self, ok: bool = True, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def check(self, label: str, violations: list[str]) -> bool:
        """One checked output: a failed operation if anything is violated."""
        return self.op(not violations, f"{label}: {'; '.join(violations[:3])}")

    def sample(self, name: str, seconds: float) -> None:
        """Timings of traced passes are kept apart from the end-to-end ones."""
        samples = self.traced_samples if self.traced else self.samples
        samples.setdefault(name, []).append(seconds)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def hash(self, label: str, data) -> None:
        if isinstance(data, str):
            data = data.encode()
        elif not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        self._digest.update(label.encode() + b"\0" + data + b"\0")

    def end_pass(self) -> None:
        """Every pass must reproduce the first pass's outputs exactly."""
        digest = self._digest.hexdigest()
        self._digest = hashlib.sha256()
        if self.pass_digests and digest != self.pass_digests[0]:
            self.fail(f"pass {len(self.pass_digests)} outputs differ from pass 0")
        self.pass_digests.append(digest)

    @property
    def fingerprint(self) -> str:
        return self.pass_digests[0] if self.pass_digests else ""


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def spawn(argv: list[str], cwd: str, env: dict | None = None) -> tuple[int, float, int, str]:
    """Run one child to completion: (exit code, wall seconds from spawn to
    exit, child peak RSS in KiB, stderr text)."""
    start = now()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, err.decode(errors="replace")


def capture(argv: list[str], cwd: str, env: dict | None = None,
            timeout: float = 120) -> tuple[int, float, str]:
    """Run one child to completion: (exit code, wall seconds, stdout text)."""
    start = now()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, now() - start, proc.stdout
