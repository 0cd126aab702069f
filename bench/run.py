"""qnichols benchmark: pinned workloads, end-to-end metrics, and a traced run
that gives per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the source under
``src/`` and needs nothing beyond the standard library.  It prints one JSON
line describing the run (seed, interpreter, commit, CPU count, load) and, as
the last line, the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  METRICS.md defines every metric.

The untraced run repeats the workload's batch until ``--seconds`` have
passed.  CLI workloads run ``python -m qnichols.cli`` once per operation,
one child process at a time.  The traced run is in-process: it times one
batch untraced, the same batch with every layer wrapped, and the batch
untraced again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from spans import Tracer
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
TRACED_SWEEPS = 10
RUN_LIMIT_S = 165  # the whole run, set-up included, must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "output_bytes": "bytes",
    "setup_s": "s",
}


def spawn(argv: list[str], err_path: Path, timeout: float) -> tuple[float, int, int, bytes, str]:
    """Run one child to completion, reading its stdout from a pipe:
    (seconds, exit code, max RSS in KiB, stdout, end of stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss, out, err_path.read_text(errors="replace")[-500:]


def setup_seconds(name: str, seed: int, workdir: Path, deadline: float) -> float:
    """Median wall time of fresh interpreters that import qnichols and make
    the workload's inputs, stopping before the first operation."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"]
    times = []
    for k in range(SETUP_PROBES):
        seconds, code, _, _, err = spawn(probe, workdir / "probe.err", deadline - time.monotonic())
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}: {err}")
        times.append(seconds)
    return statistics.median(times)


def end_to_end(batches, latencies, rss_kib, out_bytes, setup_s) -> dict[str, float]:
    return {
        "wall_s": statistics.median(batches),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": rss_kib / 1024,
        "output_bytes": out_bytes / len(latencies),
        "setup_s": setup_s,
    }


class Run:
    """Operation tallies shared by every kind of run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []

    def summary(self) -> dict:
        """Sample count and, with ten samples beyond it, the p90 latency."""
        out: dict = {"ops_timed": len(self.latencies), "problems": self.problems}
        if len(self.latencies) >= 100:
            p90 = statistics.quantiles(self.latencies, n=10, method="inclusive")[8]
            out["op_p90_ms"] = 1000 * p90
        return out

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(problems[:2])


def cli_timed(workload, seed, seconds, workdir, deadline, run: Run) -> dict[str, float]:
    argv = workload.prepare(seed, workdir)
    setup_s = setup_seconds(workload.name, seed, workdir, deadline)
    cmd = [sys.executable, "-m", "qnichols.cli", *argv]
    reference = None
    latencies, out_bytes, rss = [], 0, 0
    start = time.monotonic()
    while True:
        elapsed, code, rss_kib, data, err = spawn(cmd, workdir / "op.err", deadline - time.monotonic())
        latencies.append(elapsed)
        out_bytes += len(data)
        rss = max(rss, rss_kib)
        if code != 0:
            problems = [f"exit {code}: {err.strip()}"]
        elif reference is None:
            problems = checked(workload.check, data)
            if not problems:
                reference = data
        else:
            problems = [] if data == reference else ["stdout differs between operations"]
        run.record(problems)
        now = time.monotonic()
        if now - start >= seconds or now + 1.5 * elapsed > deadline:
            break
    run.latencies = latencies
    return end_to_end(latencies, latencies, rss, out_bytes, setup_s)


def checked(check, *args) -> list[str]:
    """Run a correctness check; output it cannot parse counts as wrong."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def envelope_sweep(ops, run: Run) -> tuple[float, list[float], int]:
    """Run one sweep; (wall seconds, per-operation latencies, output bytes)."""
    results, latencies = [], []
    start = time.perf_counter()
    for kind, args, _ in ops:
        t = time.perf_counter()
        try:
            result, text = workloads.Envelopes.run(kind, args)
        except Exception as exc:  # one failed operation must not end the run
            result, text = exc, ""
        latencies.append(time.perf_counter() - t)
        results.append((result, len(text.encode())))
    wall = time.perf_counter() - start
    for (kind, args, expected), (result, _) in zip(ops, results):
        if isinstance(result, Exception):
            run.record([f"{kind} raised {result!r}"])
        else:
            run.record(checked(workloads.Envelopes.check, kind, args, expected, result))
    return wall, latencies, sum(n for _, n in results)


def envelopes_timed(seed, seconds, workdir, deadline, run: Run) -> dict[str, float]:
    setup_s = setup_seconds(workloads.Envelopes.name, seed, workdir, deadline)
    bench = workloads.Envelopes(seed)
    walls, latencies, out_bytes = [], [], 0
    start = time.monotonic()
    while True:
        wall, lats, nbytes = envelope_sweep(bench.sweep(), run)
        walls.append(wall)
        latencies += lats
        out_bytes += nbytes
        now = time.monotonic()
        if now - start >= seconds or now + 2 * wall > deadline:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.latencies = latencies
    return end_to_end(walls, latencies, rss, out_bytes, setup_s)


class Sink(io.TextIOBase):
    """Stand-in for stdout: counts and hashes UTF-8 bytes, optionally keeps the text."""

    def __init__(self, keep: bool):
        self.nbytes = 0
        self.digest = hashlib.sha256()
        self.chunks: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.nbytes += len(data)
        self.digest.update(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)


def traced(name, seed, workdir, run: Run) -> dict[str, float]:
    """The batch untraced, traced, then untraced again, all in-process.  The
    tracing overhead is the traced time minus the mean untraced time."""
    from layers import per_layer_metrics, traced_layers

    from qnichols import cli

    tracer = Tracer()
    if name == workloads.Envelopes.name:
        bench = workloads.Envelopes(seed)
        sweeps = [bench.sweep() for _ in range(TRACED_SWEEPS)]

        def batch(main):
            for ops in sweeps:
                envelope_sweep(ops, run)

    else:
        workload = workloads.CLI_WORKLOADS[name]
        argv = workload.prepare(seed, workdir)
        digests: list[bytes] = []

        def batch(main):
            sink = Sink(keep=not digests)
            try:
                with contextlib.redirect_stdout(sink):
                    code = main(argv)
            except Exception as exc:  # what a child process would report with exit 1
                code = repr(exc)
            digest = sink.digest.digest()
            if code != 0:
                problems = [f"cli.main returned {code}"]
            elif not digests:
                problems = checked(workload.check, "".join(sink.chunks).encode())
            else:
                problems = [] if digest == digests[0] else ["stdout differs between passes"]
            run.record(problems)
            digests.append(digest)
            tracer.counts["cli.output_bytes"] = sink.nbytes

    def timed(main) -> float:
        start = time.perf_counter()
        batch(main)
        return time.perf_counter() - start

    before = timed(cli.main)
    with traced_layers(tracer):
        traced_s = timed(tracer.wrap("cli.main", cli.main))
    untraced_s = (before + timed(cli.main)) / 2
    metrics = per_layer_metrics(tracer)
    metrics["bench.untraced_s"] = untraced_s
    metrics["bench.traced_s"] = traced_s
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    return metrics


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, to identify a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qnichols").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qnichols" / "cli.py").is_file():
        print(f"no qnichols sources under {SRC}: run the benchmark inside a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path.insert(0, str(SRC))
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            import qnichols.cli  # noqa: F401  (interpreter start plus every layer)

            if args.workload == workloads.Envelopes.name:
                workloads.Envelopes(args.seed).sweep()
            else:
                workloads.CLI_WORKLOADS[args.workload].prepare(args.seed, workdir)
            return 0
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seed_effect": workloads.SEED_NOTES[args.workload],
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "commit": commit(),
            "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
        }
        run = Run()
        if args.trace:
            metrics = traced(args.workload, args.seed, workdir, run)
        elif args.workload == workloads.Envelopes.name:
            metrics = envelopes_timed(args.seed, args.seconds, workdir, deadline, run)
        else:
            workload = workloads.CLI_WORKLOADS[args.workload]
            metrics = cli_timed(workload, args.seed, args.seconds, workdir, deadline, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    context.update(run.summary())
    print(json.dumps(context, sort_keys=True))
    units = dict(PER_LAYER) if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match the list")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
