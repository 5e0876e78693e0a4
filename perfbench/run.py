"""Benchmark of the qube package: one workload per run, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

The run imports ``qube`` from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, runs each op once and checks every op's
output.  ``--seconds`` sets the size of the input set, so that a run takes
about that long on the machine the rates were taken on.

After each op the run spends a fifth of the op's time on a fixed reference
workload (see ``reference.py``).  Every reported time is the measured time
divided by the slowdown the reference saw around it, which removes most of
the drift in machine speed that a shared VM shows from minute to minute.
The raw times and the mean slowdown are printed to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
leading 40% of the input set once untraced and once with every public
qube function wrapped by the span tracer, and reports the per-layer
metrics; the spans go to ``.bench_out/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's provenance.  A readable report goes to stderr.

Scratch files live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
from reference import SHARE, Speed
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_SHARE = 0.4  # leading share of the input set that a --trace 1 run uses
QUBE_MODULES = ("cli", "cycles", "squares", "hypercube", "enumeration", "graphs", "independence")


def import_qube() -> SimpleNamespace:
    """Import qube afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "qube" or m.startswith("qube.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qube
    import qube.cli

    if Path(qube.__file__).resolve().parent != (SRC / "qube").resolve():
        raise ImportError(f"qube was imported from {qube.__file__}, not from {SRC}")
    return SimpleNamespace(
        version=qube.__version__,
        **{name: sys.modules[f"qube.{name}"] for name in QUBE_MODULES},
    )


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    items: int = 0
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)

    @property
    def raw_wall_s(self) -> float:
        """Time spent in ops, without the output checks."""
        return sum(self.latencies)

    def normalized(self) -> list[float]:
        """Each op's latency divided by the machine's slowdown around it."""
        return [t / self.speed.local_slowdown(i) for i, t in enumerate(self.latencies)]

    @property
    def wall_s(self) -> float:
        return sum(self.normalized())


def run_pass(workload, q, ops, tracer: Tracer | None = None) -> Pass:
    """Run and check each op once, each followed by reference units.  Only
    the ops are timed, not the checks."""
    result = Pass()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        start = time.perf_counter()
        try:
            out, error = workload.run(q, op), None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        latency = time.perf_counter() - start
        result.latencies.append(latency)
        result.speed.sample(latency)
        if error is not None:
            result.failures.append((op.id, [f"raised {type(error).__name__}: {error}"]))
            continue
        try:
            items, problems = workload.check(op, out)
        except Exception as exc:  # malformed output fails the check
            items, problems = 0, [f"check raised {type(exc).__name__}: {exc}"]
        result.items += items
        if problems:
            result.failures.append((op.id, problems))
    return result


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    cwd = os.getcwd()
    try:
        # Every set-up writes the same files.  Creating a file costs about
        # 0.4 ms on the ext4 disk of a shared 2-core VM and varies with other
        # tenants' disk load, so only the first set-up pays for creating
        # them and the median measures writing them.
        setup_times, setup_speed = [], Speed()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            q = import_qube()
            workdir.mkdir(parents=True, exist_ok=True)
            ops = workload.build(args.seed, args.seconds / (1 + SHARE), workdir)
            setup_times.append(time.perf_counter() - start)
            setup_speed.sample(setup_times[-1])
        # CLI commands may write files (a square-free cycle found by
        # ``verify`` is appended to a file in the working directory)
        os.chdir(workdir)
        if args.trace:
            # untraced and traced, so a smaller part keeps the run near --seconds
            ops = ops[: max(1, round(len(ops) * TRACE_SHARE))]
            plain = run_pass(workload, q, ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(workload, q, ops, tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            cycles = traced.items if workload.items_are_cycles else 0
            metrics = per_layer(tracer, ops, cycles, traced.wall_s / plain.wall_s)
            units = PER_LAYER
        else:
            timed = run_pass(workload, q, ops)
            passes = [timed]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup = statistics.median(t / setup_speed.local_slowdown(i)
                                      for i, t in enumerate(setup_times))
            metrics = end_to_end(setup, timed.normalized(), timed.items, rss_mb)
            units = END_TO_END
    except ImportError as exc:
        print(f"error: cannot import qube from {SRC}: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"))

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for op_id, problems in failures[:20]:
        print(f"FAILED {op_id}: {'; '.join(problems)}", file=sys.stderr)
    samples = len(ops)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"failed_ratio {len(failures) / attempted:.4f}, raw op time "
          + ", ".join(f"{p.raw_wall_s:.3f} s at slowdown {p.speed.slowdown:.3f}" for p in passes),
          file=sys.stderr)
    for name, value in metrics.items():
        note = f"  ({samples} ops)" if name.startswith("op_p") else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}", file=sys.stderr)

    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "raw_op_seconds": [p.raw_wall_s for p in passes],
        "slowdown": [p.speed.slowdown for p in passes],
        "qube_version": q.version,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
