"""The repository benchmark: four closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sql-train-dense --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``perfbench/README.md``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes (the serve state
directory, temporary block files, the span dump) stays under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def child_pids() -> list[int]:
    """Pids of this process's children, exited-but-unreaped ones included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap(pid: int) -> None:
    """SIGTERM a child, SIGKILL it after 10 s, and wait for it."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + 10
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Hopper workers are joined by the program, but ``spawn`` also starts the
    multiprocessing resource tracker, which would otherwise outlive this
    process by design.  It ends once every holder of its pipe has closed it,
    so the workers go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()  # run the finalizers of semaphores the workload dropped
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid != tracker._pid:
            reap(pid)
    tracker._stop()  # closes its pipe, then waits for it to exit


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    run_dir = work / f"run-{os.getpid()}-{time.monotonic_ns()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    # Keep every temporary file the program makes (block files, spawn
    # bookkeeping) inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    # Interpreter and library import stay outside setup_s.
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"one of {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, run_dir)
    try:
        values = wl.run(args.seconds, traced=bool(args.trace))
        units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
        if args.trace:
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            dump = traces / f"{args.workload}-seed{args.seed}.json"
            if wl.tracer is not None:
                wl.tracer.dump(dump)
            elif getattr(wl, "daemon_trace", None) is not None:
                dump.write_bytes(wl.daemon_trace.read_bytes())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rec = wl.rec
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {wl.rounds}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>14.6g} {unit:6s} n={wl.samples.get(name, 0)}")
    reads, writes = len(rec.lat["read"]), len(rec.lat["write"])
    print(
        f"  samples: train {len(rec.train_walls)}  read {reads} "
        f"({max(0, int(reads * 0.01))} beyond p99)  write {writes} "
        f"({max(0, int(writes * 0.01))} beyond p99)"
    )
    for label, xs in (("train_wall", rec.train_walls), ("read", rec.lat["read"]),
                      ("write", rec.lat["write"])):
        if xs:
            qs = " ".join(
                f"p{int(q * 100)}={workloads.quantile(xs, q) * 1e3:.4g}"
                for q in (0.05, 0.1, 0.25, 0.5, 0.9, 0.99)
            )
            print(f"  quantiles_ms {label}: {qs}")
    for name in getattr(wl, "missing", []):
        print(f"  not traced (absent from the program): {name}")
    for err in rec.errors:
        print(f"  error: {err}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
