"""Benchmark of the topocorr CLI: time per workload pass, plus a per-layer trace.

    python3 perfbench/run.py --workload symmetric --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; topocorr is imported from its ``src/``.
Each workload (see ``workloads.py`` and README.md) is a chain and a list of
subcommands, all run in this process through ``topocorr.cli.main``; one run
of the list is a pass.  Passes repeat while the next one is expected to
end within ``--seconds`` of the run's start (at least one runs), and every
op (one subcommand invocation) is checked against the seed commit's
reference outputs (``check.py``).

The host's speed changes by up to 2x within a run, so units of a fixed
calibration kernel (``calibrate.py``) run before, during and after every
single-threaded op, and the op's wall time is scaled to the kernel's
reference speed; the disorder sweep, which runs worker threads, keeps its
wall time.  ``--trace 0`` reports the end-to-end metrics: ``pass_s``, the
time of a pass as the sum over its subcommands of each one's median op
time, and ``setup_s``, the median scaled time for a fresh interpreter to
import ``topocorr.cli`` and make its first LAPACK calls.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(``spans.py``), the per-subcommand times of the untraced passes, the
unscaled pass time, the kernel unit time and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine.  The full record, with every op and, when traced, every span, goes
to ``perfbench/results/``.  Exit code 0 when every op passed its check, 1
when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import yaml

from workloads import (
    BENCH_DIR, BLAS_THREADS, ROOT, WORKLOADS, Op, import_topocorr, nproc, pin_threads,
    run_op, sweep_threads, write_config,
)

COMMANDS = ("spectrum", "winding", "correlations", "disorder", "validate")
SETUP_REPEATS = 7
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import topocorr.cli
from topocorr.greensvd import svd_at
from topocorr.models import ModelIParams, build_model_i, dynamical_matrix, is_dynamically_stable
h = dynamical_matrix(build_model_i(ModelIParams(n_sites=8, gamma=5.0)))
is_dynamically_stable(h)
svd_at(h, 0.0)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibrate import Calibrator
cal = Calibrator()
units = [cal.measure() for _ in range(3)]
print(setup, sorted(units)[1])
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info(seed: int, pinned: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(), "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "thread_env": pinned,
        "sweep_threads": sweep_threads(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        "platform": platform.platform(), "seed": seed,
    }


def measure_setup() -> list[tuple[float, float]]:
    """(set-up time, mean kernel unit time right after it) of fresh interpreters.

    The thread pins are inherited.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                               str(BENCH_DIR)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup, unit = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(unit)))
    return times


def run_pass(cli, workload, config, work_dir, reference, tag, tracer=None, calibrator=None):
    """One pass over the workload's subcommands; checks each op after it ran.

    With a tracer, every op but ``validate`` runs inside a traced op span
    (lindblad, analytics and validate are not metered separately).  With a
    calibrator, kernel units run right before and right after each op and,
    in an untraced pass, during it (``Calibrator.sampling``); the op's wall
    time then excludes the units run during it, and its scaled time is set
    from all of them.  A traced pass is not sampled, so that no unit's time
    falls inside a layer span.  Without a calibrator the scaled time is the
    wall time.
    """
    import check  # numpy loads only after pin_threads()

    cfg = yaml.safe_load(config.read_text())
    ops = []
    for cmd in workload.commands:
        span = tracer.op(f"{tag}:{cmd}") if tracer and cmd != "validate" else None
        in_op: list[float] = []
        if calibrator and not tracer:
            span = calibrator.sampling(in_op)
        before = calibrator.measure() if calibrator else None
        op = run_op(cli, cmd, config, work_dir, span)
        if calibrator:
            op.seconds -= sum(in_op)
            op.scaled_s = calibrator.scaled(op.seconds, [before, *in_op, calibrator.measure()])
        else:
            op.scaled_s = op.seconds
        op.bytes_written = check.bytes_written(op.out_dir)
        if reference is not None and op.rc == 0 and not op.error:
            got = check.extract(cmd, op.out_dir, op.stdout)
            ref = reference[cmd]
            op.files_identical = sum(got["files"].get(f) == h for f, h in ref["files"].items())
            op.misses = tuple(check.compare(got, ref, cfg, workload.sv_floor))
        for miss in op.misses:
            print(f"{workload.name} {cmd}: {miss}", file=sys.stderr)
        ops.append(op)
    return ops


def pass_seconds(ops: list[Op]) -> float:
    return sum(op.scaled_s for op in ops)


def cmd_median(passes: list[list[Op]], cmd: str, attr: str = "scaled_s") -> float:
    """Median scaled (or wall) time of ``cmd`` over passes; 0 if it was not run."""
    return median([getattr(op, attr) for ops in passes for op in ops if op.cmd == cmd])


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def median(values):
    return statistics.median(values) if values else 0.0


def measure(topocorr, workload, seed, seconds, trace, reference):
    """Run passes of ``workload`` for about ``seconds`` of wall time.

    Returns the result object, the per-op record and the tracer.  With
    ``reference=None`` outputs are not compared (only exit codes count).
    """
    import spans
    from calibrate import REFERENCE_S, Calibrator

    work_dir = BENCH_DIR / "out" / f"{workload.name}-{seed}"
    smoke = workload.smoke()
    setup = [] if trace else measure_setup()
    # Warm the imports and first LAPACK calls this process makes, untimed.
    run_pass(topocorr.cli, smoke, write_config(smoke, seed, work_dir / "warm"),
             work_dir / "warm", None, "warm")

    config = write_config(workload, seed, work_dir)
    untraced, traced = [], []
    tracer = spans.Tracer()
    # The disorder sweep runs worker threads on both vCPUs, which averages
    # their states.  A unit in the main thread would compete with the
    # workers, and scaling by units run around the sweep made its spread
    # worse (README), so its ops keep their wall time.
    calibrator = None if "disorder" in workload.commands else Calibrator()
    # Start another round only if it is expected to end within ``seconds``.
    t_start, rounds_s = time.perf_counter(), []
    while not rounds_s or time.perf_counter() - t_start + median(rounds_s) <= seconds:
        t_round = time.perf_counter()
        untraced.append(run_pass(topocorr.cli, workload, config, work_dir, reference,
                                 f"p{len(untraced)}", calibrator=calibrator))
        if trace:
            tag = f"t{len(traced)}"
            with tracer.installed():
                ops = run_pass(topocorr.cli, workload, config, work_dir,
                               reference, tag, tracer, calibrator)
            traced.append((tag, ops))
        rounds_s.append(time.perf_counter() - t_round)

    all_ops = [op for ops in untraced for op in ops] + [op for _, ops in traced for op in ops]
    failed = sum(op.failed for op in all_ops)
    untraced_s = [pass_seconds(ops) for ops in untraced]
    if trace:
        per_pass = [spans.layer_metrics([s for s in tracer.spans if s.op.startswith(tag + ":")])
                    for tag, _ in traced]
        metrics = {name: metric(median([m[name] for m in per_pass]), unit)
                   for name, unit in spans.UNITS.items()}
        metrics["cli.bytes_written"] = metric(
            median([sum(op.bytes_written for op in ops) for ops in untraced]), "bytes")
        metrics["cli.files_identical"] = metric(
            median([sum(op.files_identical for op in ops) for ops in untraced]), "count")
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = metric(cmd_median(untraced, cmd), "s")
        metrics["pass_wall_s"] = metric(
            sum(cmd_median(untraced, cmd, "seconds") for cmd in workload.commands), "s")
        metrics["calibration.unit_ms"] = metric(
            calibrator.median_ms() if calibrator else 0.0, "ms")
        metrics["error_rate"] = metric(failed / len(all_ops), "frac")
        metrics["trace.overhead_frac"] = metric(
            median([pass_seconds(ops) for _, ops in traced]) / median(untraced_s) - 1, "frac")
    else:
        pass_s = sum(cmd_median(untraced, cmd) for cmd in workload.commands)
        setup_s = median([s * REFERENCE_S / u for s, u in setup])
        metrics = {"pass_s": metric(pass_s, "s"), "setup_s": metric(setup_s, "s")}

    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload.name, "config": workload.config(seed), "seconds": seconds,
        "trace": trace, "setup_and_unit_s": setup, "pass_s": untraced_s,
        "unit_s": calibrator.samples if calibrator else [],
        "ops": [{"pass": i, "cmd": op.cmd, "seconds": op.seconds, "scaled_s": op.scaled_s,
                 "rc": op.rc,
                 "error": op.error, "misses": list(op.misses), "bytes": op.bytes_written,
                 "files_identical": op.files_identical}
                for i, ops in enumerate(untraced + [ops for _, ops in traced])
                for op in ops],
        "result": result,
    }
    return result, record, tracer


def write_results(stem: str, record: dict, tracer) -> None:
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer.spans:
        t_start = min(s.t0 for s in tracer.spans)
        (results_dir / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["sid", "parent", "name", "op", "t0_s", "t1_s", "error", "note"],
            "spans": [[s.sid, s.parent, s.name, s.op, s.t0 - t_start, s.t1 - t_start,
                       s.error, s.note] for s in tracer.spans],
        }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_threads()
    try:
        topocorr = import_topocorr()
    except ImportError as exc:
        print(f"cannot import topocorr from this checkout: {exc}", file=sys.stderr)
        return 2
    import check

    workload = WORKLOADS[args.workload]
    key = workload.reference_key(args.seed)
    try:
        reference = check.load_reference(BENCH_DIR / "reference", workload.name, key)
    except (OSError, KeyError) as exc:
        print(f"no reference outputs for {workload.name} key {key}: {exc!r}", file=sys.stderr)
        return 2

    result, record, tracer = measure(topocorr, workload, args.seed, args.seconds,
                                     args.trace, reference)
    machine = machine_info(args.seed, pinned)
    record.update(machine=machine, reference_key=key)
    write_results(f"{workload.name}-seed{args.seed}-trace{args.trace}", record, tracer)
    print("# machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
