"""Regenerate the reference outputs in perfbench/reference/ from this checkout.

    python3 perfbench/make_reference.py [--workload NAME ...]

References record what the seed commit computed; a later commit is checked
against them, so regenerate them only when a documented change of output
(with its tolerance argued in CHANGES.md) is accepted.  The disorder
workload stores one reference per disorder key (``--seed`` modulo
``N_DISORDER_KEYS``); it takes about 8 s per key on a 2-core machine.
"""

from __future__ import annotations

import argparse
import sys

from workloads import BENCH_DIR, N_DISORDER_KEYS, WORKLOADS, import_topocorr, pin_threads, write_config


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    pin_threads()
    topocorr = import_topocorr()
    import check
    from run import run_pass

    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = range(N_DISORDER_KEYS) if workload.reference_key(0) != "fixed" else [0]
        refs = {}
        for seed in seeds:
            work_dir = BENCH_DIR / "out" / f"reference-{name}"
            config = write_config(workload, seed, work_dir)
            ops = run_pass(topocorr.cli, workload, config, work_dir, None, "ref")
            bad = [op.cmd for op in ops if op.failed]
            if bad:
                print(f"{name} seed {seed}: {bad} failed at this commit", file=sys.stderr)
                return 1
            refs[workload.reference_key(seed)] = {
                op.cmd: check.extract(op.cmd, op.out_dir, op.stdout) for op in ops}
            print(f"{name} key {workload.reference_key(seed)}: "
                  f"{sum(op.seconds for op in ops):.2f} s", flush=True)
        check.save_references(BENCH_DIR / "reference", name, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
