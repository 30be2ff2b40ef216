"""Self-test of the benchmark at smoke sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
pins the route counters the workloads were chosen for, and checks that the
correctness gate flags outputs moved beyond their tolerance.  Exit code 0
when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS, import_topocorr, pin_threads


def route_pins(name: str, m: dict, workload) -> list[str]:
    """Which route counters contradict what the workload is for."""
    v = {k: val["value"] for k, val in m.items()}
    topology = [k for k in v if k.startswith("topology.")]
    pins = {
        # every SVD of the symmetric chain goes through the bidiagonal channels
        "symmetric": {
            "dense route unused": v["greensvd.dense.calls"] == 0,
            "det refinement unused": v["greensvd.refine_det.calls"] == 0,
            "channel route used": v["greensvd.channel.calls"] >= v["greensvd.svd_at.calls"] > 0,
            "quadrature nodes on the channel route": v["correlations.quad.nodes"] > 0,
            "winding scanned": v["topology.bloch_det.calls"] > 0,
        },
        # no channel structure: every SVD is dense
        "dimer": {
            "channel route unused": v["greensvd.channel.calls"] == 0,
            "inverse refinement unused": v["greensvd.refine_inverse.calls"] == 0,
            "dense route used": v["greensvd.dense.calls"] >= v["greensvd.svd_at.calls"] > 0,
            "winding scanned": v["topology.bloch_det.calls"] > 0,
        },
        # Realizations at W = 0 equal the clean chain and take the channel
        # route, as does the clean chain's gap (once per disorder op); every
        # stable realization at W > 0 takes one dense SVD.
        "disorder": {
            "no topology": all(v[k] == 0 for k in topology),
            "no quadrature": v["correlations.quad.nodes"] == 0,
            "realizations drawn": v["disorder.realizations"] == workload.n_r * workload.w_count,
            "channel route only for clean chains": v["greensvd.channel.calls"]
            == 1 + workload.n_r,
            "dense SVD per stable realization at W > 0": v["greensvd.dense.calls"]
            == v["disorder.realizations"] - v["disorder.unstable"] - workload.n_r,
        },
    }[name]
    return [f"{name}: pin failed: {pin}" for pin, ok in pins.items() if not ok]


def _scale_singular_values(r):
    r["arrays"]["spectrum_obc.csv:singular_value"] *= 1 + 1e-6


def _change_winding(r):
    r["json"]["winding.json"]["nus"][1] += 1


def _scale_equal_time(r):
    r["arrays"]["equal_time_nbar.csv:re"] *= 1 + 1e-4


def _add_unstable(r):
    r["arrays"]["disorder_sweep.csv:n_unstable"] += 1


MOVES = (
    ("symmetric", "fixed", "spectrum", _scale_singular_values),
    ("symmetric", "fixed", "winding", _change_winding),
    ("dimer", "fixed", "correlations", _scale_equal_time),
    ("disorder", "0", "disorder", _add_unstable),
)


def gate_flags_moved_outputs(check) -> list[str]:
    """The stored references pass against themselves and fail when moved."""
    errors = []
    for name, key, cmd, move in MOVES:
        workload = WORKLOADS[name]
        cfg = workload.config(0)
        ref = check.load_reference(BENCH_DIR / "reference", name, key)[cmd]
        if check.compare(ref, ref, cfg, workload.sv_floor):
            errors.append(f"{name} {cmd}: reference does not pass against itself")
        moved = copy.deepcopy(ref)
        move(moved)
        if not check.compare(moved, ref, cfg, workload.sv_floor):
            errors.append(f"{name} {cmd}: {move.__name__} was not flagged")
    return errors


def main() -> int:
    pin_threads()
    topocorr = import_topocorr()
    import check
    from run import measure

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = gate_flags_moved_outputs(check)
    for trace, section in ((1, "per_layer"), (0, "end_to_end")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for name in (sorted(WORKLOADS) if trace else ["symmetric"]):
            smoke = WORKLOADS[name].smoke()
            result, _, _ = measure(topocorr, smoke, 0, 0.0, trace, None)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                              f"or their units differ from BENCHMARK.json")
            if result["failed"]:
                errors.append(f"{name} trace {trace}: {result['failed']} ops failed")
            if trace:
                errors += route_pins(name, result["metrics"], smoke)
                print(f"{name}: " + json.dumps({k: v["value"] for k, v in
                                                result["metrics"].items()}), flush=True)
    for err in errors:
        print(err, file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
