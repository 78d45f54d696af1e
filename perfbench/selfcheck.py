"""Fast self-check of the benchmark at toy size (about half a minute).

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs every workload with ``--toy``, untraced and traced, and checks that
each run passes its own correctness checks, emits exactly the end-to-end or
per-layer metrics that BENCHMARK.json names with the units it names, and
that the strength solve is bypassed where it must be.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# workloads that must never assemble or invert Y
NO_Y_SOLVE = {"e-only-d5"}


def require(condition: bool, message: str):
    # a plain check rather than assert, so it also runs under python -O
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    require(proc.returncode == 0 and bool(lines),
            f"{workload} trace {trace} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def check_metrics(result: dict, declared: list, where: str):
    require(result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1, f"{where}: {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, f"{where}: metrics {got} != declared {want}")
    for name, metric in result["metrics"].items():
        require(isinstance(metric["value"], (int, float)), f"{where}: {name}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        check_metrics(run(workload, 0), spec["end_to_end"],
                      f"{workload} trace 0")
        traced = run(workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} trace 1")
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        for counter in ("strengths.assemble_Y.calls",
                        "strengths.invert_Y.calls"):
            expect_zero = workload in NO_Y_SOLVE
            require((layers[counter] == 0) == expect_zero,
                    f"{workload}: {counter} = {layers[counter]}")
        print(f"ok {workload}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
