"""One cold set-up of ymft, as a fresh CLI process pays it.

Usage: python3 perfbench/setup_probe.py <config.json> <jet degree>

Imports the CLI (which imports every ymft layer), loads the config, builds
the deformation family and theory variant, runs the constraint gate and
builds the jet tables, then prints one JSON line with the time of each
phase.  The parent times the process from spawn to that line.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ymft import cli, deformations, jets  # noqa: E402

phases = {"import_s": time.perf_counter() - start}

t = time.perf_counter()
config = cli.load_config(sys.argv[1])
phases["load_config_s"] = time.perf_counter() - t

build_s = gate_s = 0.0
if "deformation" in config.raw:
    t = time.perf_counter()
    ds = config.deformation()
    build_s = time.perf_counter() - t
    t = time.perf_counter()
    gate = deformations.check_all_relations(
        ds, config.tolerances["constraints"])
    gate_s = time.perf_counter() - t
    if not gate.passed:
        sys.exit("constraint gate failed")
    t = time.perf_counter()
    config.variant()
    build_s += time.perf_counter() - t
phases["build_s"] = build_s
phases["check_all_relations_s"] = gate_s

t = time.perf_counter()
jets.jet_algebra(int(sys.argv[2]))
phases["jet_algebra_s"] = time.perf_counter() - t

print(json.dumps(phases), flush=True)
