"""ymft benchmark: time-to-verdict per seed, with a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload su2-massive-d4 --seed 1 \
        --seconds 30 --trace 0

Each run generates its workload's config and jet seeds from ``--seed``,
times a cold set-up in fresh processes, half of them before the ops and half
after, and runs ops (CLI calls, see workloads.py) back to back, a closed loop
with one client, until ``--seconds`` have passed.  Every op's report is checked; the run exits 1
if any op failed.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See perfbench/README.md for what each metric means.
"""

import os

# One BLAS thread, set before numpy loads, on every commit measured.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# fresh-process set-ups per run; the median is setup_s
SETUP_REPEATS = 15
TOY_SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "seed_s.p50": "s",
    "seed_s.tail": "s",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; op-level numbers are per op (one jet seed)
PER_LAYER_UNITS = {
    "jets.mul.calls": "count/op",
    "jets.mul.self_s": "s/op",
    "jets.mul.flops": "flop/op",
    "jets.mul.bytes": "B/op",
    "jets.mul.useful_frac": "ratio",
    "jets.diff.self_s": "s/op",
    "jets.jet_algebra.s": "s",
    "forms.wedge.calls": "count/op",
    "forms.wedge.self_s": "s/op",
    "forms.d.self_s": "s/op",
    "forms.hodge.self_s": "s/op",
    "strengths.assemble_Y.calls": "count/op",
    "strengths.assemble_Y.self_s": "s/op",
    "strengths.assemble_Y.total_s": "s/op",
    "strengths.invert_Y.calls": "count/op",
    "strengths.invert_Y.self_s": "s/op",
    "strengths.invert_Y.total_s": "s/op",
    "strengths.ring_matmul.calls": "count/op",
    "strengths.ring_matmul.total_s": "s/op",
    "strengths.ring_matvec.calls": "count/op",
    "strengths.ring_matvec.total_s": "s/op",
    "strengths.compute_strengths.calls": "count/op",
    "strengths.y_solves_per_seed": "count/seed",
    "dynamics.check.gauge-invariance.s": "s/op",
    "dynamics.check.noether.s": "s/op",
    "dynamics.check.strength-identities.s": "s/op",
    "dynamics.check.commutators.s": "s/op",
    "dynamics.check.linearization.s": "s/op",
    "dynamics.check.euler-lagrange.s": "s/op",
    "dynamics.check.strength-transformation.s": "s/op",
    "dynamics.generic_field_equations.total_s": "s/op",
    "dynamics.field_equations.calls": "count/op",
    "dynamics.lagrangian_form.calls": "count/op",
    "dynamics.gauge_variation.calls": "count/op",
    "config.load_config.s": "s",
    "deformations.build.s": "s",
    "deformations.check_all_relations.s": "s",
    "setup.import_s": "s",
    "observables.charge_surface.s": "s/op",
    "observables.energy_causality_check.s": "s/op",
    "observables.stress_energy.s": "s/op",
}

# setup_probe.py phase -> per-layer metric
SETUP_PHASES = {
    "import_s": "setup.import_s",
    "load_config_s": "config.load_config.s",
    "build_s": "deformations.build.s",
    "check_all_relations_s": "deformations.check_all_relations.s",
    "jet_algebra_s": "jets.jet_algebra.s",
}


@dataclass
class Op:
    jet_seed: int
    seconds: float
    problems: list
    max_residual: float
    report: str


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="benchmark seed: generates config and jet seeds")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end")
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs, for selfcheck.py")
    return parser.parse_args(argv)


def setup_once(config_path: Path, degree: int) -> dict:
    """Spawn a fresh process and time it up to its first ready op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config_path),
         str(degree)], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    phases = json.loads(line)
    phases["setup_s"] = ready
    return phases


def run_op(workload, cli, config_paths: list, jet_seed: int) -> Op:
    start = time.perf_counter()
    results = workload.op(cli, config_paths, jet_seed)
    elapsed = time.perf_counter() - start
    problems, worst = workload.verdict(results)
    return Op(jet_seed, elapsed, problems, worst,
              "".join(text for _, text, _ in results))


def run_for(workload, cli, config_paths: list, seconds: float,
            min_ops: int = 1) -> tuple:
    """Ops back to back for ``seconds``: at least ``min_ops``, and no
    further op once an op of the mean length so far would end past the
    deadline, so long ops do not double a run's length."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(workload, cli, config_paths,
                          workload.next_jet_seed()))
        elapsed = time.perf_counter() - start
        if (len(ops) >= min_ops
                and elapsed * (len(ops) + 1) / len(ops) > seconds):
            return ops, elapsed


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer no percentile qualifies and the maximum is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(ops: list, wall: float, setups: list) -> tuple:
    times = [op.seconds for op in ops]
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "seed_s.p50": statistics.median(times),
        "seed_s.tail": tail_value,
        "seeds_per_s": len(ops) / wall,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops": len(ops), "tail_percentile": tail_pct,
              "tail_samples_beyond": beyond, "seed_s": times}
    return metrics, detail


def traced(workload, cli, config_paths: list, seconds: float) -> tuple:
    """Untraced ops for half the time, then the same jet seeds traced.

    At least two jet seeds, so that the check that call counts repeat
    between ops always compares two ops."""
    from tracer import Tracer
    plain, _ = run_for(workload, cli, config_paths, seconds / 2, min_ops=2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, per_op = [], []
        for op in plain:
            tracer.reset()
            traced_ops.append(run_op(workload, cli, config_paths,
                                     op.jet_seed))
            per_op.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    problems = []
    for a, b in zip(plain, traced_ops):
        if a.report != b.report:
            problems.append(f"jet seed {a.jet_seed}: traced report differs "
                            f"from the untraced one")
    layers = {}
    for key in per_op[0]:
        values = [snap[key] for snap in per_op]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"{key} differs between ops: {values}")
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)
    p50_plain = statistics.median(op.seconds for op in plain)
    p50_traced = statistics.median(op.seconds for op in traced_ops)
    # one jet seed per op, so outermost solves per op are solves per seed
    layers["strengths.y_solves_per_seed"] = layers.pop(
        "strengths.invert_Y.outer_calls")
    detail = {"ops": len(plain), "untraced_p50_s": p50_plain,
              "traced_p50_s": p50_traced,
              "trace_overhead_s": p50_traced - p50_plain,
              "trace_overhead_frac": p50_traced / p50_plain - 1.0,
              "mul_stats_s_per_op": layers.pop("trace.hook_s")}
    return plain + traced_ops, layers, problems, detail


def source_identity() -> dict:
    """Git commit if the checkout has one, and a digest of src/ymft."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ymft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(ROOT / ".git"),
            "src_sha256": digest.hexdigest()}


def git_sha(git: Path) -> str:
    """The commit HEAD names, from a loose or a packed ref; else
    'unknown'."""
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1] == ref:
                return fields[0]
    return "unknown"


def environment(args, np, scipy) -> dict:
    return dict(source_identity(),
                python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__,
                nproc=len(os.sched_getaffinity(0)),
                blas_threads=int(BLAS_THREADS), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                toy=args.toy)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ymft" / "__init__.py").is_file():
        print(f"error: no ymft sources at {SRC / 'ymft'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import ymft
    from ymft import cli, jets
    from workloads import Workload
    if Path(ymft.__file__).resolve().parent != SRC / "ymft":
        print(f"error: imported ymft from {ymft.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed, args.toy)
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    config_paths = []
    try:
        for i, (_, config) in enumerate(workload.steps):
            name = f"{args.workload}-{args.seed}-{os.getpid()}-{i}.json"
            path = workdir / name
            path.write_text(json.dumps(config))
            config_paths.append(path)
        # set-ups before and after the ops, so that they sample the
        # machine at both ends of the run
        repeats = TOY_SETUP_REPEATS if args.toy else SETUP_REPEATS
        setups = [setup_once(config_paths[0], workload.degree)
                  for _ in range(repeats - repeats // 2)]
        # the op process pays the same set-up once, outside the timing
        jets.jet_algebra(workload.degree)
        if args.trace:
            ops, layers, problems, detail = traced(
                workload, cli, config_paths, args.seconds)
        else:
            ops, wall = run_for(workload, cli, config_paths, args.seconds)
        setups += [setup_once(config_paths[0], workload.degree)
                   for _ in range(repeats // 2)]
        if args.trace:
            for phase, name in SETUP_PHASES.items():
                layers[name] = statistics.median(s[phase] for s in setups)
            metrics = {name: (layers[name], unit)
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            values, detail = end_to_end(ops, wall, setups)
            problems = []
            metrics = {name: (values[name], unit)
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        for path in config_paths:
            path.unlink(missing_ok=True)

    failed = sum(1 for op in ops if op.problems)
    problems += [f"jet seed {op.jet_seed}: {p}" for op in ops
                 for p in op.problems]
    residuals = [op.max_residual for op in ops if not op.problems]
    detail.update(fail_ratio=failed / len(ops),
                  max_residual=max(residuals, default=None),
                  problems=problems[:20],
                  env=environment(args, np, scipy))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':42s} {detail['fail_ratio']:.6g} "
          f"({failed}/{len(ops)} ops failed)")
    print(f"  {'max_residual':42s} {detail['max_residual']} "
          f"(reported, not gated)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print("detail " + json.dumps(detail))
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
