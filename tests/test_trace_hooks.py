"""The benchmark tracer still sees every layer of the identity suite.

``perfbench/tracer.py`` wraps functions by name and rebinds them in every
ymft namespace that holds them, ``dynamics.CHECK_FUNCTIONS`` included.  A
check the suite reaches some other way, or a helper that bypasses the
module globals, would drop out of the per-layer numbers without an error.
"""

import importlib.util
import sys
from pathlib import Path

from ymft.deformations import family_su2
from ymft.dynamics import CHECK_FUNCTIONS, TheoryVariant, run_identity_suite

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ymft_bindings() -> dict:
    """Every module-level value and table entry of the ymft namespaces."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key != "ymft" and not key.startswith("ymft."):
            continue
        for name, value in vars(mod).items():
            out[(key, name)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(key, name, k)] = v
    return out


def test_tracer_sees_every_check_and_restores_the_originals():
    tracer_mod = load_tracer()
    owners = {name: vars(owner)[attr] if isinstance(owner, type)
              else getattr(owner, attr)
              for name, (owner, attr) in tracer_mod.TARGETS.items()}
    before = ymft_bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        out = run_identity_suite(TheoryVariant(family_su2(2.0, 0.5)), [1],
                                 degree=3)
    finally:
        tracer.uninstall()
    assert all(rep.passed for rep in out["reports"].values())
    stats = tracer.stats
    checks = [name for name in stats if name.startswith("dynamics.check.")]
    assert len(checks) == len(CHECK_FUNCTIONS) == 7
    for name in checks:
        assert stats[name].calls == 1, name
    # one base solve per seed, shared by every check (the Euler-Lagrange
    # pass records it without solving again), plus one per tangent ring;
    # Y is built and inverted on the base ring only, for the seed and for
    # the linearization's zero fields; the base field equations are shared
    # too, as are those of the free theory, next to the linearization's
    assert stats["strengths.compute_strengths"].calls == 5
    assert stats["strengths.assemble_Y"].calls == 2
    assert stats["strengths.invert_Y"].calls == 2
    assert stats["dynamics.field_equations"].calls == 3
    for name, (owner, attr) in tracer_mod.TARGETS.items():
        current = (vars(owner)[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is owners[name], name
    after = ymft_bindings()
    assert all(after.get(key) is value for key, value in before.items())
