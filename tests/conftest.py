import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "slow: long-running end-to-end checks")
    # the CLI tests run ``python -m ymft.cli`` in a subprocess; point it at
    # the same source tree that ``pythonpath`` puts on sys.path here
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
