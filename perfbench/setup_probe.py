"""Set-up probe: one fresh interpreter gets a workload ready, then exits.

    python3 perfbench/setup_probe.py <workload>

It imports the verify path (``vertexalg.suites``) from the checkout's
``src``, builds the shipped models and sheaf covers the workload uses,
and prints ``ready``.  The parent times it from spawn to that line, so
set-up time covers interpreter start, the import and the model builds.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(name: str) -> None:
    wl = WORKLOADS[name]
    import vertexalg.suites  # noqa: F401
    from vertexalg.models.factory import shipped_model
    from vertexalg.sheaf import make_cover_three, make_cover_two

    for model in wl.models:
        shipped_model(model)
    if wl.covers:
        make_cover_two()
        make_cover_three()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
