#!/usr/bin/env python3
"""Entry point of the tenant-journey benchmark (see README.md here).

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--rounds K]
                                                [--workload NAME] [--smoke]

The driver's form needs no PYTHONPATH: this file puts the checkout's
``src/`` (and its own directory) on ``sys.path`` itself.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE), str(_HERE.parent.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    from e2e_cli import main

    sys.exit(main())
