"""Set-up probe: a fresh interpreter imports the CLI and builds one workload's inputs.

Usage: ``python3 bench/setup_probe.py WORKLOAD WORKDIR`` with ``src`` on
``PYTHONPATH``.  The benchmark times the whole process as ``setup_s``, so
work moved into import time or input loading shows there.
"""

import sys

import blockspectra.cli  # noqa: F401  -- importing the CLI is part of set-up

from workloads import WORKLOADS, load_context


def main(argv) -> int:
    name, workdir = argv
    WORKLOADS[name].setup(load_context(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
