"""Set-up probe: import sparsebench and load the workload's network.

Usage: python3 bench/setup_probe.py [NET]

Prints "ready" once the CLI package is imported and NET (if given) is
loaded with its weights synthesized. run.py times a fresh process from
start to that line.
"""

import sys

import sparsebench.cli  # noqa: F401  (the import is what is timed)
from sparsebench.netdesc import load_network

if len(sys.argv) > 1:
    load_network(sys.argv[1])
print("ready", flush=True)
