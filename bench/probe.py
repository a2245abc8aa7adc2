"""Set-up probe: import the CLI, load one config, report, exit.

Usage (the benchmark starts it with the package on PYTHONPATH):

    python probe.py <config.json>

The benchmark times this process from spawn to its report line, which is
the set-up every command pays before it starts its own work.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import dressedprobe.cli  # noqa: E402
imported = perf_counter()
from dressedprobe.config import load_config  # noqa: E402

load_config(sys.argv[1])
loaded = perf_counter()
import numpy  # noqa: E402  (already loaded by the package)

print(
    json.dumps(
        {
            "import_s": imported - start,
            "load_config_s": loaded - imported,
            "dressedprobe": dressedprobe.__version__,
            "numpy": numpy.__version__,
        }
    ),
    flush=True,
)
