"""Set-up probe: import cavreset and load device configs in a fresh process.

    python3 perfbench/probe.py <checkout root> qubit1 [qubit2 ...]

Prints {"setup_s": seconds} for the import plus the config loads.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "src"))
import cavreset  # noqa: E402

devices = [cavreset.DeviceParams.from_json(os.path.join(root, "configs", f"{name}.json")) for name in sys.argv[2:]]
elapsed = time.perf_counter() - _start
print(json.dumps({"setup_s": elapsed, "devices": len(devices)}))
