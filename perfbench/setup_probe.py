"""One set-up sample: import purecubic and build a workload's objects, in a fresh process.

    python3 setup_probe.py SRC_DIR '{"fields": [m, ...], "curves": [k, ...]}'

Prints the seconds taken. Interpreter start-up is not counted.
"""

import json
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
objects = json.loads(sys.argv[2])
t0 = perf_counter()
import purecubic  # noqa: E402

for m in objects["fields"]:
    purecubic.CubicField(m)
for k in objects["curves"]:
    purecubic.MordellCurve(k)
print(perf_counter() - t0)
