"""Set-up probe, run in a fresh interpreter: import toricsym and parse every
polygon input of a workload, then exit.

    python3 bench/setup_probe.py SRC_DIR INPUT_DIR
"""

import json
import os
import sys

src, inputs = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

from toricsym.geometry import polygon_from_json  # noqa: E402

for name in sorted(os.listdir(inputs)):
    with open(os.path.join(inputs, name)) as fh:
        obj = json.load(fh)
    try:
        polygon_from_json(obj)
    except ValueError:
        if not name.endswith("-float.json"):
            raise
