"""Set-up cost in a fresh process: import hopfact, then load and verify fixtures.

Usage: python3 bench/setup_probe.py SRC_DIR FIXTURE_PATH...
Prints one JSON line with the seconds from before the import to the end of
the load, and how many fixture objects were registered.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hopfact  # noqa: E402
from hopfact.workspace import Workspace  # noqa: E402

ws = Workspace.load(sys.argv[2:], verify=True)
elapsed = time.perf_counter() - t0
objects = (len(ws.hopfs) + len(ws.algebras) + len(ws.actions) + len(ws.lie_actions)
           + len(ws.ideals) + len(ws.representations))
print(json.dumps({"setup_s": elapsed, "objects": objects, "hopfact": hopfact.__file__}))
