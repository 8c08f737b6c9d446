"""Entry point of the benchmark's child processes.

``python3 perfbench/child.py '<job json>'`` runs one job of one workload in
a fresh interpreter and prints its JSON result as the last stdout line.
The coordinator (``run.py``) starts these; they are not meant for direct use.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    job = json.loads(sys.argv[1])
    module = importlib.import_module(job["module"])
    result = module.child(job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
