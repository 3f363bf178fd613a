"""The timed CLI process: the ``storyfactors`` console script plus one timestamp.

Run as ``python3 storybench/child.py run --config FILE --out DIR``.  It
imports ``storyfactors.cli`` from the checkout's ``src`` and writes
``ready <CLOCK_MONOTONIC seconds>`` to stderr once the import has finished
and before the first stage starts, then runs ``cli.main`` exactly as the
console script does.
"""

import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent / "src")

from storyfactors import cli  # noqa: E402

print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", file=sys.stderr, flush=True)
sys.exit(cli.main())
