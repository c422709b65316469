"""One cold call in a fresh process, for the set-up time.

Usage: python3 perfbench/cold.py <source dir> <config.json>

Imports the package from <source dir>, makes one ``cli.run`` call and
prints ``{"end": <time.monotonic() after the call>, "code": <exit code>}``.
The parent takes the clock before it starts this process; the system-wide
monotonic clock makes the two readings comparable.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from schrodingerize import cli  # noqa: E402

code = cli.run(sys.argv[2])
print(json.dumps({"end": time.monotonic(), "code": code}))
