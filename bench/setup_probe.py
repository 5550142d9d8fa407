"""Set-up probe: import clarkson from the given source directory, build the
CLI parser, and print the monotonic clock.  The parent process subtracts
the clock reading it took just before launching this one.

    python3 bench/setup_probe.py src
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import clarkson.cli  # noqa: E402

clarkson.cli.build_parser()
print(repr(time.monotonic()))
