"""Do one run's set-up in a fresh interpreter, then print "ready".

    python3 bench/probe.py WORKLOAD SEED

run.py times this from process start to the "ready" line: that is
`setup_s`. It imports what run.py imports, so the two set-ups match.
"""

import sys

import run

run.workloads.prepare(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
