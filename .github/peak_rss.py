"""Run one moneyflow CLI stage as this process's only child and exit 1
when the child's peak RSS exceeds the bound.

usage: python .github/peak_rss.py BOUND_MIB STAGE [ARGS...]

The peak goes to stderr, so the stage's stdout can still be compared
across runs.
"""

import resource
import subprocess
import sys

bound_mib, argv = float(sys.argv[1]), sys.argv[2:]
subprocess.run([sys.executable, "-m", "moneyflow.cli", *argv], check=True)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{argv[0]}: peak RSS {peak_mib:.1f} MiB, bound {bound_mib:.0f} MiB", file=sys.stderr)
sys.exit(peak_mib > bound_mib)
