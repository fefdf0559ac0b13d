"""Run a script in a fresh interpreter that imports koopdmd from this checkout."""
import os
import subprocess
import sys

import koopdmd

# A process started with fork and exec inherits in ru_maxrss the peak of the
# process that started it, so a script that reads its own peak RSS runs in a
# forked child of the fresh interpreter, whose reading starts at its own size.
_FORKED = """import os, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
"""


def run_fresh(script, threads=1, forked=False):
    """stdout of script run in a fresh interpreter with threads BLAS threads;
    with forked, in a forked child of it, where ru_maxrss is the script's own."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(koopdmd.__file__)),
               **{var: str(threads) for var in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, "-c", (_FORKED if forked else "") + script],
                          capture_output=True, text=True, check=True, env=env).stdout
