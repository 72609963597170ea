"""Startup hook of the traced serving tier.

The traced ``serve_warm`` pass puts this directory on ``PYTHONPATH`` and
sets ``PERFBENCH_SPANS_DIR``; the router and the workers it spawns inherit
both, so each interpreter wraps the program's layers at start and dumps
its spans when it exits. Untraced runs never put this directory on the
path, so there it shadows no other ``sitecustomize``.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPANS_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench import spans

    spans.install_from_env()
