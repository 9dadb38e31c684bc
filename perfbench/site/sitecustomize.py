"""Host-speed probe for a timed CLI command.

run.py puts this directory on PYTHONPATH for the untraced CLI commands, so
Python imports this module at start-up, before ``-m qtspecials.cli`` runs.
It probes for the life of the interpreter and writes the probe times to
standard error as its last line when the interpreter exits.
"""

import atexit
import json
import sys

from hostprobe import MARK, HostProbe

_probe = HostProbe().start()


@atexit.register
def _report():
    print(MARK + json.dumps(_probe.stop()), file=sys.stderr, flush=True)
