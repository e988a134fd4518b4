"""``python -m mathsynth``: the ``mathsynth`` command, for a checkout that
is not installed (run it with ``src`` on ``PYTHONPATH``)."""

import sys

from .cli import main

sys.exit(main())
