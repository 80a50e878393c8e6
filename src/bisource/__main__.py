"""``python -m bisource``: the same command as the ``bisource`` script."""

import sys

from .cli import main

sys.exit(main())
