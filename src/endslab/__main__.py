"""``python -m endslab``: the command line of ``endslab.cli``."""

import sys

from .cli import main

sys.exit(main())
