"""``python -m zetapair``: the same command line as the ``zetapair`` script."""

import sys

from .cli import main

sys.exit(main())
