"""``python -m tensorfm``: the ``tensorfm`` command line."""

import sys

from .cli import main

sys.exit(main())
