"""Entry point for ``python -m qpl``; the same as the ``qpl`` command."""

import sys

from .cli import main

sys.exit(main())
