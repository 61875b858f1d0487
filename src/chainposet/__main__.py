"""Entry point for `python -m chainposet`, with the same commands as `chainposet`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
