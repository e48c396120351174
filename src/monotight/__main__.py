"""`python -m monotight ...` runs the command line, as the `monotight` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
