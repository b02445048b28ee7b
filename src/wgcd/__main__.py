"""`python -m wgcd`: the `wgcd` command line of `wgcd.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
