"""`python -m opo3`: the `opo3` command line (`opo3.cli.main`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
