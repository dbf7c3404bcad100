"""``python -m crslab``: the command-line front end."""

import sys

from .cli import main

# Guarded: importing this module must not run the CLI.
if __name__ == "__main__":
    sys.exit(main())
