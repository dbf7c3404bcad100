"""``python -m crslab``: the command-line front end."""

import sys

from .cli import main

# Guarded: a worker process that imports this module again must not rerun the CLI.
if __name__ == "__main__":
    sys.exit(main())
