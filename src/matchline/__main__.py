"""``python -m matchline``: the same CLI as the ``matchline`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
