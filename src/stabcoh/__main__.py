"""``python -m stabcoh ...``: the same commands as the ``stabcoh`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
