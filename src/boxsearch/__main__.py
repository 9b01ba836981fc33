"""``python -m boxsearch``: the same command line as the ``boxsearch`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
