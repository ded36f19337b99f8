"""``python -m vplandau``: the command-line interface of :mod:`vplandau.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
