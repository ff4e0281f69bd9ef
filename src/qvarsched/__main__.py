"""`python -m qvarsched`: the same command line as the `qvarsched` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
