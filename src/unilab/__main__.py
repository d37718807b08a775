"""``python -m unilab`` runs the command-line front end, unilab.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
