"""``python -m dihom ARGS`` runs the command line front end, as the
``dihom`` console script does."""

from .cli import main

if __name__ == "__main__":  # pragma: no cover
    main()
