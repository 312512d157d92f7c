"""``python -m dqcsched``: the command-line interface, exiting with its code."""
from .cli import main

raise SystemExit(main())
