"""``python -m mainswitch``: the command-line interface."""
from .cli import main

main()
