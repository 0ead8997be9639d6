"""``python -m maxplus``: the same command line as the ``maxplus`` script."""

from .cli import run

if __name__ == "__main__":
    run()
