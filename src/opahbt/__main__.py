"""``python -m opahbt``: the same command line as the ``opahbt`` script."""

from .cli import run

if __name__ == "__main__":
    run()
