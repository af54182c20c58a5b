"""`python -m civsf <command> ...` runs the civsf command line."""

from civsf.harness.cli import entry

if __name__ == "__main__":
    entry()
