"""Module entry point so ``python -m hierknn`` behaves like the console script."""
from .cli import run

if __name__ == "__main__":
    run()
