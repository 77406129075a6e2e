"""The launcher behind `python -m grasstrata` and the `grasstrata` console
script: it runs one command through cli.main and exits with its code."""

import gc

from .cli import main


def run() -> int:
    """main(), then gc.freeze(), then main's exit code."""
    code = main()
    # The process ends next, and its objects die with it: frozen, they are
    # left out of the full collections the interpreter runs at shutdown.
    # atexit handlers and the flush of the standard streams still run.
    # main itself stays unfrozen, as callers that run it many times in one
    # process would have their garbage pinned for good.
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
