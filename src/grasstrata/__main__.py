"""The launcher behind `python -m grasstrata` and the `grasstrata` console
script: it runs one command through cli.main and ends the process with its
exit code.

Once main has returned, run ends the process itself.  It runs the atexit
handlers (among them multiprocessing's, which ends leftover pool workers),
flushes stdout and stderr, and calls os._exit.  That skips what CPython's
shutdown would do next and no command needs: tearing down every module,
running __del__ of the objects still alive, and the ResourceWarnings that
such objects raise at shutdown.  The package starts no non-daemon thread,
so there is none to join.  A stdout whose reader has gone (piped into
head, say) gives 141, as it does in main; any other failed flush prints
one error line and gives 1, as a failed write in main does.  An exception
that escapes main ends the process the usual way.
"""

import atexit
import os
import sys
from contextlib import suppress

from .cli import main


def run() -> None:
    """main(), then the atexit handlers and the flush, then os._exit with
    main's exit code; never returns."""
    code = main()
    atexit._run_exitfuncs()
    failure = None
    try:
        # a stream is None when its descriptor was closed at start-up (>&-)
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    except OSError as e:
        failure, code = e, 1
    if sys.stderr is not None:
        with suppress(OSError):  # a failed stderr leaves nowhere to report
            if failure:
                print(f"error: {failure}", file=sys.stderr)
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
