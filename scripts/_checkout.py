"""What the scripts under scripts/ share: the environment for running
`python -m polarglue` against this checkout, and a quiet exit when the
reader closes stdout early.  Scripts run by path, so this directory is on
sys.path and they import it as `_checkout`."""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """This environment with PYTHONPATH set to this checkout's src/ and
    POLARGLUE_CONFIG dropped, so that a child runs this checkout's code
    with its defaults."""
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_main(main) -> None:
    """Run main(); a reader that stops early (`| head`) makes the script
    exit 1 without a traceback."""
    try:
        main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # stdout goes to devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
