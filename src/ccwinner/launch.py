"""The ``ccwinner`` console script's target: the CLI with numpy on one OpenBLAS thread.

No ccwinner module makes a BLAS call, and the thread pool that numpy's
bundled OpenBLAS starts at import is about a third of a cold solve's CPU
time. OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads it, so
`main` and ``python -m ccwinner.cli`` call `one_blas_thread` before the
first numpy import; a value the user set wins. This module imports neither
numpy nor the CLI until `main` runs.
"""

import os


def one_blas_thread() -> None:
    """Have numpy's OpenBLAS start one thread, unless OPENBLAS_NUM_THREADS is set."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main() -> int:
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main()
