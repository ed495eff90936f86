"""The process entry point: `python -m carma_hawkes` and the `carma-hawkes`
script both call run().

run() keeps CPython's cyclic collector out of a CLI process's start-up.
Loading `cli` leaves about 18k objects the collector tracks, most of which
live for the whole run; with the collector on, they would be scanned by the
collections their allocations trigger, again by every later collection, in
each worker `simulate` and `bench` fork (touching the pages that hold
them), and at exit.  So the collector is off while `cli` loads, and what
the imports built is frozen (`gc.freeze`) before it is turned back on:
collections during the command's own work run as before, over the objects
that work makes.  The imports' garbage in reference cycles stays frozen
too; collecting it first would cost more time than the memory it frees.
`cli` loads no numpy.  A command that makes arrays (cli.makes_arrays:
`diagnose`, or `simulate --trace-intensity`) always loads it, so run()
imports it for those before the freeze, with its ~15k tracked objects; a
warm `simulate`, `validate` or `bench` never loads it, and a cold one
loads it, with the collector on, only to compute a spec's constants that
the CLI's constants cache does not hold yet.  A `cli.main()` called
in-process leaves the collector as it finds it; neither `cli` nor the
package touches it at import.
"""

import gc
import sys


def run() -> int:
    """Run the command line of sys.argv; its exit code."""
    gc.disable()
    from .cli import build_parser, main, makes_arrays

    if makes_arrays(build_parser().parse_args()):
        import numpy  # noqa: F401

    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
