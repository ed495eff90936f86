"""The process entry point: `python -m carma_hawkes` and the `carma-hawkes`
script both call run().

run() keeps CPython's cyclic collector out of a CLI process's start-up.
Loading `cli` and numpy leaves about 22k objects the collector tracks,
most of which live for the whole run; with the collector on, they would be
scanned by the dozens of collections their allocations trigger, again by
every later collection, in each worker `simulate` and `bench` fork
(touching the pages that hold them), and at exit.  So the collector is off
while `cli` loads, and what the imports built is frozen (`gc.freeze`)
before it is turned back on: collections during the command's own work run
as before, over the objects that work makes.  The imports' garbage in
reference cycles (about 10k objects) stays frozen too; collecting it first
would cost more time than the memory it frees.  A `cli.main()` called
in-process leaves the collector as it finds it; neither `cli` nor the
package touches it at import.
"""

import gc
import sys


def run() -> int:
    """Run the command line of sys.argv; its exit code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
