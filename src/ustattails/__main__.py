"""The ``ustattails`` process: ``python -m ustattails`` and the installed script."""

import gc
import sys


def main():
    """Runs ``cli.main`` on the command line, with the imported modules out of the collector's
    sight.

    The modules numpy and the package create hold many objects and no
    garbage; ``gc.freeze`` moves them to the permanent generation, which no
    later collection walks, the one at interpreter exit included.  The
    collector is off while they import, so none of them is walked then either.
    """
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
