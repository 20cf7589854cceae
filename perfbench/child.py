"""One catlink CLI invocation, as the benchmark times it.

Usage::

    python3 perfbench/child.py --src SRC --record FILE [--trace] [--setup-only] \
        -- <catlink arguments>

Runs ``catlink.cli.main`` on the given arguments, as the ``catlink`` console
script does, and writes to ``FILE`` a JSON record with the
``time.monotonic()`` reading at the moment the subcommand's function is
entered (the end of set-up: interpreter start, imports, config load and
validation).  The parent reads the same clock before it starts this process.

``--setup-only`` exits as soon as the subcommand is entered.  ``--trace``
installs ``layers.Tracer`` around the run and adds its spans and counters to
the record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("catlink_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.catlink_args[1:] if opts.catlink_args[:1] == ["--"] else opts.catlink_args

    sys.path.insert(0, os.path.abspath(opts.src))
    t_import = time.perf_counter()
    import catlink.cli as cli
    record: dict = {"import_s": time.perf_counter() - t_import}

    command = cli.COMMANDS[argv[0]]

    def entered(*args, **kwargs):
        record["entered_monotonic"] = time.monotonic()
        if opts.setup_only:
            _write(opts.record, record)
            os._exit(0)
        return command(*args, **kwargs)

    cli.COMMANDS[argv[0]] = entered
    if opts.trace:
        from layers import Tracer

        with Tracer() as tracer:
            rc = cli.main(argv)
        record["spans"] = [vars(sp) for sp in tracer.spans]
        record["counters"] = tracer.counters
    else:
        rc = cli.main(argv)
    _write(opts.record, record)
    return rc


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
