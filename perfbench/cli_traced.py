"""Run the foldedmaps CLI with the benchmark's span recorder installed.

Usage: python cli_traced.py SPANS_OUT CLI_ARGS...

The traced cold-CLI ops call this in place of `python -m foldedmaps.cli`;
the spans are written to SPANS_OUT and the exit code is the CLI's.
"""

import sys

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from foldedmaps import cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
