"""Run one ``ftqc`` command with the tracer installed.

Usage: python traced_cli.py SPANS_JSON OP_ID -- ftqc-arguments...

Behaves like ``python -m ftqc ftqc-arguments...`` (same exit code and
output) and additionally writes the recorded spans to SPANS_JSON on exit.
"""

import sys

import ftqc.cli

import tracer


def main(argv: list[str]) -> None:
    spans_path, op_id, sep, *cli_args = argv
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS_JSON OP_ID -- ARGS...")
    recorder = tracer.Tracer(op_id)
    tracer.install(recorder)
    try:
        ftqc.cli.main(args=cli_args, prog_name="ftqc")
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
