"""Run the koopdmd command line under the tracer and write its spans as JSON.

    python3 perfbench/traced_cli.py SPANS.json ALLOC_LAYERS run <target> [options]

ALLOC_LAYERS is a comma-separated list of layers whose spans record a
tracemalloc peak; an empty string records none.

Exits with koopdmd's exit code, or 70 when a wrapper was left installed.
"""
import json
import sys

from tracer import Tracer

from koopdmd import cli


def main() -> int:
    spans_path, alloc_layers, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(filter(None, alloc_layers.split(",")))
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return code if tracer.restored() else 70


if __name__ == "__main__":
    sys.exit(main())
