"""One benchmark invocation: a fresh process that runs ``dsi_lab.cli.main``.

usage: python3 bench/child.py RESULT_JSON MODE [CLI ARGS...]

MODE is ``run`` (untraced) or ``trace`` (spans recorded, see spans.py).
The process writes its ``perf_counter`` readings to RESULT_JSON; on Linux
that clock is CLOCK_MONOTONIC, so run.py can subtract its own spawn time
from them.
"""

import sys
import time

import dsi_lab.cli

ready = time.perf_counter()


def main() -> int:
    # imported after ``ready`` so that they do not count as set-up time
    import json
    from pathlib import Path

    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(dsi_lab.cli.__file__).resolve().parent.parent != src:
        print(f"dsi_lab was imported from {dsi_lab.cli.__file__}, not {src}", file=sys.stderr)
        return 90
    record = {"ready": ready}
    if mode == "run":
        record["call"] = time.perf_counter()
        record["rc"] = dsi_lab.cli.main(argv)
        record["return"] = time.perf_counter()
    elif mode == "trace":
        import spans

        tracer = spans.Tracer()
        record["wrapped"] = spans.install(tracer)
        root = tracer.begin(spans.ROOT)
        try:
            record["rc"] = dsi_lab.cli.main(argv)
        finally:
            tracer.end(root)
        record["call"], record["return"] = root[1], root[2]
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 91
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
