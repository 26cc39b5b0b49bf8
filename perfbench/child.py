"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds {"src": path, "commands": [argv, ...], "trace": bool}.  The child
imports mfca.cli from `src`, records the monotonic clock (comparable with the
parent's on Linux), then calls mfca.cli.main(argv) for each command and
records the clock again when the last one returns.  With no commands it only
measures set-up.  RESULT receives the timestamps, the exit codes and, when
traced, the per-layer metrics computed after the timed region.
"""

import json
import sys
import time
import traceback


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mfca.cli

    ready = time.monotonic()
    result = {"ready": ready, "codes": [], "error": None}
    tracer = None
    if spec["trace"]:
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    try:
        for argv in spec["commands"]:
            if tracer is None:
                code = mfca.cli.main(argv)
            else:
                with tracer.span(ROOT_SPAN):
                    code = mfca.cli.main(argv)
            result["codes"].append(code)
            if code != 0:
                break
    except Exception as exc:  # a failed pass is reported, not fatal
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    result.update(start=start, end=end)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
