"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED PASS_ID TRACE_PATH

MODE is ``setup`` (import stabcoh.cli and stop), ``plain`` (one untraced
pass) or ``traced`` (one pass with spans, written to TRACE_PATH).  The last
stdout line is a JSON object; ``imported`` is the CLOCK_MONOTONIC reading
once ``stabcoh.cli`` is imported, which run.py subtracts from its own
reading at spawn to get the set-up time.
"""

import sys
import time

import stabcoh.cli  # noqa: F401  (set-up ends here: interpreter, numpy, stabcoh)

IMPORTED = time.monotonic()


def main() -> int:
    import json

    mode, workload, seed, pass_id, trace_path = sys.argv[1:6]
    record = {"imported": IMPORTED}
    if mode != "setup":
        import numpy

        from workloads import WORKLOADS, inputs_for

        inputs = inputs_for(workload, int(seed))
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        tally = WORKLOADS[workload](inputs)
        wall = time.perf_counter() - t0
        record.update(
            wall_s=wall,
            attempted=tally.attempted,
            failures=tally.failures,
            problems=tally.problems,
            numpy=numpy.__version__,
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
            tracer.write_jsonl(trace_path, int(pass_id), t0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
