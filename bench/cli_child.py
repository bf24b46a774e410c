"""``python -m mwtate.cli`` with spans recorded around each layer.

Used by the traced cli run in place of ``python -m mwtate.cli ARGS``.  The
verb's stdout and exit code are unchanged; one extra last line on stderr,
``MWBENCH-TRACE {json}``, carries the span summary and the Smith maxima.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mwtate.cli  # noqa: E402
from spans import TRACE_PREFIX, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active, tracer.op = True, 0
    try:
        code = mwtate.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.active = False
        sys.stdout.flush()
        summary = {"groups": tracer.summary(), "smith": tracer.smith}
        print(TRACE_PREFIX + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
