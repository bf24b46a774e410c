"""Regenerate bench/expected_cli.json, the stored outputs of the fixed cli verbs.

    python3 bench/regen_cli.py

Run it only when a change to the program's output is intended; the cli
workload then checks every later run against the new file.
"""

import json
import sys

from run import EXPECTED_CLI, FIXED_CLI_OPS, Spawner


def main() -> int:
    out = {}
    with Spawner() as spawner:
        for name, argv, stdin in FIXED_CLI_OPS:
            _, code, stdout, err, _ = spawner.run(argv, stdin)
            if code != 0:
                print(f"error: {name} exited {code}: {err}", file=sys.stderr)
                return 1
            out[name] = stdout
    EXPECTED_CLI.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
