"""Record the shipped-document reports that cli-shipped compares against.

Run once from the checkout root of the commit whose bytes are the
reference:

    python3 perfbench/record_cli.py

It writes perfbench/expected_cli.json: for each op key (see
``gen.shipped_ops`` for its argv), the SHA-256 of the report bytes.
"""

import json
import os
import sys

import checks
import gen
from workload import EXPECTED_CLI, import_qcheat, run_pass


def main() -> int:
    root = os.getcwd()
    cli = import_qcheat(root)
    workdir = os.path.join(root, ".perfbench", "record")
    os.makedirs(workdir, exist_ok=True)
    log = []
    run_pass(cli, gen.shipped_ops(), os.path.join(workdir, "report.out"), log)
    expected = {}
    for op, code, _, data in log:
        if code != 0 or data is None:
            print(f"error: {op.key} exited {code}", file=sys.stderr)
            return 1
        expected[op.key] = checks.sha256(data)
    with open(EXPECTED_CLI, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(expected)} reports in {EXPECTED_CLI}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
