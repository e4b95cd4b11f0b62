"""Write reference.json: the answers that scan and analyze commands are checked against.

Run once, at the commit that defines the benchmark, from the repository root:

    python3 perfbench/freeze_reference.py

Rerunning it on a later commit would make that commit's answers the
reference, so do it only when a change of answer is intended and reviewed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyff import cli  # noqa: E402

from workloads import REFERENCE_ARGVS, REFERENCE_PATH, SUMMARIES, reference_key  # noqa: E402


def main() -> int:
    reference = {}
    for argv in REFERENCE_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            print(f"{' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        reference[reference_key(argv)] = SUMMARIES[argv[0]](json.loads(out.getvalue()))
        print(f"froze {reference_key(argv)}", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
