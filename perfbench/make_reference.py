"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

writes ``perfbench/reference.json``: exact totals and trace-CSV digests for
``ftpd_long``, winning payoff, source and candidate count for ``br_search``,
CSV digests for ``opd_population``, and a long Monte-Carlo mean with its
standard error for every ``opd_draw`` input. The committed file was
recorded from the commit that introduced the benchmark; record it again
only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, import_package
from workloads import WORKLOADS


def main() -> int:
    pkg = import_package()
    refs = {}
    for name, workload in WORKLOADS.items():
        workdir = WORK / f"reference-{name}"
        try:
            refs[name] = workload.record(pkg, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(refs[name])} inputs", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
