"""Record the expected numbers of the fixed benchmark inputs.

    python3 bench/record_references.py

Run from the repository root at the commit whose answers are the reference.
Every corpus_cli input and every corpus pencil of pencil_scan runs once as a
CLI process; the `workloads.project` of its report goes to
bench/references.json.  The seeded inputs need no references: their
expected numbers come from the oracles in workloads.py.
"""

import json
import os
import subprocess
import sys

import workloads


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    refs = {}
    for workload, names in workloads.reference_inputs().items():
        refs[workload] = {}
        for name in names:
            argv = workloads.reference_argv(workload, name)
            out = subprocess.run([sys.executable, "-m", "brieskornlab.cli", *argv], env=env,
                                 capture_output=True, text=True, check=True).stdout
            refs[workload][name] = workloads.project(json.loads(out))
            print(f"{workload}: {name}", file=sys.stderr)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
