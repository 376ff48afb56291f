"""Record the solve workloads' reference optima for the main and held-out seeds.

    python3 bench/record_reference.py

Writes `bench/reference.json`.  The solve checks compare the reference
optimum they compute against these values, so a later change to the
package that shifts the local objective shows up as a failed op.  Rerun
this only when the solve workloads' inputs change.
"""

import json
from pathlib import Path

import workloads
from run import HELDOUT_SEED, MAIN_SEED


def main():
    record = {}
    for workload, (k, r) in workloads.SOLVE_BUDGET_RADIUS.items():
        size = workloads.SIZES[workload]
        record[workload] = {"size": size, "optima": {
            str(seed): [workloads.reference_optimum(m, w, k, r)
                        for m, w in workloads.solve_inputs(workload, seed, size)]
            for seed in (MAIN_SEED, HELDOUT_SEED)
        }}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
