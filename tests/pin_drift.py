"""How far the current code sits from every pin of the golden store.

For every row of ``tests/goldens.json`` this computes the row's values
through the evaluator of its quantity (``tests/goldens.py``, the same
functions the tests call) and prints the row's distance in units of its
bound, worst first; then one summary line per quantity.  It exits 1 when
a row is past its bound.  Run it from the repository root:

    python tests/pin_drift.py

A change that restates pins attaches this script's summary lines, before
and after, to ``CHANGES.md``.  It is a tool for the tests' pins, not a
test: pytest does not collect it, as its name does not start with
``test_``.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import goldens


def summary(quantity, distances):
    """One line: row count, bound, worst and median distance, rows past the bound."""
    bound = goldens.STORE[quantity]["bound"]
    worst, median = max(distances), statistics.median(distances)
    scale = f" ({worst * bound['tol']:.2e} and {median * bound['tol']:.2e} {bound['form']})" if "tol" in bound else ""
    return (f"{quantity}: {len(distances)} rows, bound {goldens.describe(bound)}, worst {worst:.2e}, "
            f"median {median:.2e} of the bound{scale}, {sum(d > 1.0 for d in distances)} past it")


def main() -> int:
    found = [(goldens.worst(q, row), q, row) for q in goldens.STORE for row in goldens.rows(q)]
    print(f"{'distance':>10}  quantity  inputs: farthest field")
    for (distance, field, *_), q, row in sorted(found, key=lambda t: -t[0][0]):
        print(f"{distance:10.3g}  {q}  {json.dumps(row['inputs'], sort_keys=True)}: {field}")
    for q in goldens.STORE:
        print(summary(q, [w[0] for w, name, _ in found if name == q]))
    return 1 if any(w[0] > 1.0 for w, _, _ in found) else 0


if __name__ == "__main__":
    sys.exit(main())
