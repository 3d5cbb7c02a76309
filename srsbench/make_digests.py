"""Write count_digests.json: the exact counts the large_n workload checks.

Each value is computed here with `math.comb`, independently of
`srslab.counting`, and stored as the sha256 of its decimal text plus its
digit count.  Run it once from the repository root:

    PYTHONPATH=src python3 srsbench/make_digests.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import (COUNT_EPOCHS, COUNT_POINTS, count_labels,
                       decimal_digest, ratio_ks)


def exact_counts(n: int, b: int) -> dict:
    n_b = n // b
    values = {
        "configs_one_epoch": sum(math.comb(n - k * b, b) for k in range(n_b)),
        "configs_with": COUNT_EPOCHS * n_b * math.comb(n, b),
    }
    for k in ratio_ks(n, b):
        values[f"config_ratio_k{k}"] = Fraction(math.comb(n, b),
                                                math.comb(n - k * b, b))
    return values


def main() -> None:
    out = {f"{n}x{b}x{COUNT_EPOCHS}": {
        label: decimal_digest(value)
        for label, value in count_labels(exact_counts(n, b)).items()}
        for n, b in COUNT_POINTS}
    path = Path(__file__).resolve().parent / "count_digests.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
