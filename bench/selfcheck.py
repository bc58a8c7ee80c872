"""Fast self-check of the benchmark harness (about 15 s).

    python3 bench/selfcheck.py

Run it from the root of a hardylab checkout.  It runs the cheapest pinned
config through the real harness code, untraced and traced, and confirms
that:

- the printed metric names and units are exactly the ``end_to_end`` and
  ``per_layer`` lists of BENCHMARK.json;
- a run whose pinned exit code is wrong counts in ``failed``, and runs that
  match their pins do not;
- ``BENCHMARK.json`` names exactly the workloads the harness runs.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

CHEAP = "logr-best-constant"


def printed(checker, metrics) -> dict:
    return json.loads(bench.result_line(checker, metrics))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = bench.load_expected()
    errors = []

    def expect(cond: bool, what: str):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            errors.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS),
           "BENCHMARK.json workloads are the harness workloads")

    bench.WORKLOADS["selfcheck"] = (CHEAP,) * bench.TIMED
    wrong = copy.deepcopy(expected)
    wrong["configs"][CHEAP]["exit_code"] = 1
    checker, metrics, _ = bench.measure("selfcheck", bench.DEFAULT_SEED, 0.0, 0, wrong)
    out = printed(checker, metrics)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect({k: v["unit"] for k, v in out["metrics"].items()} == want,
           "untraced run prints the end_to_end metrics of BENCHMARK.json")
    expect(out["attempted"] >= 1 and out["failed"] == out["attempted"]
           and out["correct"] is False,
           "a run with a wrong pinned exit code counts in failed "
           f"({out['failed']} of {out['attempted']})")

    checker, metrics, _ = bench.measure("selfcheck", bench.DEFAULT_SEED, 0.0, 1, expected)
    out = printed(checker, metrics)
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect({k: v["unit"] for k, v in out["metrics"].items()} == want,
           "traced run prints the per_layer metrics of BENCHMARK.json")
    expect(out["failed"] == 0 and out["attempted"] >= 2,
           f"runs matching their pins do not fail ({out['failed']} of {out['attempted']})")
    expect(out["metrics"]["inequalities.rayleigh_calls"]["value"] > 0,
           "the traced run reaches the wrap points")
    print("selfcheck: " + ("passed" if not errors else f"{len(errors)} failed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
