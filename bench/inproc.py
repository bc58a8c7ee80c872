"""Run one config in-process, the way ``hardylab run`` does, optionally traced.

    python3 bench/inproc.py --config C.json --seed N --out C.csv --trace 0|1 --result R.json

The harness starts this in a fresh interpreter with ``src`` on PYTHONPATH.
It writes R.json with the exit code, the JSON summary, the import time, the
wall time from parsing the config to writing the report, and, when traced,
the raw per-layer sums and every span.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    from hardylab import cli
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    with open(args.config) as fh:
        text = fh.read()

    def run_once():
        cfg = cli.RunConfig.from_json(text)
        cfg.corpus["seed"] = args.seed
        result = cli.run(cfg)
        cli.write_rows(result.rows, args.out, "csv")
        json.dumps(result.summary, sort_keys=True, default=str)  # as `hardylab run` prints it
        return result

    t1 = time.perf_counter()
    if tracer is None:
        result = run_once()
    else:
        result = tracer.call("cli.main", "cli.main", run_once, (), {})
    wall_s = time.perf_counter() - t1

    out = {"exit_code": result.exit_code,
           "summary": json.loads(json.dumps(result.summary, default=str)),
           "import_s": import_s, "wall_s": wall_s}
    if tracer is not None:
        raw = tracer.raw()
        raw["setup.import_s"] = import_s
        out.update(raw=raw, absent=tracer.absent,
                   spans=[[n, round(a - t1, 7), round(b - t1, 7), p]
                          for n, a, b, p in tracer.spans])
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
