"""Runs the in-process operations of the table and LP workloads.

One JSON request per line on stdin, one JSON reply per line on stdout.
run.py starts it with PYTHONPATH set to the checkout's src/, so the program
measured is the one in the checkout.  The program's output goes to the file
named in the request, never to this process's memory.
"""

import gc
import json
import sys
import time

import halfrare.cli
import halfrare.oracle
from halfrare import marginals_from_values

from spans import Tracer


def run_cli(req, proto):
    with open(req["out"], "w") as f:
        sys.stdout = f
        try:
            t0 = time.perf_counter()
            code = halfrare.cli.main(req["argv"])
            f.flush()
            return code, time.perf_counter() - t0
        finally:
            sys.stdout = proto


def _indicator(x, n):
    return "".join("1" if x >> i & 1 else "0" for i in range(n))


def run_verify(req, proto):
    """verify_bounds on each marginal set of a batch (`;`-separated)."""
    sets = [marginals_from_values(p.split(",")) for p in req["probs"].split(";")]
    t0 = time.perf_counter()
    reports = [halfrare.oracle.verify_bounds(m) for m in sets]
    dt = time.perf_counter() - t0
    # Same layout as `halfrare verify`, so one parser checks both.
    doc = [
        {
            "subsets": [
                {
                    "subset": _indicator(r.subset, rep.marginals.n),
                    "lp_min": str(r.lp_min),
                    "lp_max": str(r.lp_max),
                    "witness_min": [str(a) for a in r.witness_min.atoms],
                    "witness_max": [str(a) for a in r.witness_max.atoms],
                }
                for r in rep.records
            ]
        }
        for rep in reports
    ]
    with open(req["out"], "w") as f:
        json.dump(doc, f)
    return (0 if all(rep.verdict for rep in reports) else 4), dt


RUN = {"cli": run_cli, "verify": run_verify}


def main():
    proto = sys.stdout
    while line := sys.stdin.readline():
        req = json.loads(line)
        tracer = Tracer() if req["trace"] else None
        gc.collect()
        if tracer:
            tracer.install()
        try:
            code, dt = RUN[req["kind"]](req, proto)
            reply = {"code": code, "t": dt}
        except SystemExit as e:  # argparse rejected the arguments
            reply = {"error": f"exit {e.code}"}
        except Exception as e:  # the operation failed; report it and go on
            reply = {"error": repr(e)}
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            reply["spans"] = tracer.summary()
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
