"""The measured process: calls ``dcgof.cli.main`` in-process on orders from run.py.

Start it from the checkout root with ``src`` on ``PYTHONPATH``.  It reads
one JSON order per line on stdin and answers each with one JSON line on
stdout:

    {"op": "call", "argv": [...]}  ->  {"wall": s, "cpu": s, "rc": code}
                                       (plus "layers": {...} once tracing is on)
    {"op": "trace"}                ->  installs the tracer from tracer.py
    {"op": "rusage"}               ->  {"peak_rss_mb": MB}
    {"op": "dump", "path": p}      ->  writes the recorded spans to p

``cpu`` is user plus system time of this process and of its reaped children
(the ``mc`` process pool), and ``peak_rss_mb`` is the highest ``ru_maxrss``
of this process or any child.  End of input ends the process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import dcgof
import dcgof.cli


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    reply = sys.stdout
    tracer = None

    def send(obj: dict) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"ready": True, "dcgof": os.path.abspath(dcgof.__file__)})
    for line in sys.stdin:
        order = json.loads(line)
        op = order["op"]
        if op == "call":
            layers = None
            cpu0 = _cpu()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = dcgof.cli.main(order["argv"])
                else:
                    rc, layers = tracer.traced_call(dcgof.cli.main, order["argv"])
            wall = time.perf_counter() - start
            cpu = _cpu() - cpu0
            out = {"wall": wall, "cpu": cpu, "rc": rc}
            if layers is not None:
                out["layers"] = layers
            send(out)
        elif op == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            send({"tracing": True})
        elif op == "rusage":
            send({"peak_rss_mb": _peak_rss_mb()})
        elif op == "dump":
            tracer.dump(order["path"])
            send({"dumped": order["path"]})
        else:
            raise ValueError(f"unknown order {op!r}")


if __name__ == "__main__":
    main()
