"""One repeat of one workload, in its own process.

``run.py`` starts this script once per repeat with a clean environment (only
the workload's ``REPRO_*`` settings) and ``PYTHONPATH`` pointing at the
checkout's ``src``.  The repeat builds its inputs from the seed, sets up the
program from scratch several times, each timed, then runs the closed loop —
one client, no think time — for ``--requests`` operations.  Each answer,
the warm-up's included, is checked by the workload's oracle after the clock
stopped.  Around every set-up and block it times a fixed reference join
(:func:`reference_seconds`), and reports every timing scaled by it, at
one host speed.

With ``--trace-out`` the requests are split: the first half runs untraced,
then the layer wrappers of ``trace.py`` are installed and the second half
runs traced, so ``trace.overhead`` compares the two halves of one process.

The last line of standard output is the repeat's result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

import workloads

#: Failures kept verbatim in the result (the count is always exact).
FAILURE_EXAMPLES = 5


#: Rows of the reference join.
REFERENCE_ROWS = 3000

#: The time of :func:`reference_seconds` at the host speed every timing is
#: reported at, frozen: about its median on the 2-vCPU VM the seed numbers
#: come from.
REFERENCE_S = 0.007


def reference_seconds() -> float:
    """Time a fixed pure-python hash join that uses nothing of the program.

    Its time measures how fast the host runs Python at this moment: on a
    shared host that drifts by a third and more, over seconds and over
    minutes, and the program's speed drifts with it.  A timing scaled by
    ``REFERENCE_S / reference``, the reference's time around it, is what
    the program would take at one host speed, and moves only when the
    program does.  The collector is off while the join runs, so that the
    program's heap cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    rows = [(i % 97, i % 89, i) for i in range(REFERENCE_ROWS)]
    index: Dict[int, List[int]] = {}
    for key, _, value in rows:
        index.setdefault(key, []).append(value)
    joined = set()
    for left, key, _ in rows:
        for value in index.get(key, ()):
            if value & 7 == 0:
                joined.add((left, value))
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


class Loop:
    """Timed samples and failure accounting of one closed-loop phase.

    Samples are kept at the reference speed: the operations run since the
    last reference join wait in ``pending`` until :meth:`settle` runs the
    next one and scales them by the mean of the two.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"read": [], "write": []}
        #: Per block of the session: [reads, scaled seconds of its operations].
        self.blocks: List[List[float]] = []
        #: Every reference time the operations were scaled by.
        self.references: List[float] = []
        self.pending: List[Tuple[str, float]] = []
        self.last_reference = reference_seconds()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.classes_seen: set = set()
        self.repeated = 0

    def settle(self) -> float:
        """Scale the pending operations; return their scaled seconds."""
        after = reference_seconds()
        reference = (self.last_reference + after) / 2
        self.references.append(reference)
        self.last_reference = after
        total = 0.0
        for kind, elapsed in self.pending:
            scaled = elapsed * REFERENCE_S / reference
            self.samples[kind].append(scaled)
            total += scaled
        self.pending.clear()
        return total

    def record(self, op: "workloads.Op", elapsed: float, error: Optional[str]) -> None:
        self.attempted += 1
        self.pending.append((op.kind, elapsed))
        if op.query_class is not None:
            if op.query_class in self.classes_seen:
                self.repeated += 1
            self.classes_seen.add(op.query_class)
        if error is not None:
            self.failed += 1
            if len(self.failures) < FAILURE_EXAMPLES:
                self.failures.append(f"{op.kind}: {error}")


def run_op(op: "workloads.Op", tracer=None):
    """Time one operation; return (elapsed seconds, error or None)."""
    started = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.request(op.run)
    except Exception as exc:  # a failed request is counted, not fatal
        elapsed = time.perf_counter() - started
        return elapsed, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    try:
        return elapsed, op.check(result)
    except Exception as exc:
        return elapsed, f"oracle check raised {type(exc).__name__}: {exc}"


def measure(session, requests: int, tracer=None) -> Loop:
    """Run whole blocks of operations until ``requests`` have been attempted.

    The reference join runs, untimed, at the end of every block, and every
    ``session.reference_every`` operations where a block is too long for
    the host to keep one speed through it.
    """
    loop = Loop()
    while loop.attempted < requests:
        reads, seconds = 0, 0.0
        for count, op in enumerate(session.next_block(), 1):
            elapsed, error = run_op(op, tracer)
            loop.record(op, elapsed, error)
            reads += op.kind == "read"
            if session.reference_every and count % session.reference_every == 0:
                seconds += loop.settle()
        if loop.pending:
            seconds += loop.settle()
        loop.blocks.append([reads, seconds])
    return loop


def loop_result(loop: Loop) -> Dict[str, object]:
    reads = loop.samples["read"]
    return {
        "samples": loop.samples,
        "blocks": loop.blocks,
        "references": loop.references,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "repeat_share": loop.repeated / len(reads) if reads else 0.0,
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--trace-out", help="trace mode: write the spans to this file")
    args = parser.parse_args(argv)

    import repro

    source = os.path.join(os.path.abspath(args.src), "")
    if not os.path.abspath(repro.__file__).startswith(source):
        print(f"repro imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    session = workloads.MAKERS[args.workload](args.seed, sizes)
    # Set up several times, each from scratch and timed at the reference
    # speed; the last set-up serves the timed loop.  The first one in a
    # process also pays for lazy imports.
    setups: List[float] = []
    for _ in range(session.setups):
        session.teardown()
        gc.collect()
        before = reference_seconds()
        started = time.perf_counter()
        warmed = session.setup()
        elapsed = time.perf_counter() - started
        setups.append(elapsed * REFERENCE_S / ((before + reference_seconds()) / 2))
        for op, answer in warmed:
            error = op.check(answer)
            if error is not None:
                print(f"warm-up answer is wrong: {error}", file=sys.stderr)
                return 1
    # Long-lived Python servers freeze what set-up built, so that full
    # collections scan only what requests allocate.  Without it, serve_scan
    # pays a 50 ms full-heap collection in about every other request and its
    # median flips between the two modes from one process to the next.
    gc.collect()
    gc.freeze()

    result: Dict[str, object] = {"workload": args.workload, "setups": setups}
    if args.trace_out is None:
        result.update(loop_result(measure(session, args.requests)))
    else:
        import trace

        untraced = measure(session, args.requests // 2)
        tracer = trace.Tracer()
        tracer.install()
        before = session.counters()
        probes = trace.probe_count()
        traced = measure(session, args.requests - args.requests // 2, tracer)
        tracer.uninstall()
        counters = counter_delta(before, session.counters())
        if probes is not None:
            counters["probes"] = trace.probe_count() - probes
        counters.update(session.final_counters())
        tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
        combined = loop_result(traced)
        combined["attempted"] += untraced.attempted
        combined["failed"] += untraced.failed
        combined["failures"] = (untraced.failures + traced.failures)[:FAILURE_EXAMPLES]
        result.update(combined)
        result["per_layer"], result["missing"] = trace.summarise(
            tracer, counters, traced.samples["read"], len(traced.samples["write"]),
            untraced.samples["read"],
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
