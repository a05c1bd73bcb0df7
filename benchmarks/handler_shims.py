"""Where one pass of an e2e workload goes, by exclusive shim time.

    python3 benchmarks/handler_shims.py ticker [--seed 7] [--root DIR]
    python3 benchmarks/handler_shims.py Q3

A diagnostic, not a benchmark (claims are made with ``benchmarks/e2e``):
every ``UpdateWrapper`` handler, every ``StateTransformer`` method, the
copy a region takes of a shared state (``State.copy``), the display and
the tokenizer get a timing shim at class level before any engine object
exists.  A shim charges its elapsed time minus that of
the shims that ran inside it; what no shim claims is the drain loop and
the executor around it.  The inputs and the pass are the e2e workload's
own (a paper query name runs that query alone over its document); the
fastest of five passes is reported.  A shim costs ~0.35 us per call, so
the numbers compare two trees measured this way (``--root`` names
another checkout), not with unshimmed wall time.
"""

import argparse
import gc
import sys
import time
from collections import defaultdict
from pathlib import Path

HANDLERS = ("_on_update_start", "_on_update_end", "_on_freeze", "_on_hide",
            "_on_show", "_active_data", "_dormant_data", "_activate_on",
            "on_end")
T_TIMED = {"process": "t.process"}
T_OTHER = ("adjust", "on_transition", "on_live_adjusted", "on_region_hidden",
           "on_region_shown", "on_region_frozen", "on_other", "on_end",
           "bracket_anchor", "update_policy", "state_cells")


def subclasses(root: type) -> set:
    """``root`` and every class below it."""
    found, todo = {root}, [root]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="an e2e workload or Q1..Q9")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--root", default=str(Path(__file__).parents[1]),
                        help="checkout to measure (default: this one)")
    args = parser.parse_args()
    sys.path[:0] = [args.root + "/src", args.root + "/benchmarks/e2e"]

    import workloads
    import repro.operators  # noqa: F401  (defines every transformer)
    import repro.xmlio.tokenizer as tokenizer
    from repro.core import transformer
    from repro.core.display import Display
    from repro.core.transformer import StateTransformer
    from repro.core.wrapper import UpdateWrapper

    clock = time.perf_counter
    exclusive, calls, stack = defaultdict(float), defaultdict(int), []

    def shim(name, fn):
        def timed(*a, **kw):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*a, **kw)
            finally:
                elapsed = clock() - start
                exclusive[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
        return timed

    for name in HANDLERS:
        setattr(UpdateWrapper, name,
                shim("W." + name, getattr(UpdateWrapper, name)))
    for cls in subclasses(StateTransformer):
        for name, fn in list(vars(cls).items()):
            if callable(fn) and (name in T_TIMED or name in T_OTHER):
                setattr(cls, name, shim(T_TIMED.get(name, "t.other"), fn))
    # A checkout from before state objects has no ``State`` class.
    state = getattr(transformer, "State", None)
    for cls in subclasses(state) if isinstance(state, type) else ():
        if "copy" in vars(cls):
            cls.copy = shim("state.copy", vars(cls)["copy"])
    Display.process = shim("display.process", Display.process)
    Display.text = shim("display.text", Display.text)
    plain = tokenizer.tokenize
    timed_tokenize = shim("tokenize", plain)
    for module in list(sys.modules.values()):
        if getattr(module, "tokenize", None) is plain:
            module.tokenize = timed_tokenize

    if args.workload in workloads.QUERIES:
        workload = workloads.XmlWorkload(
            "doc_heavy", args.seed, False,
            [(args.workload, workloads.QUERIES[args.workload])],
            "independent")
    else:
        workload = workloads.make_workload(args.workload, args.seed)
    workload.groups = workload.build_groups()
    for group in workload.groups:
        group.oracle = workload.answers(group)
    workload.run_pass()  # warm
    best = None
    for _ in range(5):
        exclusive.clear()
        calls.clear()
        gc.collect()
        start = clock()
        result = workload.run_pass()
        wall = clock() - start
        if workload.mismatches(result):
            raise SystemExit("answers differ from the oracle")
        if best is None or wall < best[0]:
            best = (wall, dict(exclusive), dict(calls))
    wall, exclusive, calls = best
    print("{} seed {}: shimmed pass {:.3f} s".format(
        args.workload, args.seed, wall))
    for name, secs in sorted(exclusive.items(), key=lambda kv: -kv[1]):
        print("  {:22s} {:8.4f} s {:5.1f} % {:8d} calls {:6.2f} us/call"
              .format(name, secs, 100 * secs / wall, calls[name],
                      1e6 * secs / calls[name]))
    rest = wall - sum(exclusive.values())
    print("  {:22s} {:8.4f} s {:5.1f} %".format("drain + executor", rest,
                                                100 * rest / wall))
    handlers = sum(s for n, s in exclusive.items() if n.startswith("W."))
    print("  {:22s} {:8.4f} s {:5.1f} %".format("all W.* handlers", handlers,
                                                100 * handlers / wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
