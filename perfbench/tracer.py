"""Per-layer tracing of freecert from outside the package.

The tracer replaces functions and methods of the freecert modules with
timing wrappers for the length of a traced run and restores them after.
Modules bind one another's functions with `from .x import y`, so a
function is patched under every module attribute that holds it, and a
method on its class.

Layer-boundary calls record spans (name, start, end, parent span,
request id), kept in memory and written out when the run ends.  Hot
leaves only add to count-plus-time counters.  Both feed the same
self-time accounting: a call's self time is its duration minus the time
of the traced calls nested in it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, function, metric name, record a span?)
FUNCTIONS = (
    ("cli", "parse_problem", "cli.parse_problem", True),
    ("cli", "cmd_analyze", "cli.command", True),
    ("cli", "cmd_pingpong", "cli.command", True),
    ("cli", "cmd_synthesize", "cli.command", True),
    ("cli", "cmd_tree", "cli.command", True),
    ("certfmt", "dumps", "certfmt.dumps", True),
    ("certfmt", "verify", "certfmt.verify", True),
    ("certfmt", "check_claim", "certfmt.check_claim", True),
    ("synthesis", "truncated_prodense", "synthesis.truncated_prodense", True),
    ("synthesis", "find_host", "synthesis.find_host", True),
    ("synthesis", "normal_proximal", "synthesis.normal_proximal", True),
    ("synthesis", "coset_pingpong", "synthesis.coset_pingpong", True),
    ("synthesis", "double_coset_wrap", "synthesis.double_coset_wrap", True),
    ("synthesis", "b1b2b3_synthesize", "synthesis.b1b2b3", True),
    ("synthesis", "conjugate_contract", "synthesis.conjugate_contract", True),
    ("synthesis", "very_proximal_search", "synthesis.very_proximal_search", True),
    ("synthesis", "auto_very_proximal", "synthesis.auto_very_proximal", True),
    ("pingpong", "freeness_oracle", "pingpong.freeness_oracle", True),
    ("pingpong", "certify_tuple", "pingpong.certify_tuple", True),
    ("dynamics", "certify_contracting", "dynamics.certify", True),
    ("dynamics", "certify_proximal", "dynamics.certify", True),
    ("dynamics", "certify_very_proximal", "dynamics.certify", True),
    ("tree", "classify", "tree.classify", True),
    ("tree", "kernel_of_action", "tree.kernel", True),
    ("tree", "tree_pingpong", "tree.pingpong", True),
    ("dynamics", "singular_profile", "dynamics.singular_profile", False),
    ("dynamics", "padic_exponents", "dynamics.padic_exponents", False),
    ("rootiso", "isolate_positive_roots", "rootiso.isolate", False),
    ("projective", "det", "projective.det", False),
    ("projective", "dist_sq", "projective.metric", False),
    ("projective", "dist_to_hyperplane_sq", "projective.metric", False),
    ("projective", "dual_dist_sq", "projective.metric", False),
    ("projective", "set_disjoint", "projective.set_disjoint", False),
    ("projective", "set_contains", "projective.set_contains", False),
    ("scalar", "cmp_sqrt_sum", "scalar.cmp_sqrt_sum", False),
    ("scalar", "sqrt_lower", "scalar.sqrt_bound", False),
    ("scalar", "sqrt_upper", "scalar.sqrt_bound", False),
)

# (module, class, method, metric name); all are hot leaves.
METHODS = (
    ("projective", "ProjMat", "__matmul__", "projective.matmul"),
    ("tree", "TreeAut", "append_letter", "tree.append_letter"),
    ("tree", "BassSerreTree", "neighbors", "tree.neighbors"),
    ("tree", "BassSerreTree", "ball", "tree.ball"),
)

DECIDED_DISJOINT = ("disjoint", "overlap")


def _reduced_words(generators: int, max_len: int) -> int:
    """Number of nonempty freely reduced words of length <= max_len."""
    letters = 2 * generators
    return sum(letters * (letters - 1) ** (n - 1) for n in range(1, max_len + 1))


def _count_result(tracer: "Tracer", name: str, result) -> None:
    c = tracer.counts
    if name == "certfmt.dumps":
        c["cert_bytes"] += len(result)
    elif name == "synthesis.auto_very_proximal":
        c["avp_found"] += result is not None
    elif name == "dynamics.certify":
        c["certify_yes"] += result.kind == "yes"
    elif name == "projective.set_disjoint":
        c["disjoint_decided"] += result.kind in DECIDED_DISJOINT


COUNTED = ("certfmt.dumps", "synthesis.auto_very_proximal", "dynamics.certify", "projective.set_disjoint")


class Tracer:
    """Install with `install()`, run requests inside `request()`, then
    `uninstall()` and read `metrics()` / `write_spans()`."""

    def __init__(self):
        self.modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("freecert.") and mod is not None
        }
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {"cert_bytes": 0, "avp_found": 0, "certify_yes": 0, "disjoint_decided": 0}
        self.oracle_words = 0
        self.oracle_free_s = 0.0
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [name, child_s, span id or None]
        self.span_stack: list[int] = []
        self.request_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, orig, name: str, span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        counted = name in COUNTED
        oracle = name == "pingpong.freeness_oracle"
        tracer = self

        def wrapper(*args, **kwargs):
            if not span and stack and stack[-1][0] == name:
                return orig(*args, **kwargs)  # recursion inside a leaf
            sid = None
            if span:
                sid = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            frame = [name, 0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, name, start, end, parent, tracer.request_id)
            if counted:
                _count_result(tracer, name, result)
            elif oracle and result.kind == "no-relation":
                tracer.oracle_words += _reduced_words(len(args[0]), args[1])
                tracer.oracle_free_s += dur
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, fn_name, name, span in FUNCTIONS:
            orig = getattr(self.modules[mod_name], fn_name)
            wrapped = self._wrap(orig, name, span)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, False))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def request(self, request_id: int, name: str, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self.request_id = request_id
        return self._wrap(fn, name, True)(*args)

    # -- results -------------------------------------------------------

    def _stat(self, name: str) -> list[float]:
        return self.stats.get(name, [0, 0.0, 0.0])

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def calls(name: str) -> None:
            out[f"{name}.calls"] = (self._stat(name)[0], "count")

        def self_s(name: str) -> None:
            out[f"{name}.self_s"] = (self._stat(name)[2], "s")

        self_s("cli.parse_problem")
        self_s("cli.command")
        self_s("certfmt.dumps")
        out["certfmt.cert_bytes"] = (self.counts["cert_bytes"], "bytes")
        self_s("certfmt.verify")
        calls("certfmt.check_claim")
        for name in ("find_host", "normal_proximal", "coset_pingpong"):
            self_s(f"synthesis.{name}")
        calls("synthesis.auto_very_proximal")
        avp = self._stat("synthesis.auto_very_proximal")[0]
        out["synthesis.auto_very_proximal.found_ratio"] = (ratio(self.counts["avp_found"], avp), "1")
        self_s("pingpong.freeness_oracle")
        out["pingpong.oracle_words_per_s"] = (ratio(self.oracle_words, self.oracle_free_s), "1/s")
        self_s("pingpong.certify_tuple")
        calls("dynamics.singular_profile")
        self_s("dynamics.singular_profile")
        self_s("dynamics.padic_exponents")
        calls("dynamics.certify")
        self_s("dynamics.certify")
        certify = self._stat("dynamics.certify")[0]
        out["dynamics.certify.yes_ratio"] = (ratio(self.counts["certify_yes"], certify), "1")
        for name in ("projective.det", "projective.matmul", "projective.metric"):
            calls(name)
            self_s(name)
        self_s("projective.set_disjoint")
        disjoint = self._stat("projective.set_disjoint")[0]
        out["projective.set_disjoint.decided_ratio"] = (ratio(self.counts["disjoint_decided"], disjoint), "1")
        self_s("projective.set_contains")
        calls("rootiso.isolate")
        self_s("rootiso.isolate")
        calls("scalar.cmp_sqrt_sum")
        self_s("scalar.cmp_sqrt_sum")
        calls("scalar.sqrt_bound")
        self_s("tree.classify")
        calls("tree.neighbors")
        calls("tree.append_letter")
        for name in ("tree.append_letter", "tree.ball", "tree.kernel", "tree.pingpong"):
            self_s(name)
        out["trace.overhead_ratio"] = (overhead_ratio, "1")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "request": req}))
                fh.write("\n")
