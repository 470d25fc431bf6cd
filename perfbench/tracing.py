"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each qpl module and replaces every
binding of them in every loaded qpl module, because the modules import each
other's functions by name (lfunctions binds multi_q_beta_poly, congruences
binds Lpq_special, cli binds most public names).  Each wrapper counts calls
and measures self time: its duration minus the time covered by the wrapped
calls beneath it.  Function-level calls are also kept as spans (id, parent
id, name, start, end) in memory and written out when the run ends;
PadicNumber arithmetic and character evaluation are counted and timed but
not kept span by span, since a grid pass makes millions of them.
"""

import functools
import json
import time
from collections import Counter, defaultdict

#: spans kept in memory per run; calls past the cap are still counted
SPAN_CAP = 100_000

BNR = "congruences.Bnr_structure"

# (group, module, attribute path, keep spans).  One group may cover several
# functions; its metrics are <group>.calls and <group>.self_s.
TARGETS = (
    ("padic.mul", "padic", "PadicNumber.__mul__", False),
    ("padic.mul", "padic", "PadicNumber.__rmul__", False),
    ("padic.add", "padic", "PadicNumber.__add__", False),
    ("padic.add", "padic", "PadicNumber.__radd__", False),
    ("padic.add", "padic", "PadicNumber.__sub__", False),
    ("padic.add", "padic", "PadicNumber.__rsub__", False),
    ("padic.add", "padic", "PadicNumber.__neg__", False),
    ("padic.div", "padic", "PadicNumber.__truediv__", False),
    ("padic.div", "padic", "PadicNumber.__rtruediv__", False),
    ("padic.from_fraction", "padic", "PadicNumber.from_fraction", False),
    ("padic.context", "padic", "QContext.__init__", False),
    ("padic.q_bracket", "padic", "QContext.q_bracket", False),
    ("padic.q_power", "padic", "QContext.q_power", False),
    ("padic.log_exp", "padic", "iwasawa_log", False),
    ("padic.log_exp", "padic", "padic_exp", False),
    ("padic.teichmuller", "padic", "teichmuller_int", False),
    ("padic.teichmuller", "padic", "teichmuller", False),
    ("characters", "characters", "char_twist_omega", True),
    ("characters", "characters", "DirichletCharacter.eval", False),
    ("characters", "characters", "omega_pow", True),
    ("characters", "characters", "parse_char_spec", True),
    ("classical", "classical", "sum_counts", True),
    ("classical", "classical", "bernoulli_number", True),
    ("classical", "classical", "stirling_first", True),
    ("qbernoulli.multi_q_beta_poly", "qbernoulli", "multi_q_beta_poly", True),
    ("qbernoulli.multi_gen_q_beta_poly", "qbernoulli",
     "multi_gen_q_beta_poly", True),
    ("qbernoulli.carlitz_beta", "qbernoulli", "carlitz_beta", True),
    ("qbernoulli.series_beta", "qbernoulli", "series_beta", True),
    ("lfunctions.Lpq_special", "lfunctions", "Lpq_special", True),
    ("lfunctions.Lpq_eval", "lfunctions", "Lpq_eval", True),
    ("lfunctions.Lpq_at_r", "lfunctions", "Lpq_at_r", True),
    ("congruences.verify", "congruences", "verify_thm53", True),
    ("congruences.verify", "congruences", "verify_thm54", True),
    ("congruences.verify", "congruences", "verify_binom_op_thm", True),
    (BNR, "congruences", "Bnr_structure", True),
    ("invariants", "invariants", "run_suites", True),
    ("cli.main", "cli", "main", True),
)

# per-layer metric -> (unit, source, key); source "calls", "self" or "count"
METRICS = {}
for _group in ("padic.mul", "padic.add", "padic.div", "padic.from_fraction",
               "padic.q_bracket", "padic.q_power", "padic.log_exp",
               "padic.teichmuller", "characters", "classical",
               "qbernoulli.multi_q_beta_poly",
               "qbernoulli.multi_gen_q_beta_poly", "qbernoulli.carlitz_beta",
               "lfunctions.Lpq_special", "lfunctions.Lpq_eval",
               "lfunctions.Lpq_at_r", "congruences.verify", "cli.main"):
    METRICS[_group + ".calls"] = ("count", "calls", _group)
    METRICS[_group + ".self_s"] = ("s", "self", _group)
METRICS.update({
    "padic.from_fraction.input_bits": ("bits", "count", "from_fraction_bits"),
    "padic.context_builds": ("count", "calls", "padic.context"),
    "qbernoulli.carlitz_entries_built": ("count", "count", "carlitz_entries"),
    "qbernoulli.series_beta.calls": ("count", "calls", "qbernoulli.series_beta"),
    "lfunctions.series_terms": ("count", "count", "series_terms"),
    BNR + ".calls": ("count", "calls", BNR),
    BNR + ".misses": ("count", "count", "bnr_misses"),
    "invariants.cases": ("count", "count", "suite_cases"),
    "invariants.self_s": ("s", "self", "invariants"),
})


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 1

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, group, fn, keep_span):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self
        before = self._before(group)
        after = self._after(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else 0
            if keep_span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent_id
            frame = [0.0, sid, group]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[group] += dt - frame[0]
                calls[group] += 1
                if parent is not None:
                    parent[0] += dt
                if keep_span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((sid, parent_id, group, t0, t1))
                    else:
                        tracer.dropped += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _before(self, group):
        """A hook on a call's arguments, for the counts taken at entry."""
        counts = self.counts
        stack = self._stack
        if group == "padic.from_fraction":
            def fraction_bits(args):
                x = args[1]
                if isinstance(x, int):
                    counts["from_fraction_bits"] += x.bit_length() + 1
                else:
                    counts["from_fraction_bits"] += (
                        x.numerator.bit_length() + x.denominator.bit_length())
            return fraction_bits
        if group == "lfunctions.Lpq_special":
            def miss(args):
                if any(frame[2] == BNR for frame in stack):
                    counts["bnr_misses"] += 1
            return miss
        return None

    def _after(self, group):
        """A hook on a call's result, for the counts taken at exit."""
        counts = self.counts
        if group in ("lfunctions.Lpq_eval", "lfunctions.Lpq_at_r"):
            def terms(result):
                counts["series_terms"] += result.terms_used
            return terms
        if group == "invariants":
            def cases(result):
                counts["suite_cases"] += sum(r.cases for r in result)
            return cases
        return None

    def _table_extend(self, fn):
        """QBernoulliTable.extend replaces the entries list whenever it
        rebuilds; count the entries of each new list.  Not a span, so the
        rebuild stays in carlitz_beta's self time."""
        counts = self.counts

        @functools.wraps(fn)
        def extend(table, n, target):
            old = table.entries
            fn(table, n, target)
            if table.entries is not old:
                counts["carlitz_entries"] += len(table.entries)

        return extend

    # -- installation ---------------------------------------------------------

    def install(self, qpl):
        """Wrap every target and rebind it wherever qpl modules hold it."""
        modules = [qpl.pkg] + [getattr(qpl, name) for name in qpl.MODULES]
        for group, modname, path, keep_span in TARGETS:
            owner = getattr(qpl, modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(group, raw.__func__, keep_span))
                else:
                    wrapped = self._wrap(group, raw, keep_span)
                setattr(cls, attr, wrapped)
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(group, orig, keep_span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
        table = qpl.qbernoulli.QBernoulliTable
        table.extend = self._table_extend(table.extend)

    # -- read-out -------------------------------------------------------------

    def snapshot(self):
        """Counts so far, for per-round differences."""
        return Counter(self.calls), Counter(self.counts), dict(self.self_s)

    @staticmethod
    def counts_between(before, after):
        """The count metrics of the work done between two snapshots."""
        out = {}
        for name, (unit, source, key) in METRICS.items():
            if source != "self":
                table = after[0] - before[0] if source == "calls" \
                    else after[1] - before[1]
                out[name] = {"value": table[key], "unit": unit}
        return out

    @staticmethod
    def times_between(before, after, rounds):
        """The self-time metrics between two snapshots, per round."""
        return {name: {"value": (after[2].get(key, 0.0)
                                 - before[2].get(key, 0.0)) / rounds,
                       "unit": unit}
                for name, (unit, source, key) in METRICS.items()
                if source == "self"}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dropped": self.dropped,
                                 "fields": ["id", "parent", "name",
                                            "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
