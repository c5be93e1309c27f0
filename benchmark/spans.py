"""In-memory spans around the wigcheck functions that the CLI calls.

A traced operation replaces each function below, in the module namespace it
is called through, by a wrapper that records a span; the originals are put
back when the operation ends.  Spans are [name, start, end, parent] with
perf_counter times, and a span's self time is its duration minus that of
its child spans.
"""

import functools
import importlib
import time
from contextlib import contextmanager

# (span name, module the caller looks the name up in, function names)
LAYERS = [
    ("states.build_s", "wigcheck.cli", ("fock_state", "wigner_of_pure", "mixture_wigner",
                                        "wigner_gaussian", "rescale", "truncated_bump_grid")),
    ("fixtures.no_grid_s", "wigcheck.cli", ("narcowich_oconnell_grid",)),
    ("states.load_manifest_s", "wigcheck.cli", ("load_wigner_manifest",)),
    ("states.save_manifest_s", "wigcheck.states", ("save_wigner_manifest",)),
    ("uncertainty.covariance_s", "wigcheck.cli", ("covariance_from_grid",)),
    ("uncertainty.report_s", "wigcheck.cli", ("uncertainty_report",)),
    ("fixtures.moment_p4_s", "wigcheck.cli", ("moment_p4",)),
    ("klm.check_s", "wigcheck.cli", ("klm_check",)),
    ("klm.matrix_s", "wigcheck.klm", ("klm_matrix",)),
    ("domination.compact_flag_s", "wigcheck.cli", ("compact_support_flag",)),
    ("domination.fit_s", "wigcheck.cli", ("fit_dominating_gaussian",)),
    ("domination.hardy_fit_s", "wigcheck.cli", ("hardy_fit",)),
    ("blobs.s", "wigcheck.cli", ("capacity", "is_admissible", "find_contained_blob",
                                 "section_area")),
    ("states.oracle_eig_s", "wigcheck.cli", ("operator_spectrum_oracle",)),
    ("states.kernel_s", "wigcheck.states", ("kernel_from_wigner",)),
    ("cli.emit_s", "wigcheck.cli", ("_emit",)),
]
SPAN_NAMES = [name for name, _, _ in LAYERS]


class Recorder:
    """Collects spans of one process."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route every function in LAYERS through a span while the block runs."""
        saved = []
        try:
            for name, module, attrs in LAYERS:
                mod = importlib.import_module(module)
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self, root):
        """Self time summed per span name over the subtree rooted at span `root`."""
        inside = {root}
        child_time = {}
        for i in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if parent in inside:
                inside.add(i)
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {}
        for i in sorted(inside):
            name, start, end, _ = self.spans[i]
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(i, 0.0)
        return totals
