"""Span tracing from outside the package.

Each public function is wrapped at the name its caller looks it up under
(``otiso.decision.core_of`` is what ``decide_isomorphism`` calls), so the
package itself is untouched.  Spans stay in memory; self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> the module attributes its callers resolve at call time
WRAP = {
    "cli.main": ["otiso.cli.main"],
    "io.read_tensor": ["otiso.io.read_tensor"],
    "io.write_witness_json": ["otiso.io.write_witness_json"],
    "io.dumps_canonical": ["otiso.io.dumps_canonical"],
    "decision.decide_isomorphism": ["otiso.cli.decide_isomorphism"],
    "decision.decide_orbit_distance": ["otiso.cli.decide_orbit_distance"],
    "decision.truncate_tensor": ["otiso.decision.truncate_tensor"],
    "decision.verify_witness": ["otiso.decision.verify_witness"],
    "hosvd.core_of": ["otiso.decision.core_of"],
    "hosvd.compare_cores": ["otiso.decision.compare_cores"],
    "phases.solve_signs": ["otiso.decision.solve_signs"],
    "phases.solve_phases": ["otiso.decision.solve_phases"],
    "phases.assemble_witness": ["otiso.decision.assemble_witness"],
    "phases.linprog": ["scipy.optimize.linprog"],
    "spectral.eig_hermitian": ["otiso.hosvd.eig_hermitian", "otiso.decision.eig_hermitian",
                               "otiso.gaps.eig_hermitian", "otiso.hypergraph.eig_hermitian"],
    "spectral.spectra_close": ["otiso.decision.spectra_close"],
    "tensor.gram": ["otiso.hosvd.gram", "otiso.decision.gram", "otiso.gaps.gram", "otiso.hypergraph.gram"],
    "tensor.apply_action": ["otiso.hosvd.apply_action", "otiso.decision.apply_action"],
    "tensor.sample_entries": ["otiso.gaps.sample_entries", "otiso.tensor.sample_entries"],
    "tensor.sample_tensor": ["otiso.gaps.sample_tensor"],
    "gaps.run_gap_experiment": ["otiso.cli.run_gap_experiment"],
    "gaps.run_tensor_gram_experiment": ["otiso.cli.run_tensor_gram_experiment"],
    "gaps.emit_csv": ["otiso.cli.emit_csv"],
    "hypergraph.read_hypergraph": ["otiso.cli.read_hypergraph"],
    "hypergraph.adjacency_tensor": ["otiso.hypergraph.adjacency_tensor"],
    "hypergraph.relabel": ["otiso.hypergraph.relabel"],
    "hypergraph.decide_hypergraph_iso": ["otiso.cli.decide_hypergraph_iso"],
}

COUNTS = ("hosvd.phase_targets", "hosvd.reject_far", "phases.infeasible", "decision.yes", "decision.witnesses")


class Tracer:
    """Records spans and work counts while installed; ``close`` restores the original functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = None
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for name, targets in WRAP.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "Infeasible" and name.startswith("phases.solve_"):
                    self.counts["phases.infeasible"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._count(name, result)
            return result

        return traced

    def _count(self, name, result) -> None:
        if name == "hosvd.compare_cores":
            if type(result).__name__ == "RejectFar":
                self.counts["hosvd.reject_far"] += 1
            else:
                self.counts["hosvd.phase_targets"] += len(result.phase_targets)
        elif name == "phases.assemble_witness":
            self.counts["decision.witnesses"] += 1
        elif name.startswith("decision.decide_") and result.verdict == "yes":
            self.counts["decision.yes"] += 1

    def self_times(self) -> dict:
        """Per span name: (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in WRAP}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name][0] += (end - start) - covered
            out[name][1] += 1
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
