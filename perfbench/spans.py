"""Spans for the traced run, placed from outside the program.

A span is opened around a call at a layer boundary by rebinding the public
name the caller imported (``znmap.analysis.step_batch``, the entries of
``znmap.verify.CHECKS_BY_NAME``, ...), and restored afterwards.  Spans live
in flat arrays in memory -- name, parent span, operation id, start, end --
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np

import znmap.analysis
import znmap.maps
import znmap.singularity
import znmap.topology
import znmap.verify

FAMILIES = ("f4", "g4", "fn", "h", "hn")
JAC_FAMILIES = ("g4", "fn", "h", "hn")  # no workload takes jac_map of f4
GEOMETRY = ("to_polar", "from_polar", "sector_of")
SINGULARITY = ("build_Q", "codimension_check", "rank_exact", "module_decompose")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.op_id = -1
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), op=np.asarray(self.op),
                            start=np.asarray(self.start), end=np.asarray(self.end))


def _spanned(tracer, fn, label, after=None):
    def wrapper(*args, **kwargs):
        sid = tracer.open(label(*args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def _counted(tracer, fn, name):
    def wrapper(*args, **kwargs):
        tracer.count(name, 1)
        return fn(*args, **kwargs)
    return wrapper


def _boundaries(tracer, bench):
    """(owner, name, span label, after-call counter) for every rebound name;
    ``bench`` is the benchmark's own workloads module, itself a caller."""
    def fixed(name):
        return lambda *args: name

    def by_family(name):
        return lambda spec, *args: f"{name}.{spec.family}"

    def after_step(result, spec, x, y):
        tracer.count(f"step.{spec.family}.points", np.size(x))

    def after_classify(result, spec, xs, ys, budget=10_000, *rest, **kwargs):
        kinds, _ = result
        undecided = int((kinds == 0).sum())
        tracer.count(f"classify.{spec.family}.pixels", kinds.size)
        tracer.count(f"classify.{spec.family}.undecided", undecided)
        tracer.count(f"classify.{spec.family}.wasted", undecided * budget)

    spans = []
    for owner in (znmap.verify, bench):
        spans += [(owner, "basin_raster", by_family("topology.basin_raster"), None),
                  (owner, "find_periodic", fixed("analysis.find_periodic"), None),
                  (owner, "spectral_scan", by_family("analysis.spectral_scan"), None),
                  (owner, "estimate_rotation", fixed("topology.estimate_rotation"), None)]
    for owner in (znmap.verify, znmap.topology):
        spans.append((owner, "classify_batch", by_family("analysis.classify_batch"),
                      after_classify))
    for owner in (znmap.verify, znmap.topology, znmap.analysis):
        spans.append((owner, "eval_map", by_family("maps.eval_map"), None))
    spans += [(znmap.analysis, "jac_map", by_family("maps.jac_map"), None),
              (znmap.analysis, "step_batch", by_family("maps.step_batch"), after_step)]
    spans += [(znmap.maps, fn, fixed(f"geometry.{fn}"), None) for fn in GEOMETRY]
    spans += [(znmap.singularity, fn, fixed(f"singularity.{fn}"), None)
              for fn in SINGULARITY]
    spans += [(znmap.verify.CHECKS_BY_NAME, check, fixed(f"verify.{check}"), None)
              for check in znmap.verify.CHECKS_BY_NAME]
    return spans


@contextmanager
def traced(tracer, bench):
    """Rebind every boundary name to a spanned wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, label, after in _boundaries(tracer, bench):
            if isinstance(owner, dict):
                saved.append((owner, attr, owner[attr]))
                owner[attr] = _spanned(tracer, owner[attr], label, after)
            else:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, _spanned(tracer, getattr(owner, attr), label, after))
        poly = znmap.singularity.Poly2
        for attr in ("__mul__", "__rmul__"):
            saved.append((poly, attr, poly.__dict__[attr]))
            setattr(poly, attr, _counted(tracer, poly.__dict__[attr], "Poly2.mul"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer, traced_ops: int) -> dict:
    """Per-layer metrics of the traced operations: {name: (value, unit)}.

    Times and counts are per traced operation; ``ns`` metrics are per call.
    A layer or family the workload never enters reads 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nspans = len(name)
    nnames = len(tracer.names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nspans)
    calls = np.bincount(name, minlength=nnames)
    total = np.bincount(name, weights=dur, minlength=nnames)
    own = np.bincount(name, weights=dur - child, minlength=nnames)
    pair_codes, pair_counts = np.unique(
        name[has_parent].astype(np.int64) * nnames + name[parent[has_parent]],
        return_counts=True)
    pairs = {(tracer.names[c // nnames], tracer.names[c % nnames]): int(n)
             for c, n in zip(pair_codes, pair_counts)}
    ids = {n: i for i, n in enumerate(tracer.names)}
    ctr = tracer.counters
    ops = max(traced_ops, 1)

    def stat(table, span):
        return float(table[ids[span]]) if span in ids else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for check in znmap.verify.CHECKS_BY_NAME:
        m[f"verify.{check}.s"] = (stat(total, f"verify.{check}") / ops, "s")
    for fam in FAMILIES:
        m[f"topology.basin_raster.{fam}.self_s"] = (
            stat(own, f"topology.basin_raster.{fam}") / ops, "s")
    for fam in FAMILIES:
        classify = f"analysis.classify_batch.{fam}"
        points = ctr.get(f"step.{fam}.points", 0)
        m[f"{classify}.self_s"] = (stat(own, classify) / ops, "s")
        m[f"{classify}.undecided_share"] = (
            ratio(ctr.get(f"classify.{fam}.undecided", 0), ctr.get(f"classify.{fam}.pixels", 0)),
            "ratio")
        m[f"{classify}.wasted_point_step_share"] = (
            ratio(ctr.get(f"classify.{fam}.wasted", 0), points), "ratio")
    for fam in FAMILIES:
        step = f"maps.step_batch.{fam}"
        points = ctr.get(f"step.{fam}.points", 0)
        m[f"{step}.calls"] = (stat(calls, step) / ops, "count")
        m[f"{step}.point_steps"] = (points / ops, "count")
        m[f"{step}.ns_per_point_step"] = (ratio(stat(total, step), points) * 1e9, "ns")
    for fam in FAMILIES:
        span = f"maps.eval_map.{fam}"
        m[f"{span}.ns"] = (ratio(stat(total, span), stat(calls, span)) * 1e9, "ns")
    for fam in JAC_FAMILIES:
        span = f"maps.jac_map.{fam}"
        m[f"{span}.ns"] = (ratio(stat(total, span), stat(calls, span)) * 1e9, "ns")
    solve = "analysis.find_periodic"
    m[f"{solve}.s"] = (stat(total, solve) / ops, "s")
    m[f"{solve}.eval_calls_per_solve"] = (
        ratio(sum(pairs.get((f"maps.eval_map.{f}", solve), 0) for f in FAMILIES),
              stat(calls, solve)), "count")
    for fam in FAMILIES:
        scan = f"analysis.spectral_scan.{fam}"
        m[f"{scan}.s"] = (stat(total, scan) / ops, "s")
        m[f"{scan}.jac_calls"] = (pairs.get((f"maps.jac_map.{fam}", scan), 0) / ops, "count")
    rotation = "topology.estimate_rotation"
    m[f"{rotation}.eval_calls"] = (
        sum(pairs.get((f"maps.eval_map.{f}", rotation), 0) for f in FAMILIES) / ops, "count")
    polar_evals = stat(calls, "maps.eval_map.fn") + stat(calls, "maps.eval_map.hn")
    for fn in GEOMETRY:
        under = sum(pairs.get((f"geometry.{fn}", f"maps.eval_map.{f}"), 0) for f in ("fn", "hn"))
        m[f"geometry.{fn}.calls_per_eval"] = (ratio(under, polar_evals), "count")
    m["geometry.s"] = (sum(stat(total, f"geometry.{fn}") for fn in GEOMETRY) / ops, "s")
    m["singularity.build_Q.s"] = (stat(total, "singularity.build_Q") / ops, "s")
    m["singularity.codimension_check.s"] = (stat(total, "singularity.codimension_check") / ops, "s")
    for fn in ("rank_exact", "module_decompose"):
        m[f"singularity.{fn}.calls"] = (stat(calls, f"singularity.{fn}") / ops, "count")
        m[f"singularity.{fn}.s"] = (stat(total, f"singularity.{fn}") / ops, "s")
    m["singularity.Poly2.mul.calls"] = (ctr.get("Poly2.mul", 0) / ops, "count")
    return m
