"""Span tracing from outside bevkit, for the benchmark's traced runs.

The tracer replaces public functions at the place the package looks them up
(a module attribute such as ``bevkit.model.encode_camera_bev``, a class
attribute such as ``bevkit.dataset.SceneDataset.load``, or an attribute of one
object such as ``detector.cam_backbone.forward``) with a wrapper that records
a span around the call. Backward time of a tape op is recorded by wrapping the
``vjp`` on the ``node`` of the tensor the op returned. Spans are kept in memory
as ``[name, start_ns, end_ns, parent_index, attrs]`` and turned into the
per-module metrics when the run ends. Nothing here edits the package's files.

A target that no longer exists is not an error: the metrics that depend on it
are reported as unmeasured (value ``null``) and listed by name.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns

# The per-module metrics and their units are listed in BENCHMARK.json; the
# README says which end-to-end metric each one should move, and on which
# workload.

# (module, attribute path, span name, metrics that need it). Module-level and
# class-level targets are installed before set-up; see OBJECT_TARGETS below.
MODULE_TARGETS = [
    ("bevkit.tensor", "backward", "tensor.backward",
     ["tensor.backward_ms", "tensor.tape_nodes", "tensor.tape_mb"]),
    ("bevkit.tensor", "deform_attend", "tensor.deform_attend",
     ["tensor.deform_attend.fwd_ms", "tensor.deform_attend.bwd_ms",
      "tensor.deform_attend.pairs", "attention.visible_pair_frac"]),
    ("bevkit.tensor", "conv2d_3x3", "tensor.conv3x3",
     ["tensor.conv3x3.fwd_ms", "tensor.conv3x3.bwd_ms"]),
    ("bevkit.attention", "deform_attn_multi", "attention.deform_attn_multi",
     ["attention.visible_pair_frac"]),
    ("bevkit.model", "encode_camera_bev", "encoders.camera",
     ["encoders.camera_ms", "encoders.camera_calls_per_scene"]),
    ("bevkit.model", "encode_lidar_bev", "encoders.lidar",
     ["encoders.lidar_ms", "encoders.lidar_calls_per_scene"]),
    ("bevkit.model", "fuse", "fusion.fuse", ["fusion.fuse_ms"]),
    ("bevkit.model", "decode", "detection.decode", ["detection.decode_ms"]),
    ("bevkit.model", "set_loss", "detection.set_loss", ["detection.set_loss_ms"]),
    ("bevkit.detection", "hungarian_match", "detection.match", ["detection.match_ms"]),
    ("bevkit.model", "Detector.predict", "model.predict",
     ["model.predict_ms.both", "model.predict_ms.camera", "model.predict_ms.lidar"]),
    ("bevkit.optim", "Adam.step", "optim.adam_step", ["optim.adam_step_ms"]),
    ("bevkit.evaluation", "evaluate_conditions", "evaluation.evaluate_conditions",
     ["encoders.camera_calls_per_scene", "encoders.lidar_calls_per_scene",
      "model.predict_ms.both", "model.predict_ms.camera", "model.predict_ms.lidar"]),
    ("bevkit.evaluation", "mean_ap", "evaluation.mean_ap", ["evaluation.mean_ap_ms"]),
    ("bevkit.dataset", "SceneDataset.load", "dataset.load", ["dataset.load_ms"]),
    ("bevkit.dataset", "generate_dataset", "dataset.generate_dataset",
     ["dataset.generate_self_ms"]),
    ("bevkit.dataset", "render_scene_record", "dataset.render_record",
     ["dataset.render_record_ms", "dataset.generate_self_ms"]),
    ("bevkit.dataset", "sample_scene", "synthscene.sample_scene",
     ["synthscene.sample_scene_ms"]),
    ("bevkit.dataset", "render_cameras", "synthscene.render_cameras",
     ["synthscene.render_cameras_ms"]),
    ("bevkit.dataset", "render_lidar", "synthscene.render_lidar",
     ["synthscene.render_lidar_ms"]),
    ("bevkit.checkpoint", "save_checkpoint", "checkpoint.save", ["checkpoint.save_ms"]),
    ("bevkit.checkpoint", "load_checkpoint", "checkpoint.load", ["checkpoint.load_ms"]),
]

# Attributes of the detector the workload builds; installed after set-up.
OBJECT_TARGETS = [
    ("cam_backbone.forward", "synthscene.backbone.camera", ["synthscene.backbone_ms.camera"]),
    ("lidar_backbone.forward", "synthscene.backbone.lidar", ["synthscene.backbone_ms.lidar"]),
]

# Spans whose per-call mean inclusive time is the metric.
_PER_CALL_MS = {
    "tensor.backward_ms": "tensor.backward",
    "tensor.deform_attend.fwd_ms": "tensor.deform_attend",
    "tensor.deform_attend.bwd_ms": "tensor.deform_attend.bwd",
    "tensor.conv3x3.fwd_ms": "tensor.conv3x3",
    "tensor.conv3x3.bwd_ms": "tensor.conv3x3.bwd",
    "encoders.camera_ms": "encoders.camera",
    "encoders.lidar_ms": "encoders.lidar",
    "synthscene.backbone_ms.camera": "synthscene.backbone.camera",
    "synthscene.backbone_ms.lidar": "synthscene.backbone.lidar",
    "synthscene.sample_scene_ms": "synthscene.sample_scene",
    "synthscene.render_cameras_ms": "synthscene.render_cameras",
    "synthscene.render_lidar_ms": "synthscene.render_lidar",
    "fusion.fuse_ms": "fusion.fuse",
    "detection.decode_ms": "detection.decode",
    "detection.match_ms": "detection.match",
    "detection.set_loss_ms": "detection.set_loss",
    "optim.adam_step_ms": "optim.adam_step",
    "evaluation.mean_ap_ms": "evaluation.mean_ap",
    "dataset.load_ms": "dataset.load",
    "dataset.render_record_ms": "dataset.render_record",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
}


def _resolve(root, path):
    """(owner, attribute name) for a dotted path below root, or None."""
    *owners, attr = path.split(".")
    obj = root
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if not callable(getattr(obj, attr, None)):
        return None
    return obj, attr


def tape_size(loss):
    """Tensors with a graph node reachable from loss, and the MB of data held
    by every tensor reachable from it (nodes and leaves)."""
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    nbytes = 0
    while stack:
        t = stack.pop()
        nbytes += t.data.nbytes
        if t.node is None:
            continue
        nodes += 1
        for p in t.node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, nbytes / 1e6


class Tracer:
    """Records nested spans around wrapped calls. Single-threaded by design:
    the benchmark is one closed-loop caller, so a stack gives each span its
    parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.unmeasured = set()

    # -- recording -----------------------------------------------------------

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def _timed(self, fn, name, attrs_of=None, after=None, metrics=()):
        """Wrap fn in a span. attrs_of reads span attributes from the call's
        arguments; if the arguments no longer have the expected form, the
        metrics that need those attributes become unmeasured."""

        def wrapper(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                try:
                    attrs = attrs_of(args, kwargs)
                except (AttributeError, KeyError, TypeError):
                    self.unmeasured.update(metrics)
            idx = self.open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _time_vjp(self, out, name, metrics):
        node = getattr(out, "node", None)
        vjp = getattr(node, "vjp", None)
        if vjp is None:  # no tape was recorded (no_grad) or the node changed form
            return

        def timed_vjp(g):
            idx = self.open(name)
            try:
                vjp(g)
            finally:
                self.close(idx)

        try:
            node.vjp = timed_vjp
        except AttributeError:
            self.unmeasured.update(metrics)

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        old = vars(owner)[attr] if had_own else None
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, had_own, old))

    def install_modules(self):
        """Wrap the module- and class-level targets."""
        for modname, path, span, metrics in MODULE_TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            found = _resolve(module, path) if module is not None else None
            if found is None:
                self.unmeasured.update(metrics)
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._wrapper_for(span, fn, metrics))

    def install_object(self, obj):
        """Wrap the per-object targets on the detector."""
        for path, span, metrics in OBJECT_TARGETS:
            found = _resolve(obj, path)
            if found is None:
                self.unmeasured.update(metrics)
                continue
            owner, attr = found
            self._patch(owner, attr, self._timed(getattr(owner, attr), span))

    def uninstall(self):
        for owner, attr, had_own, old in reversed(self._undo):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrapper_for(self, span, fn, metrics):
        try:
            arguments = inspect.signature(fn).bind
        except (TypeError, ValueError):
            arguments = None

        def bound(args, kwargs):
            return arguments(*args, **kwargs).arguments

        if span == "tensor.backward":
            return self._backward_wrapper(fn, metrics)
        if span in ("tensor.deform_attend", "tensor.conv3x3"):
            attrs = None
            if span == "tensor.deform_attend":
                def attrs(args, kwargs):
                    b = bound(args, kwargs)
                    return {"pairs": len(b["qry_idx"]), "maps": b["feats"].shape[0],
                            "queries": b["offsets"].shape[0]}

            return self._timed(fn, span, attrs,
                               lambda out: self._time_vjp(out, span + ".bwd", metrics),
                               metrics)
        if span == "attention.deform_attn_multi":
            def attrs(args, kwargs):
                params = bound(args, kwargs)["params"]
                return {"cross": any(".cross_attn." in p.name for p in params.parameters())}

            return self._timed(fn, span, attrs, metrics=metrics)
        if span == "model.predict":
            def attrs(args, kwargs):
                return {"label": bound(args, kwargs)["mask"].label}

            return self._timed(fn, span, attrs, metrics=metrics)
        if span == "dataset.generate_dataset":
            def attrs(args, kwargs):
                return {"records": bound(args, kwargs)["n_scenes"]}

            return self._timed(fn, span, attrs, metrics=metrics)
        return self._timed(fn, span)

    def _backward_wrapper(self, fn, metrics):
        def wrapper(loss, *args, **kwargs):
            try:
                nodes, mb = tape_size(loss)  # outside the span: it is tracing work
            except AttributeError:
                nodes = mb = None
                self.unmeasured.update(metrics)
            idx = self.open("tensor.backward", {"nodes": nodes, "mb": mb})
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------------

    def _ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self, t0_ns=None):
        """name -> [calls, inclusive ms, self ms] over spans starting at or
        after t0_ns. Self time is a span minus the spans directly inside it."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if t0_ns is not None and start < t0_ns:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e6
            row[2] += (end - start - child_ns[i]) / 1e6
        return out

    def metrics(self, loop_t0_ns, scene_scope, n_scenes, overhead_pct):
        """Per-module metrics over the spans of the measured loop (those that
        start at or after loop_t0_ns). Scene generation runs only in set-up on
        train and eval, so generate_dataset spans and the spans inside them
        count from set-up too.

        Times are mean inclusive ms per call, except dataset.generate_self_ms,
        which is generate_dataset self time per record. A metric whose span
        never ran reads 0; one whose target is missing reads None. Encoder
        calls per scene count the encoder spans inside scene_scope spans (all
        kept spans when scene_scope is None), divided by n_scenes."""
        times = self.self_times()
        by_name = {}
        for i, span in enumerate(self.spans):
            if (span[1] >= loop_t0_ns or span[0] == "dataset.generate_dataset"
                    or self._ancestor(i, "dataset.generate_dataset")):
                by_name.setdefault(span[0], []).append(i)

        def dur(i):
            return (self.spans[i][2] - self.spans[i][1]) / 1e6

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        out = {}
        for metric, span in _PER_CALL_MS.items():
            out[metric] = mean([dur(i) for i in by_name.get(span, [])])

        def attrs(span, key):
            """The attribute key of every span of this name that recorded it."""
            values = [(self.spans[i][4] or {}).get(key) for i in by_name.get(span, [])]
            return [v for v in values if v is not None]

        out["tensor.tape_nodes"] = mean(attrs("tensor.backward", "nodes"))
        out["tensor.tape_mb"] = mean(attrs("tensor.backward", "mb"))
        out["tensor.deform_attend.pairs"] = mean(attrs("tensor.deform_attend", "pairs"))

        pairs = slots = 0
        for i in by_name.get("tensor.deform_attend", []):
            a = self.spans[i][4] or {}
            parent = self.spans[i][3]
            if a and parent >= 0 and (self.spans[parent][4] or {}).get("cross"):
                pairs += a["pairs"]
                slots += a["maps"] * a["queries"]
        out["attention.visible_pair_frac"] = pairs / slots if slots else 0.0

        for modality in ("camera", "lidar"):
            calls = [i for i in by_name.get(f"encoders.{modality}", [])
                     if scene_scope is None or self._ancestor(i, scene_scope)]
            out[f"encoders.{modality}_calls_per_scene"] = (
                len(calls) / n_scenes if n_scenes else 0.0)

        for label in ("both", "camera", "lidar"):
            out[f"model.predict_ms.{label}"] = mean([
                dur(i) for i in by_name.get("model.predict", [])
                if (self.spans[i][4] or {}).get("label") == label
                and self._ancestor(i, "evaluation.evaluate_conditions")])

        records = sum(attrs("dataset.generate_dataset", "records"))
        gen_self = times.get("dataset.generate_dataset", [0, 0.0, 0.0])[2]
        out["dataset.generate_self_ms"] = gen_self / records if records else 0.0

        out["trace.overhead_pct"] = overhead_pct
        for metric in self.unmeasured:
            out[metric] = None
        return out
