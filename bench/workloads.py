"""The benchmark's three workloads: train, eval and datagen.

Each workload is one closed-loop caller in one process: the next call into
bevkit starts only when the previous one has returned. The workload seed
drives every input it generates (scenes, modality masks); the detector's
weights come from the fixed config (``ModelConfig()``, ``BEVGridSpec()``,
weights drawn with seed 0), as ROADMAP fixes them. bevkit is driven only
through public entry points called with their defaults.

Each class runs in two sizes. ``main`` is the workload itself: seeded inputs,
a time budget, and minimum counts that keep its medians steady. ``probe`` is a
small fixed-input run (seed 0, fixed counts) of the same code, used to report
the other workloads' end-to-end metrics from every run; see README.md.

Functions that a traced run wraps are looked up through their module at call
time (``self.bk.dataset.generate_dataset``), so the wrappers take effect.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

MODEL_SEED = 0  # detector weights: part of the fixed config, not of the inputs
PROBE_SEED = 0  # inputs of the fixed-size probes
EVAL_SET_SEED = 0  # the fixed scene set that evaluate_conditions scores
SETUP_REPS = 3
MAX_FAILED = 20  # a run that fails this often stops and reports it
MASK_LABELS = ("both", "camera", "lidar")


def tail(values):
    """(p, value) for the highest of p50/p75/p90/p95/p99 with at least ten
    samples above it, or None when there are fewer than 20 samples."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


def summarize(values_ms):
    """Median, tail percentile and sample count of a list of timings."""
    t = tail(values_ms)
    return {"n": len(values_ms), "median": float(median(values_ms)) if values_ms else None,
            "tail": {f"p{t[0]}": t[1]} if t else None}


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def derived_seed(seed, *tags):
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class ReferenceKernel:
    """A fixed memory-bound job timed before the first unit of a full run and
    after every unit: sparse gather and scatter products shaped like the
    encoders' sampling, a large elementwise pass, a scatter-add and an
    interpreter loop.

    The speed of the machine drifts by up to a third over tens of seconds, by
    load that the benchmark does not control. Every timing of a full run is
    scaled by NOMINAL_MS / (the median kernel time within WINDOW_S of it),
    which turns it into the time on a machine where the kernel takes
    NOMINAL_MS. The kernel uses nothing from bevkit, so no change to the
    package moves it. Raw timings stay in the report line.
    """

    NOMINAL_MS = 5.0
    WINDOW_S = 3.0

    def __init__(self):
        from scipy import sparse

        rng = np.random.default_rng(12345)
        pairs, cells = 15000, 3072
        self.idx = rng.integers(0, cells, 4 * pairs)
        self.s = sparse.csr_matrix(
            (rng.random(4 * pairs), self.idx, np.arange(0, 4 * pairs + 1, 4)),
            shape=(pairs, cells))
        self.f = rng.random((cells, 16))
        self.g = rng.random((pairs, 16))
        self.big = rng.random(500_000)
        self.samples = []  # (perf_counter at start, ms)

    def _once(self):
        t0 = perf_counter()
        self.s @ self.f
        self.s.T @ self.g
        (self.big * 1.5 + 2.0).sum()
        np.add.at(np.zeros_like(self.f), self.idx[:5000], 1.0)
        total = 0
        for i in range(2000):
            total += i
        self.samples.append((t0, (perf_counter() - t0) * 1e3))

    def sample(self, unit_ms):
        """Run the kernel for a few percent of the unit's length (1 to 5 runs).
        Before the first unit it runs 5 times: a long first unit, such as an
        evaluate_conditions pass, has few other samples near it."""
        n = 1 if not unit_ms > 0 else min(5, max(1, round(unit_ms / 200)))
        for _ in range(n):
            self._once()

    def scale(self, t0, t1):
        """NOMINAL_MS / median kernel time within WINDOW_S of [t0, t1]."""
        near = [ms for t, ms in self.samples if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return self.NOMINAL_MS / median(near)

    def summary(self):
        ms = [m for _, m in self.samples]
        return {"runs": len(ms), "median": median(ms), "min": min(ms), "max": max(ms)}


class Workload:
    """A workload runs as a closed loop of units (a train step, an
    evaluate_conditions pass or a predict, a generated-and-loaded batch).
    begin() starts a run, unit() does one unit and records its time in
    self.r["unit_ms"], finish() does the end-of-run work and the digest."""

    name = ""
    SIZES = {}

    def __init__(self, bk, seed, workdir, size="main"):
        self.bk = bk
        self.seed = seed
        self.size = size
        self.cfg = self.SIZES[size]
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.state = {}
        self.r = {}
        self.kernel = ReferenceKernel()
        self._dirs = []
        self.package_errors = tuple(
            getattr(bk.errors, n) for n in ("ShapeError", "ContractError", "NumericError",
                                             "ConfigError", "DataError", "GenerationError"))

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{self.name}/{self.size}: {what}")

    def tmpdir(self):
        d = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        self._dirs.append(d)
        return d

    def teardown(self):
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)
        self._dirs.clear()
        self.state = {}

    def grid(self):
        return self.bk.geometry.BEVGridSpec()

    def detector(self):
        bk = self.bk
        return bk.model.Detector(bk.model.ModelConfig(), self.grid(),
                                 np.random.default_rng(MODEL_SEED))

    def generate(self, root, n_scenes, seed):
        return self.bk.dataset.generate_dataset(root, n_scenes, seed,
                                                self.bk.synthscene.SceneParams(), self.grid())

    def timed_setups(self):
        """Set up SETUP_REPS times and keep the last state. Returns the raw
        and the scaled seconds of each."""
        self.kernel.sample(1000.0)
        spans = []
        for _ in range(SETUP_REPS):
            self.teardown()
            t0 = perf_counter()
            self.setup()
            spans.append((t0, perf_counter()))
            self.kernel.sample((spans[-1][1] - t0) * 1e3)
        raw = [t1 - t0 for t0, t1 in spans]
        return raw, [(t1 - t0) * self.kernel.scale(t0, t1) for t0, t1 in spans]

    def scaled(self, i, ms):
        """ms of unit i at the kernel's nominal speed (see ReferenceKernel)."""
        return ms * self.kernel.scale(*self.r["unit_t"][i])

    def enough(self, t_start, seconds, full):
        """Whether the run is over. A full run goes on until seconds have
        passed and its floors are met, which keep its medians steady; a short
        run (each replica of a traced run) only needs the units the digest
        hashes, so that every run of a seed agrees on the digest."""
        n = len(self.r["unit_ms"])
        if self.failed >= MAX_FAILED:
            return True
        if n < self.cfg["min_units" if full else "digest_units"]:
            return False
        return perf_counter() - t_start >= seconds and (not full or self.floors_met())

    def floors_met(self):
        return True

    def encoder_scope(self):
        """(span whose encoder calls count, scenes they cover) for the
        encoders.*_calls_per_scene metrics of a traced run."""
        return None, 0

    def run(self, seconds):
        self.begin()
        self.r["unit_t"] = []
        self.kernel.sample(1000.0)
        t_start = perf_counter()
        while not self.enough(t_start, seconds, full=True):
            t0 = perf_counter()
            self.unit()
            self.r["unit_t"].append((t0, perf_counter()))
            self.kernel.sample(self.r["unit_ms"][-1])
        t0 = perf_counter()
        self.finish()
        t1 = perf_counter()
        self.kernel.sample((t1 - t0) * 1e3)
        self.r["finish_ms"] = (t1 - t0) * 1e3 * self.kernel.scale(t0, t1)
        self.r["wall"] = perf_counter() - t_start
        self.r["units"] = len(self.r["unit_ms"])
        return self.r

    def replay(self):
        """Extra determinism check after a full run; most workloads already
        compare repeats inside the run."""


class Train(Workload):
    """Per step: load -> sample_modality_mask -> Detector.loss -> backward ->
    Adam.step; one checkpoint of params and Adam state at the end."""

    name = "train"
    SIZES = {
        # 45 steps fix the loss window; 6 per mask label keep each median steady
        "main": {"scenes": 32, "loss_steps": 45, "min_units": 45, "digest_units": 20,
                 "min_per_label": 6, "replay": 3},
        # fixed inputs, masks cycled so each label gets 6 steps
        "probe": {"scenes": 18, "loss_steps": 18, "min_units": 18, "digest_units": 18,
                  "min_per_label": 6, "replay": 0},
    }

    def setup(self):
        bk = self.bk
        d = self.tmpdir()
        ds = self.generate(d / "scenes", self.cfg["scenes"], self.seed)
        det = self.detector()
        opt = bk.optim.Adam(det.parameters())
        warm = det.loss(ds.load(0), bk.fusion.ModalityMask(True, True))
        warm.backward()
        opt.zero_grad()
        self.state = {"dir": d, "ds": ds, "det": det, "opt": opt}

    def _masks(self):
        bk = self.bk
        if self.size == "probe":
            cycle = [bk.fusion.ModalityMask(True, True), bk.fusion.ModalityMask(True, False),
                     bk.fusion.ModalityMask(False, True)]
            i = 0
            while True:
                yield cycle[i % 3]
                i += 1
        md = bk.fusion.MDConfig()
        rng = np.random.default_rng(self.seed)
        while True:
            yield bk.fusion.sample_modality_mask(md, rng)

    def _step(self, det, opt, sample, mask):
        """One step; returns (loss value, ms excluding the finiteness check)."""
        t0 = perf_counter()
        loss = det.loss(sample, mask)
        loss.backward()
        t1 = perf_counter()
        value = loss.item()
        ok = np.isfinite(value) and all(
            p.tensor.grad is None or np.isfinite(p.tensor.grad).all() for p in opt.params)
        t2 = perf_counter()
        if ok:
            opt.step()
        else:
            opt.zero_grad()
            self.fail(f"non-finite loss or gradient at scene {sample.scene_id}")
        return value, (t1 - t0 + perf_counter() - t2) * 1e3

    def begin(self):
        self.r = {"unit_ms": [], "losses": [], "labels": []}
        self._mask_iter = self._masks()

    def unit(self):
        s, r = self.state, self.r
        self.attempted += 1
        t0 = perf_counter()
        try:
            sample = s["ds"].load(len(r["losses"]) % self.cfg["scenes"])
            mask = next(self._mask_iter)
            load_ms = (perf_counter() - t0) * 1e3
            value, ms = self._step(s["det"], s["opt"], sample, mask)
        except self.package_errors as e:
            self.fail(repr(e))
            r["losses"].append(float("nan"))
            r["unit_ms"].append(float("nan"))
            r["labels"].append(None)
            return
        r["losses"].append(value)
        r["unit_ms"].append(load_ms + ms)
        r["labels"].append(mask.label)

    def floors_met(self):
        return all(self.r["labels"].count(k) >= self.cfg["min_per_label"] for k in MASK_LABELS)

    def encoder_scope(self):
        return None, len(self.r["unit_ms"])

    def _step_ms(self, scale):
        r = self.r
        return {k: [self.scaled(i, t) if scale else t
                    for i, t in enumerate(r["unit_ms"]) if r["labels"][i] == k]
                for k in MASK_LABELS}

    def finish(self):
        s = self.state
        ck = self.bk.checkpoint
        arrays = {**s["det"].param_arrays(), **s["opt"].state_arrays()}
        path = s["dir"] / "model.ckpt"
        self.attempted += 1
        ck.save_checkpoint(path, arrays)
        back = ck.load_checkpoint(path)
        exact = set(back) == set(arrays) and all(
            back[k].shape == np.shape(arrays[k])
            and back[k].tobytes() == np.ascontiguousarray(arrays[k], dtype="<f8").tobytes()
            for k in arrays)
        if not exact:
            self.fail("checkpoint did not read back bit-exact")
        self.r["digest"] = digest(np.asarray(self.r["losses"][: self.cfg["digest_units"]]).tobytes())

    def replay(self):
        """Rerun the first steps from a fresh detector and optimizer; the
        losses must match the run bit for bit."""
        n = self.cfg["replay"]
        if not n:
            return
        det = self.detector()
        opt = self.bk.optim.Adam(det.parameters())
        masks = self._masks()
        self.attempted += 1
        again = [self._step(det, opt, self.state["ds"].load(i), next(masks))[0] for i in range(n)]
        if np.asarray(again).tobytes() != np.asarray(self.r["losses"][:n]).tobytes():
            self.fail(f"replay of the first {n} steps gave different losses")

    def metrics(self):
        r = self.r
        step = {k: median(v) for k, v in self._step_ms(True).items()}
        # Throughput at MDConfig's expected mask mix, not at the mix this seed
        # happened to draw: the three masks cost about 3:2:1, so the drawn mix
        # alone moved raw steps/s by 11% between seeds.
        md = self.bk.fusion.MDConfig()
        share = {"both": 1 - md.p_md, "lidar": md.p_md * md.p_l,
                 "camera": md.p_md * (1 - md.p_l)}
        mean_ms = sum(share[k] * step[k] for k in MASK_LABELS) + r["finish_ms"] / r["units"]
        return {
            "train_scenes_per_s": 1e3 / mean_ms,
            **{f"train_step_ms.{k}": step[k] for k in MASK_LABELS},
            "train_loss_mean": float(np.mean(r["losses"][: self.cfg["loss_steps"]])),
        }

    def report(self):
        return {f"train_step_ms.{k}.raw": summarize(v) for k, v in self._step_ms(False).items()}


class Eval(Workload):
    """evaluate_conditions over a fixed scene set, then Detector.predict with
    both sensors, one scene after another."""

    name = "eval"
    SIZES = {
        # 3 evaluate_conditions passes, then at least 160 predicts, which
        # leave 16 samples above p90 (100 leave the ten the tail needs, but
        # p90 then spread by up to 21% from seed to seed)
        "main": {"eval_scenes": 8, "eval_reps": 3, "pool": 16,
                 "min_units": 3 + 160, "digest_units": 3 + 16},
        # fewer than 8 fixed scenes give an untrained detector an mAP of 0
        "probe": {"eval_scenes": 8, "eval_reps": 2, "pool": 8,
                  "min_units": 2 + 80, "digest_units": 2 + 8},
    }

    def setup(self):
        cfg = self.cfg
        d = self.tmpdir()
        eval_ds = self.generate(d / "eval", cfg["eval_scenes"], EVAL_SET_SEED)
        pool_ds = self.generate(d / "pool", cfg["pool"], self.seed)
        pool = [pool_ds.load(i) for i in range(cfg["pool"])]
        det = self.detector()
        det.predict(pool[0], self.bk.fusion.ModalityMask(True, True))
        self.state = {"eval_ds": eval_ds, "pool": pool, "det": det}

    def encoder_scope(self):
        return "evaluation.evaluate_conditions", self.cfg["eval_reps"] * self.cfg["eval_scenes"]

    @staticmethod
    def _report_json(rep):
        return {k: v for k, v in rep.to_json().items() if k != "config"}

    def _check_report(self, rep):
        bk = self.bk
        self.attempted += 1
        maps = [rep.map_lc, rep.map_l, rep.map_c]
        n_entries = self.state["eval_ds"].params.n_classes * len(bk.evaluation.RADII)
        aps = [ap for cond in rep.ap_table.values() for ap in cond.values()]
        ok = (all(np.isfinite(m) and 0.0 <= m <= 1.0 for m in maps)
              and abs(rep.summary_map - float(np.mean(maps))) <= 1e-12
              and sorted(rep.ap_table) == sorted(bk.evaluation.CONDITIONS)
              and all(len(t) == n_entries for t in rep.ap_table.values())
              and all(np.isfinite(ap) and 0.0 <= ap <= 1.0 for ap in aps))
        if not ok:
            self.fail(f"metrics report inconsistent: summary {rep.summary_map} maps {maps}")
            return
        first = self.r.setdefault("report", self._report_json(rep))
        if first != self._report_json(rep):
            self.fail("evaluate_conditions gave a different report on the same scenes")

    def _check_predict(self, preds, j):
        self.attempted += 1
        n_obj = self.state["det"].cfg.n_obj
        rows = np.array([[p.cx, p.cy, p.w, p.l, p.yaw, *p.class_logits] for p in preds])
        if len(preds) != n_obj or not np.isfinite(rows).all():
            self.fail(f"predict returned {len(preds)} boxes (want {n_obj}) or non-finite fields")
            return
        key = rows.tobytes()
        if self.r["first_preds"].setdefault(j, key) != key:
            self.fail(f"predict on pool scene {j} changed between calls")

    def begin(self):
        self.r = {"unit_ms": [], "first_preds": {}}
        self._both = self.bk.fusion.ModalityMask(True, True)

    def unit(self):
        s, r = self.state, self.r
        n = len(r["unit_ms"])
        t0 = perf_counter()
        try:
            if n < self.cfg["eval_reps"]:
                rep = self.bk.evaluation.evaluate_conditions(s["det"], s["eval_ds"])
                dt = perf_counter() - t0
                self._check_report(rep)
            else:
                j = (n - self.cfg["eval_reps"]) % len(s["pool"])
                preds = s["det"].predict(s["pool"][j], self._both)
                dt = perf_counter() - t0
                self._check_predict(preds, j)
        except self.package_errors as e:
            self.attempted += 1
            self.fail(repr(e))
            dt = float("nan")
        r["unit_ms"].append(dt * 1e3)

    def finish(self):
        r = self.r
        r["digest"] = digest(r.get("report"), *[r["first_preds"][j] for j in sorted(r["first_preds"])])

    def _times(self, scale):
        """(evaluate_conditions ms per pass, predict ms per call)."""
        ms = [self.scaled(i, t) if scale else t for i, t in enumerate(self.r["unit_ms"])]
        reps = self.cfg["eval_reps"]
        return [t for t in ms[:reps] if t == t], [t for t in ms[reps:] if t == t]

    def metrics(self):
        passes, predicts = self._times(True)
        return {
            "eval_scenes_per_s": median(self.cfg["eval_scenes"] * 1e3 / t for t in passes),
            "predict_ms.p50": float(np.percentile(predicts, 50)),
            "predict_ms.p90": float(np.percentile(predicts, 90)),
            "summary_map": self.r.get("report", {}).get("summary_map", float("nan")),
        }

    def report(self):
        passes, predicts = self._times(False)
        return {"evaluate_conditions_ms.raw": summarize(passes),
                "predict_ms.raw": summarize(predicts)}


class Datagen(Workload):
    """Batches of generate_dataset into a scratch directory of the checkout,
    each followed by a sequential SceneDataset.load of every record."""

    name = "datagen"
    SIZES = {
        "main": {"batch": 50, "min_units": 20, "digest_units": 1, "warm": 16},
        "probe": {"batch": 50, "min_units": 10, "digest_units": 1, "warm": 0},
    }

    def setup(self):
        d = self.tmpdir()
        if self.cfg["warm"]:
            warm = self.generate(d / "warm", self.cfg["warm"], derived_seed(self.seed, 1 << 30))
            for i in range(len(warm)):
                warm.load(i)
            shutil.rmtree(d / "warm")
        self.state = {"dir": d, "rig": self.bk.synthscene.default_rig()}

    def _check_sample(self, ds, sample):
        self.attempted += 1
        cams = ds.cams
        n = len(sample.gts)
        ok = (sample.camera_images.shape == (len(cams), cams[0].image_h, cams[0].image_w, 3)
              and sample.lidar_grid.shape == (*ds.lidar_shape, 2)
              and sample.camera_images.dtype == np.float64 and sample.lidar_grid.dtype == np.float64
              and ds.params.n_boxes[0] <= n <= ds.params.n_boxes[1]
              and np.isfinite(sample.camera_images).all() and np.isfinite(sample.lidar_grid).all())
        if not ok:
            self.fail(f"record {sample.scene_id} does not match the manifest's field shapes")

    def _check_rerender(self, ds, root, seed, i):
        self.attempted += 1
        again = self.bk.dataset.render_scene_record(seed, i, ds.params, ds.spec,
                                                    self.state["rig"], ds.lidar_shape)
        if again != (root / "scenes" / f"scene_{i:06d}.bin").read_bytes():
            self.fail(f"record {i} of seed {seed} re-rendered to different bytes")

    def begin(self):
        self.r = {"unit_ms": [], "gen_ms": [], "load_ms": [], "digest": None}

    def unit(self):
        r, batch = self.r, self.cfg["batch"]
        b = len(r["unit_ms"])
        seed = derived_seed(self.seed, b)
        root = self.state["dir"] / f"batch{b}"
        self.attempted += 1
        t0 = perf_counter()
        try:
            ds = self.generate(root, batch, seed)
        except self.package_errors as e:
            self.fail(repr(e))
            r["unit_ms"].append(float("nan"))
            r["gen_ms"].append(float("nan"))
            r["load_ms"].append([])
            return
        gen_s = perf_counter() - t0
        load_ms = []
        for i in range(len(ds)):
            t0 = perf_counter()
            sample = ds.load(i)
            load_ms.append((perf_counter() - t0) * 1e3)
            self._check_sample(ds, sample)
        r["gen_ms"].append(gen_s * 1e3)
        r["load_ms"].append(load_ms)
        r["unit_ms"].append(gen_s * 1e3 + sum(load_ms))
        self._check_rerender(ds, root, seed, int(np.random.default_rng([self.seed, b]).integers(batch)))
        if r["digest"] is None:
            files = [root / "manifest.json"] + sorted((root / "scenes").iterdir())
            r["digest"] = digest(*[f.read_bytes() for f in files])
        shutil.rmtree(root)

    def finish(self):
        pass

    def metrics(self):
        # Generation is one call per batch, so its rate is per batch. Loads
        # are one call per record; a batch's 50 loads take only ~10 ms, so a
        # per-batch sum is at the mercy of one slow read, and the median
        # record is the steadier rate.
        r, batch = self.r, self.cfg["batch"]
        gen = [batch * 1e3 / self.scaled(i, t) for i, t in enumerate(r["gen_ms"]) if t == t]
        load = [self.scaled(i, t) for i, ts in enumerate(r["load_ms"]) for t in ts]
        return {"datagen_scenes_per_s": median(gen), "load_scenes_per_s": 1e3 / median(load)}

    def report(self):
        return {"generate_batch_ms.raw": summarize([t for t in self.r["gen_ms"] if t == t]),
                "record_load_ms.raw": summarize([t for ts in self.r["load_ms"] for t in ts])}


WORKLOADS = {w.name: w for w in (Train, Eval, Datagen)}
