"""Stage driver and workloads of the pipeline benchmark.

The stage driver calls the package's public stage functions in the
order, and with the arguments, that ``repro.experiments.get_context``
and ``convert_only`` use: synthesise data, build the model, LSUV-init,
train the DNN with SGD, convert with Algorithm 1.  Calls go through
module attributes so the tracer's patches (see ``spans.instrument``)
see them.

Every workload runs at bench geometry (16x16 synthetic CIFAR-10,
width 0.25, batch 50, 500 training images) with fewer epochs than the
``bench`` preset, so one pass of the pipeline fits in a benchmark run.

The training images, weight init and shuffles come from a fixed seed;
the run's ``--seed`` draws a class-balanced evaluation set from a fixed
pool.
So every run does the same work (Algorithm 1's search size depends on
the trained weights) and the seed moves only the accuracies, by test
sampling.
"""

from __future__ import annotations

import contextlib
import copy
import inspect
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro import conversion, data, energy, models, train
from repro.experiments import context as experiment_context
from repro.experiments import pipeline
from repro.experiments.config import SCALES, ExperimentConfig
from repro.obs import observe
from repro.snn import SpikingNetwork
from repro.tensor import Tensor, no_grad
from repro.train import lsuv

CHANCE = 0.10  # CIFAR-10
#: Accuracy must beat chance by these margins (fractions, not points).
#: They catch a broken pipeline (NaN weights, a dead layer, a constant
#: prediction), not a weak seed: short training leaves accuracy far
#: below the bench preset's.
MARGINS = {"dnn_acc": 0.15, "conversion_acc": 0.03, "snn_acc": 0.05}
#: Algorithm 1's beta search range, ``(0, beta_max]``.
BETA_MAX = inspect.signature(conversion.proposed_specs).parameters["beta_max"].default
#: Setup is repeated this many times per run; ``setup_s`` reports the median.
SETUP_REPEATS = 2
#: Images per finite-logits probe.
PROBE_IMAGES = 10
#: Seed of the training data, weight init and shuffles (see module doc).
TRAIN_SEED = 13
#: Test images synthesised per run; ``--seed`` draws the evaluation set.
TEST_POOL = 2000
#: Directory (inside the working tree) for the observed run's artefacts.
TMP_ROOT = ".perfbench-tmp"

TABLE1_SCALE = replace(
    SCALES["bench"], name="perfbench-table1", test_size=400, dnn_epochs=6, snn_epochs=1
)
#: The sweep evaluates 400 images (not the preset's 150), so its latency
#: metrics see 16 batches.
SWEEP_SCALE = replace(SCALES["bench"], name="perfbench-sweep", test_size=400, dnn_epochs=10)


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
class TimedBatches:
    """Re-iterable loader wrapper timing how long each batch is held.

    Only passes that consume every batch count, so an evaluation over
    the whole test set is measured while a consumer that stops early
    (a drift probe reading one batch) is not.  ``latency`` marks batches
    of the latency population (see ``Workload.latency_timesteps``).
    """

    def __init__(self, loader, record: "Record", latency: bool = True) -> None:
        self.loader = loader
        self.record = record
        self.latency = latency

    def __iter__(self):
        durations, samples = [], 0
        for images, labels in self.loader:
            start = time.perf_counter()
            yield images, labels
            durations.append(time.perf_counter() - start)
            samples += len(labels)
        self.record.eval_batch_s.extend(durations)
        self.record.eval_samples += samples
        if self.latency:
            self.record.latency_batch_s.extend(durations)


@dataclass
class Record:
    """Raw measurements of one benchmark pass.

    ``prepare_s``, ``setup_train_s`` and ``unit_s`` are timed by
    :meth:`timed`, which also opens the ``tracer``'s window (if any)
    around each of those blocks.
    """

    tracer: Optional[object] = None
    prepare_s: List[float] = field(default_factory=list)
    setup_train_s: List[float] = field(default_factory=list)
    unit_s: List[float] = field(default_factory=list)
    convert_s: List[float] = field(default_factory=list)
    dnn_samples: int = 0
    dnn_seconds: float = 0.0
    sgl_samples: int = 0
    sgl_seconds: float = 0.0
    eval_batch_s: List[float] = field(default_factory=list)
    latency_batch_s: List[float] = field(default_factory=list)
    eval_samples: int = 0
    train_steps: int = 0
    obs_bytes: int = 0
    obs_files: int = 0
    obs_records: int = 0

    @contextlib.contextmanager
    def timed(self, durations: List[float]):
        """Append the block's wall time to ``durations``, tracing it if traced."""
        if self.tracer is not None:
            self.tracer.start()
        start = time.perf_counter()
        yield
        durations.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.stop()

    def timed_s(self) -> float:
        """Seconds inside :meth:`timed` blocks, which tracer windows enclose."""
        return sum(self.prepare_s) + sum(self.setup_train_s) + sum(self.unit_s)

    def add_training(self, kind: str, history, loader) -> None:
        epochs = len(history.epoch_seconds)
        samples = epochs * len(loader.images)
        self.train_steps += epochs * len(loader)
        if kind == "dnn":
            self.dnn_samples += samples
            self.dnn_seconds += sum(history.epoch_seconds)
        else:
            self.sgl_samples += samples
            self.sgl_seconds += sum(history.epoch_seconds)


@dataclass
class Outcome:
    """What one timed unit computed; two same-seed units must agree."""

    dnn_acc: float
    conversion_accs: List[float]
    snn_acc: float
    losses: List[float]
    specs: List[tuple]
    engine: str
    spikes: List[float] = field(default_factory=list)
    spikes_per_neuron: float = 0.0
    snn_mflops: float = 0.0

    @property
    def conversion_acc(self) -> float:
        return float(np.mean(self.conversion_accs))

    def key(self) -> tuple:
        return (
            self.dnn_acc,
            tuple(self.conversion_accs),
            self.snn_acc,
            tuple(self.specs),
            tuple(self.spikes),
        )


# ----------------------------------------------------------------------
# Stage driver
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """Data, normaliser and LSUV-initialised model of one config."""

    config: ExperimentConfig
    dataset: object
    normalize: object
    model: object
    dnn_history: object = None
    dnn_acc: float = float("nan")

    def train_loader(self, seed: int):
        return data.DataLoader(
            self.dataset.train_images,
            self.dataset.train_labels,
            batch_size=self.config.scale.batch_size,
            shuffle=True,
            transform=self.normalize,
            seed=seed,
        )

    def plain_loader(self, split: str):
        return data.DataLoader(
            getattr(self.dataset, f"{split}_images"),
            getattr(self.dataset, f"{split}_labels"),
            batch_size=self.config.scale.batch_size,
            transform=self.normalize,
        )


def prepare(config: ExperimentConfig) -> Prepared:
    """Synthesise data, build the model and LSUV-init it (``get_context``)."""
    scale = config.scale
    if config.dataset != "cifar10" or scale.augment:
        raise ValueError("the stage driver covers un-augmented CIFAR-10 only")
    dataset = data.synth_cifar10(
        image_size=scale.image_size,
        train_size=scale.train_size,
        test_size=scale.test_size,
        seed=config.seed,
    )
    mean, std = dataset.channel_stats()
    normalize = data.Normalize(mean, std)
    kwargs = dict(
        num_classes=config.num_classes,
        width_multiplier=scale.width_multiplier,
        activation=config.activation,
        dropout=scale.dropout,
        rng=np.random.default_rng(config.seed + 100),
    )
    if config.arch.startswith("vgg"):
        kwargs["image_size"] = scale.image_size
    model = models.build_model(config.arch, **kwargs)
    calibration = normalize(
        dataset.train_images[: min(100, len(dataset.train_images))],
        np.random.default_rng(config.seed),
    )
    lsuv.lsuv_init(model, calibration)
    lsuv.scale_residual_branches(model)
    return Prepared(config, dataset, normalize, model)


def train_dnn(prepared: Prepared, record: Record) -> None:
    """SGD training and test accuracy of the DNN (``get_context``)."""
    config = prepared.config
    lr = experiment_context._ARCH_LR.get((config.arch, config.dataset), 0.02)
    trainer = train.DNNTrainer(train.DNNTrainConfig(epochs=config.scale.dnn_epochs, lr=lr))
    loader = prepared.train_loader(seed=config.seed + 1)
    test_loader = prepared.plain_loader("test")
    prepared.dnn_history = trainer.fit(prepared.model, loader, test_loader)
    prepared.dnn_acc = train.evaluate_dnn(prepared.model, test_loader)
    record.add_training("dnn", prepared.dnn_history, loader)


def convert(prepared: Prepared, timesteps: int, strategy: str, record: Record):
    """``convert_only``: calibrate, build neuron specs, build the SNN."""
    config = conversion.ConversionConfig(
        timesteps=timesteps,
        strategy=strategy,
        calibration_batches=prepared.config.scale.calibration_batches,
        strategy_kwargs={},
    )
    start = time.perf_counter()
    result = conversion.convert_dnn_to_snn(
        prepared.model, prepared.plain_loader("train"), config
    )
    record.convert_s.append(time.perf_counter() - start)
    return result


def spec_pairs(result) -> List[tuple]:
    return [(spec.alpha, spec.beta) for spec in result.specs]


def activity(prepared: Prepared, snn):
    """Fig. 4 accounting: spikes per neuron and spike-scaled MFLOPs."""
    report = energy.measure_spiking_activity(snn, prepared.plain_loader("test"), max_batches=2)
    records = energy.snn_layer_flops(
        snn, prepared.dataset.input_shape, report.rates_by_neuron_id(snn)
    )
    spikes = [layer.total_spikes for layer in report.layers]
    mflops = sum(rec.snn_ops for rec in records) / 1e6
    return spikes, report.average_spikes_per_neuron, mflops


def finite_logits(prepared: Prepared, network) -> bool:
    """One forward of a few test images through ``network`` is finite."""
    images = prepared.normalize(prepared.dataset.test_images[:PROBE_IMAGES])
    if not isinstance(network, SpikingNetwork):
        images = Tensor(images)
    was_training = network.training
    network.eval()
    try:
        with no_grad():
            logits = network(images)
    finally:
        network.train(was_training)
    return bool(np.isfinite(logits.data).all())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload: setup, a timed unit, and checks."""

    name = ""
    arch = ""
    scale = None
    trains_in_setup = False
    #: Time steps of the eval batches behind ``snn_batch_p50_ms`` and
    #: ``snn_batch_tail_ms``, so each is one population of batches.
    latency_timesteps = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = ExperimentConfig(
            arch=self.arch,
            dataset="cifar10",
            timesteps=2,
            scale=replace(self.scale, test_size=TEST_POOL),
            seed=TRAIN_SEED,
        )

    def _draw_test_set(self, dataset):
        """The seed's evaluation images: an equal share of every class,
        drawn from the fixed test pool (class balance takes the class
        mix out of the accuracies' seed-to-seed spread)."""
        rng = np.random.default_rng(self.seed)
        labels = dataset.test_labels
        classes = np.unique(labels)
        per_class = self.scale.test_size // len(classes)
        chosen = np.sort(
            np.concatenate(
                [rng.choice(np.flatnonzero(labels == c), per_class, replace=False) for c in classes]
            )
        )
        drawn = copy.copy(dataset)
        drawn.test_images = dataset.test_images[chosen]
        drawn.test_labels = dataset.test_labels[chosen]
        return drawn

    def setup(self, record: Record, repeats: int, trained: Prepared = None) -> Prepared:
        """Prepare ``repeats`` times (timed); train once if the unit starts trained.

        ``trained`` supplies DNN weights already trained for this config,
        so a second pass over the same seed skips retraining.
        """
        prepared = None
        for _ in range(repeats):
            with record.timed(record.prepare_s):
                prepared = prepare(self.config)
                prepared.dataset = self._draw_test_set(prepared.dataset)
        if self.trains_in_setup:
            if trained is None:
                with record.timed(record.setup_train_s):
                    train_dnn(prepared, record)
            else:
                prepared.model.load_state_dict(trained.model.state_dict())
                prepared.dnn_history, prepared.dnn_acc = trained.dnn_history, trained.dnn_acc
        return prepared

    def unit(self, prepared: Prepared, record: Record):
        raise NotImplementedError

    def checks(self, prepared: Prepared, state) -> Dict[str, bool]:
        """Correctness checks on one unit's outputs (run untimed)."""
        raise NotImplementedError


def _ranges_ok(specs: List[tuple]) -> bool:
    return all(0.0 < alpha <= 1.0 and 0.0 < beta <= BETA_MAX for alpha, beta in specs)


def _margins_ok(outcome: Outcome) -> Dict[str, bool]:
    values = {
        "dnn_acc": outcome.dnn_acc,
        "conversion_acc": outcome.conversion_acc,
        "snn_acc": outcome.snn_acc,
    }
    return {
        f"{name} >= chance + {MARGINS[name]:.2f}": value >= CHANCE + MARGINS[name]
        for name, value in values.items()
    }


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Fig2Sweep(Workload):
    name = "fig2-sweep-resnet20"
    arch = "resnet20"
    scale = SWEEP_SCALE
    trains_in_setup = True
    timesteps = (2, 3, 5, 16)
    strategies = ("proposed", "max_activation")
    #: The largest fused T x N batch; its 16 batches take ~8 s, against
    #: ~1.5 s at T=2, which a few seconds of host slowdown would swamp.
    latency_timesteps = 16

    def unit(self, prepared: Prepared, record: Record):
        accuracies, proposed_accs, specs, snns = [], [], [], []
        spikes, spikes_per_neuron, mflops = [], [], []
        # Strategy outermost, so the latency batches come from two evals
        # half a unit apart.
        with record.timed(record.unit_s):
            for strategy in self.strategies:
                for timesteps in self.timesteps:
                    test_batches = TimedBatches(
                        prepared.plain_loader("test"),
                        record,
                        latency=timesteps == self.latency_timesteps,
                    )
                    result = convert(prepared, timesteps, strategy, record)
                    accuracy = train.evaluate_snn(result.snn, test_batches)
                    accuracies.append(accuracy)
                    snns.append(result.snn)
                    if strategy == "proposed":
                        proposed_accs.append(accuracy)
                        specs.extend(spec_pairs(result))
                        point = activity(prepared, result.snn)
                        spikes.extend(point[0])
                        spikes_per_neuron.append(point[1])
                        mflops.append(point[2])
        outcome = Outcome(
            dnn_acc=prepared.dnn_acc,
            conversion_accs=accuracies,
            snn_acc=float(np.mean(proposed_accs)),
            losses=list(prepared.dnn_history.train_loss),
            specs=specs,
            engine=snns[0].resolved_mode(),
            spikes=spikes,
            spikes_per_neuron=float(np.mean(spikes_per_neuron)),
            snn_mflops=float(np.mean(mflops)),
        )
        return outcome, snns

    def checks(self, prepared, state) -> Dict[str, bool]:
        outcome, snns = state
        return {
            "losses finite": _finite(outcome.losses),
            "logits finite": finite_logits(prepared, prepared.model)
            and all(finite_logits(prepared, snn) for snn in snns),
            "alpha in (0, 1], beta in (0, beta_max]": _ranges_ok(outcome.specs),
            **_margins_ok(outcome),
        }


class _TimedContext(experiment_context.ExperimentContext):
    """Context whose test loader times the evaluations that read it."""

    record = None

    def test_loader(self):
        return TimedBatches(super().test_loader(), self.record)


def install_context(prepared: Prepared, record: Record) -> None:
    """Hand the stage driver's trained DNN to ``get_context``'s cache.

    ``run_pipeline`` fetches its DNN through ``get_context``; seeding the
    cache lets the benchmark time DNN training with its own driver.
    """
    context = _TimedContext(
        config=prepared.config,
        dataset=prepared.dataset,
        model=prepared.model,
        dnn_history=prepared.dnn_history,
        dnn_accuracy=prepared.dnn_acc,
        normalize=prepared.normalize,
    )
    context.record = record
    experiment_context._CONTEXT_CACHE[prepared.config.context_key()] = context


class Table1Observed(Workload):
    """The Table I row end to end inside ``repro.obs.observe``.

    DNN training runs under observation too, as in ``python -m
    repro.experiments table1 --trace``; the rest is ``run_pipeline``.
    """

    name = "table1-vgg16-t2-observed"
    arch = "vgg16"
    scale = TABLE1_SCALE

    def unit(self, prepared: Prepared, record: Record):
        pipeline.clear_pipeline_cache()
        os.makedirs(TMP_ROOT, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=TMP_ROOT)
        previous_root = os.environ.get("REPRO_RUNS_ROOT")
        os.environ["REPRO_RUNS_ROOT"] = os.path.join(scratch, "runs")
        convert_only = pipeline.convert_only

        def timed_convert_only(*args, **kwargs):
            start = time.perf_counter()
            result = convert_only(*args, **kwargs)
            record.convert_s.append(time.perf_counter() - start)
            return result

        pipeline.convert_only = timed_convert_only
        try:
            with record.timed(record.unit_s):
                with observe(os.path.join(scratch, "run"), workload=self.name):
                    train_dnn(prepared, record)
                    install_context(prepared, record)
                    result = pipeline.run_pipeline(self.config)
            self._count_artefacts(scratch, record)
        finally:
            pipeline.convert_only = convert_only
            experiment_context.clear_context_cache()
            if previous_root is None:
                os.environ.pop("REPRO_RUNS_ROOT", None)
            else:
                os.environ["REPRO_RUNS_ROOT"] = previous_root
            shutil.rmtree(scratch)
            _remove_if_empty(TMP_ROOT)
        record.add_training("sgl", result.snn_history, prepared.train_loader(seed=0))
        outcome = Outcome(
            dnn_acc=result.dnn_accuracy,
            conversion_accs=[result.conversion_accuracy],
            snn_acc=result.snn_accuracy,
            losses=list(prepared.dnn_history.train_loss)
            + list(result.snn_history.train_loss),
            specs=spec_pairs(result.conversion),
            engine=result.snn.resolved_mode(),
        )
        return outcome, (prepared.model, result.snn)

    def checks(self, prepared, state) -> Dict[str, bool]:
        outcome, (dnn, snn) = state
        outcome.spikes, outcome.spikes_per_neuron, outcome.snn_mflops = activity(prepared, snn)
        return {
            "losses finite": _finite(outcome.losses),
            "logits finite": finite_logits(prepared, dnn) and finite_logits(prepared, snn),
            "alpha in (0, 1], beta in (0, beta_max]": _ranges_ok(outcome.specs),
            **_margins_ok(outcome),
        }

    @staticmethod
    def _count_artefacts(scratch: str, record: Record) -> None:
        for folder, _dirs, files in os.walk(scratch):
            for name in files:
                path = os.path.join(folder, name)
                record.obs_files += 1
                record.obs_bytes += os.path.getsize(path)
                if name.endswith(".jsonl"):
                    with open(path, "rb") as handle:
                        record.obs_records += sum(1 for _ in handle)


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


WORKLOADS = {cls.name: cls for cls in (Table1Observed, Fig2Sweep)}
