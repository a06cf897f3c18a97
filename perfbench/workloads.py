"""The benchmark's workloads: inputs from the seed, load, checks, metrics.

``served_smc``
    Four ``repro serve`` processes run bundles fit on warfarin at
    rho = 0 (linear over the shares backend, linear, naive Bayes and tree
    over Paillier). Every request asks for an empty disclosure set, so
    each query is pure SMC over all features. Requests go 1:1:2:1 to the
    servers, each with a fresh client seed, so the median falls inside
    the naive-Bayes mass and p90 inside the tree mass. The SMC layers do
    most of the work.
``served_disclosed``
    One ``repro serve --ledger --privacy-budget 1.0`` runs a naive-Bayes
    bundle at rho = 1 and every request discloses every feature. Each
    client identity sends four requests: one priced ledger write, then
    three replays. Key setup, budget and the handshake dominate.
``select_sweep``
    The analyst path, in process: a fresh random Bayesian-network cohort
    per sweep (d alternating 32/64, classifier rotating), one fit, then
    greedy ``select_disclosure`` for seven budgets. Costing and risk
    evaluation dominate; no crypto, no serving.

Both served workloads use two closed-loop clients: callers that wait for
their answer before sending the next request.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from servers import Fleet, ServerSpec, peak_rss_mb
from tracing import Patches, SpanIndex, SpanRecorder, install_selection_patches

#: Every run measures at least this many operations, so that at least
#: ten lie beyond p90.
MIN_OPS = 100
#: Set-up is repeated this often per end-to-end run; setup_s is the median.
SETUP_REPEATS = 5
CLIENTS = 2
#: End-to-end figures are medians over windows of a run: one window per
#: WINDOW_OPS completed operations (so p90 has ten beyond it in each),
#: at least MIN_WINDOWS and at most MAX_WINDOWS.
WINDOW_OPS = 100
MIN_WINDOWS = 3
MAX_WINDOWS = 7
#: A measurement phase stops sending requests this long after it began,
#: even short of MIN_OPS, so one run always ends well inside 180 s.
HARD_LIMIT_S = 60.0
KEY_BITS = {"paillier_bits": 384, "dgk_bits": 192}
#: served_smc traffic shares of its four servers, in server order.
SMC_WEIGHTS = (1, 1, 2, 1)
#: Warfarin cohort size and tree depth of the served bundles. On this
#: many rows the depth-4 tree is full (15 comparisons) whatever the
#: seed, so the work per pure-SMC tree query does not swing from seed to
#: seed; a depth-6 tree would take about 1.3 s a query and crowd out the
#: rest of the mix.
COHORT_SIZE = 20_000
TREE_DEPTH = 4
REQUESTS_PER_IDENTITY = 4
DISCLOSED_BUDGET = 1.0
SWEEP_KINDS = ("linear", "naive_bayes", "tree")
SWEEP_DIMS = (32, 64)
SWEEP_RHOS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
#: One cycle of sweeps visits every classifier/feature-count shape once.
SWEEP_CYCLE = len(SWEEP_KINDS) * len(SWEEP_DIMS)
#: select_sweep windows are whole cycles, this many or more (126
#: selections), so every window holds the same mix of shapes and budgets.
WINDOW_CYCLES = 3
RISK_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An operation returned a wrong answer: the run is incorrect."""


@dataclass
class Op:
    """One measured operation."""

    target: str
    latency: float
    ok: bool
    result: object = None
    error: str = ""
    #: Request id the traced spans of this operation carry.
    key: str = ""
    #: Completion time, in seconds since the phase began.
    done: float = 0.0


@dataclass
class Phase:
    """The operations of one measurement phase and its wall time."""

    ops: List[Op] = field(default_factory=list)
    wall: float = 0.0
    check_error: Optional[str] = None

    @property
    def good(self) -> List[Op]:
        return [op for op in self.ops if op.ok]

    @property
    def latencies(self) -> List[float]:
        return [op.latency for op in self.good]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: List[str]


def quantile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def closed_loop(
    send: Callable[[int, int], Op],
    clients: int,
    seconds: float,
    min_ops: int,
) -> Phase:
    """Run ``clients`` callers that each wait for their answer.

    Each client sends its next request when the previous one returned,
    until ``seconds`` have passed and ``min_ops`` operations completed
    (or :data:`HARD_LIMIT_S` passed). A failed check stops every client.
    """
    phase = Phase()
    lock = threading.Lock()
    stop = threading.Event()
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + max(seconds, HARD_LIMIT_S)
    last_end = [start]

    def client(index: int) -> None:
        sequence = 0
        while not stop.is_set():
            now = time.perf_counter()
            with lock:
                done = len(phase.ops)
            if (now >= deadline and done >= min_ops) or now >= hard_deadline:
                return
            try:
                op = send(index, sequence)
            except CheckFailed as error:
                with lock:
                    phase.check_error = phase.check_error or str(error)
                stop.set()
                return
            sequence += 1
            with lock:
                op.done = time.perf_counter() - start
                phase.ops.append(op)
                last_end[0] = max(last_end[0], op.done + start)

    threads = [
        threading.Thread(
            target=client, args=(i,), name=f"client-{i}", daemon=True
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = last_end[0] - start
    return phase


# -- correctness references ---------------------------------------------------


def expected_labels(secure_model, row) -> set:
    """Labels the secure protocol may return for ``row``.

    The quantised plaintext model is the exact reference. A multi-class
    argmax over tied maximal scores is resolved by a random permutation
    inside the protocol, so every tied class is accepted there; every
    other case has exactly one right answer.
    """
    row = np.asarray(row)
    scores_of = getattr(secure_model, "quantized_scores", None)
    if scores_of is not None:
        scores = scores_of(row)
        if len(scores) > 2:
            best = max(scores)
            return {
                int(label)
                for label, score in zip(secure_model.classes, scores)
                if score == best
            }
    return {int(secure_model.predict_quantized(row))}


def check_label(target: str, label: int, secure_model, row) -> None:
    allowed = expected_labels(secure_model, row)
    if int(label) not in allowed:
        raise CheckFailed(
            f"{target}: served label {label} for row {list(row)}, "
            f"expected one of {sorted(allowed)}"
        )


def check_risk(pipeline, disclosed, rho: float) -> float:
    """Re-evaluate a selected set's risk with a fresh evaluator, from
    scratch, and require it to be within ``rho``."""
    from repro.privacy.incremental import IncrementalRiskEvaluator

    used = pipeline.risk_evaluator
    fresh = IncrementalRiskEvaluator(
        used.adversary,
        used.rows,
        used.sensitive_columns,
        metric=used.metric,
        background_columns=used.background_columns,
    )
    priced = set(disclosed) - set(used.background_columns)
    risk = fresh.risk_of_set(priced)
    if risk > rho + RISK_TOLERANCE:
        raise CheckFailed(
            f"selection for rho={rho} has re-evaluated risk {risk}"
        )
    return risk


def check_ledger(ledger_path: str, identities, risk_model, rho: float) -> None:
    """Re-price every identity's cumulative disclosure with a fresh
    pricer and require it to be within the budget."""
    from repro.privacy.ledger import PrivacyLedger
    from repro.privacy.pricing import DisclosurePricer, risk_model_from_dict

    pricer = DisclosurePricer(risk_model_from_dict(risk_model))
    with PrivacyLedger(ledger_path) as ledger:
        for identity in sorted(identities):
            record = ledger.client(identity)
            spent = pricer.price(record.disclosed)
            if spent > rho + RISK_TOLERANCE:
                raise CheckFailed(
                    f"identity {identity} re-priced at {spent} > rho={rho}"
                )


# -- served workloads -----------------------------------------------------------


def fit_pipeline(kind: str, train, rho: float, seed: int):
    from repro.api import PipelineConfig, PrivacyAwareClassifier

    pipeline = PrivacyAwareClassifier(PipelineConfig(
        classifier=kind,
        risk_sample_rows=200,
        linear_iterations=150,
        tree_max_depth=TREE_DEPTH,
        seed=seed,
        **KEY_BITS,
    )).fit(train)
    pipeline.select_disclosure(rho)
    return pipeline


@dataclass(frozen=True)
class ServedBundle:
    """One server of a served workload."""

    name: str
    kind: str
    backend: str = "paillier"
    ledger: bool = False


SERVED_BUNDLES = {
    "served_smc": (
        ServedBundle("linear-shares", "linear", backend="shares"),
        ServedBundle("linear", "linear"),
        ServedBundle("naive_bayes", "naive_bayes"),
        ServedBundle("tree", "tree"),
    ),
    "served_disclosed": (
        ServedBundle("naive_bayes-disclosed", "naive_bayes", ledger=True),
    ),
}
#: The rho each workload's bundles are selected at.
SERVED_RHO = {"served_smc": 0.0, "served_disclosed": DISCLOSED_BUDGET}


@dataclass
class ServedInputs:
    """Everything a served run needs, made from the workload seed."""

    workload: str
    run_dir: Path
    bundles: Dict[str, str]
    deployed: Dict[str, object]
    pipelines: Dict[str, object]
    rows: List[List[int]]
    fit_seconds: List[float]
    ledgers: Dict[str, str] = field(default_factory=dict)

    def specs(self, tag: str) -> List[ServerSpec]:
        """Server specs for one launch; every launch gets a new ledger."""
        made = []
        for bundle in SERVED_BUNDLES[self.workload]:
            flags = ["--backend", bundle.backend]
            if bundle.ledger:
                self.ledgers[tag] = str(self.run_dir / f"ledger{tag}.db")
                flags += ["--ledger", self.ledgers[tag],
                          "--privacy-budget", str(DISCLOSED_BUDGET)]
            made.append(ServerSpec(bundle.name, self.bundles[bundle.kind], flags))
        return made


def build_served(workload: str, seed: int, run_dir: Path) -> ServedInputs:
    """Fit the workload's bundles on a warfarin cohort drawn from
    ``seed`` and write them into the run directory."""
    from repro.core.serialization import load_deployment, save_deployment
    from repro.data import generate_warfarin, train_test_split

    train, test = train_test_split(
        generate_warfarin(n_samples=COHORT_SIZE, seed=seed), seed=seed
    )
    served = SERVED_BUNDLES[workload]
    pipelines, bundles, fit_seconds = {}, {}, []
    for kind in dict.fromkeys(bundle.kind for bundle in served):
        started = time.perf_counter()
        pipelines[kind] = fit_pipeline(kind, train, SERVED_RHO[workload], seed)
        fit_seconds.append(time.perf_counter() - started)
        bundles[kind] = str(run_dir / f"bundle-{kind}.json")
        save_deployment(bundles[kind], pipelines[kind])
    deployed = {kind: load_deployment(path) for kind, path in bundles.items()}
    return ServedInputs(
        workload=workload,
        run_dir=run_dir,
        bundles=bundles,
        deployed={b.name: deployed[b.kind] for b in served},
        pipelines={b.name: pipelines[b.kind] for b in served},
        rows=[[int(v) for v in row] for row in test.X],
        fit_seconds=fit_seconds,
    )


def load_disclosure(workload: str, inputs: ServedInputs) -> List[int]:
    """The disclosure set every request of a workload asks for: none
    (pure SMC) or all features. The bundles' own rho = 0 policy is not
    used: which features have zero measured risk changes from cohort to
    cohort, and so would the work per query."""
    if workload == "served_smc":
        return []
    n_features = len(next(iter(inputs.deployed.values())).features)
    return list(range(n_features))


def served_request(server, deployed, row, client_seed, disclosure=None) -> Op:
    from repro.smc.transport import TransportError, request_classification

    started = time.perf_counter()
    try:
        result = request_classification(
            server.host, server.port, row, seed=client_seed,
            disclosure=disclosure,
        )
    except (TransportError, OSError) as error:  # ServerError included
        return Op(server.spec.name, time.perf_counter() - started, False,
                  error=f"{type(error).__name__}: {error}")
    latency = time.perf_counter() - started
    check_label(server.spec.name, result.label, deployed.secure_model, row)
    return Op(server.spec.name, latency, True, result=result,
              key=f"{server.spec.name}:{result.request_id}")


class ServedLoad:
    """Request streams of one served workload against one fleet."""

    def __init__(self, workload: str, seed: int, inputs: ServedInputs,
                 fleet: Fleet) -> None:
        self.workload = workload
        self.inputs = inputs
        self.fleet = fleet
        self.rngs = [random.Random(f"{seed}:{workload}:{c}")
                     for c in range(CLIENTS)]
        self.identity_base = (seed % 100_000) * 1_000_000 + 1
        self.identities: set = set()
        self.lock = threading.Lock()
        self.disclosure = load_disclosure(workload, inputs)
        self.routes = [
            index for index, weight in enumerate(SMC_WEIGHTS)
            for _ in range(weight)
        ]
        self.blocks: List[List[int]] = [[] for _ in range(CLIENTS)]

    def warm_up(self) -> None:
        """One request per server; part of set-up."""
        for server in self.fleet.servers:
            op = served_request(
                server, self.inputs.deployed[server.spec.name],
                self.inputs.rows[0], self.identity_base - 1,
                self.disclosure,
            )
            if not op.ok:
                raise RuntimeError(f"warm-up failed: {op.error}")

    def send(self, client: int, sequence: int) -> Op:
        rng = self.rngs[client]
        row = self.inputs.rows[rng.randrange(len(self.inputs.rows))]
        if self.workload == "served_smc":
            # Each block of len(routes) requests holds every server its
            # weight's worth of times, in a seeded order: the mix is exact
            # in every run, not just on average.
            block = self.blocks[client]
            if not block:
                block.extend(self.routes)
                rng.shuffle(block)
            server = self.fleet.servers[block.pop()]
            client_seed = rng.getrandbits(31)
        else:
            server = self.fleet.servers[0]
            identity = client + CLIENTS * (sequence // REQUESTS_PER_IDENTITY)
            client_seed = self.identity_base + identity
        op = served_request(
            server, self.inputs.deployed[server.spec.name], row,
            client_seed, self.disclosure,
        )
        if op.ok and self.workload == "served_disclosed":
            budget = op.result.budget
            if budget is None or budget.get("mode") != "full":
                raise CheckFailed(f"budget decision {budget} is not 'full'")
            with self.lock:
                self.identities.add(budget["identity"])
        return op

    def check_after_stop(self, tag: str) -> None:
        if self.workload != "served_disclosed":
            return
        deployed = self.inputs.deployed[self.fleet.servers[0].spec.name]
        check_ledger(self.inputs.ledgers[tag], self.identities,
                     deployed.risk_model, DISCLOSED_BUDGET)


def run_served_phase(inputs, seed, root, seconds, min_ops, traced, tag):
    """Launch, warm up, measure, stop. Returns (phase, setup_s, rss, spans)."""
    started = time.perf_counter()
    fleet = Fleet(root, inputs.run_dir, inputs.specs(tag), traced=traced, tag=tag)
    try:
        load = ServedLoad(inputs.workload, seed, inputs, fleet)
        try:
            load.warm_up()
            setup_s = time.perf_counter() - started
            phase = closed_loop(load.send, CLIENTS, seconds, min_ops)
        except CheckFailed as error:
            setup_s = time.perf_counter() - started
            phase = Phase(check_error=str(error))
        rss = fleet.peak_rss_mb()
    finally:
        fleet.stop()
    if phase.check_error is None:
        try:
            load.check_after_stop(tag)
        except CheckFailed as error:
            phase.check_error = str(error)
    return phase, setup_s, rss, fleet.spans()


def served_report(inputs: ServedInputs, phase: Phase, disclosure) -> List[str]:
    """Per-bundle served p50 beside what the cost model predicts: the
    modeled time of the disclosure set the requests used, the modeled
    pure-SMC time, and the pipeline's modeled speedup at its rho."""
    from repro.secure.backends import make_protocol_backend

    lines = []
    for bundle in SERVED_BUNDLES[inputs.workload]:
        latencies = [op.latency for op in phase.good if op.target == bundle.name]
        if not latencies:
            continue
        pipeline = inputs.pipelines[bundle.name]
        price = pipeline.config.cost_model.total_seconds
        secure = pipeline.secure_model
        if bundle.backend == "shares":
            backend = make_protocol_backend("shares")
            modeled = price(secure.estimated_trace(disclosure, backend=backend))
            pure = price(secure.estimated_trace((), backend=backend))
        else:
            modeled = price(pipeline.estimated_trace(disclosure))
            pure = pipeline.pure_smc_cost()
        lines.append(
            f"bundle {bundle.name}: n={len(latencies)} served_p50_ms="
            f"{statistics.median(latencies) * 1e3:.2f} modeled_ms="
            f"{modeled * 1e3:.3f} modeled_pure_smc_ms={pure * 1e3:.3f} "
            f"modeled_speedup_at_rho={pipeline.speedup():.1f}x"
        )
    return lines


def run_served(workload, seed, seconds, trace, root, run_dir, min_ops=MIN_OPS):
    inputs = build_served(workload, seed, run_dir)
    disclosure = load_disclosure(workload, inputs)
    if not trace:
        setups = []
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            phase, setup_s, rss, _ = run_served_phase(
                inputs, seed, root, seconds if last else 0.0,
                min_ops if last else 0, False, f"-{repeat}",
            )
            setups.append(setup_s)
            if phase.check_error:
                break
        metrics = end_to_end_metrics(phase, statistics.median(setups), rss)
        report = served_report(inputs, phase, disclosure) + [
            "setup_s runs: " + " ".join(f"{s:.3f}" for s in setups)
        ]
        return finish([phase], metrics, report)
    half = seconds / 2.0
    plain, _, _, _ = run_served_phase(
        inputs, seed, root, half, min_ops, False, "-plain"
    )
    phases = [plain]
    metrics: Dict[str, float] = {}
    if plain.check_error is None:
        traced, _, _, spans = run_served_phase(
            inputs, seed, root, half, min_ops, True, "-traced"
        )
        phases.append(traced)
        if traced.check_error is None:
            metrics = served_layer_metrics(plain, traced, spans, inputs)
    return finish(phases, metrics, served_report(inputs, plain, disclosure))


# -- select_sweep ---------------------------------------------------------------


def sweep_shape(index: int):
    """Classifier and feature count of sweep ``index``."""
    return SWEEP_KINDS[index % len(SWEEP_KINDS)], SWEEP_DIMS[index % len(SWEEP_DIMS)]


def sweep_pipeline(seed: int, index: int):
    """Dataset and fitted pipeline of sweep ``index``; returns the
    pipeline and the fit seconds."""
    from repro.api import PipelineConfig, PrivacyAwareClassifier
    from repro.data import generate_bayesnet_dataset

    kind, dims = sweep_shape(index)
    dataset = generate_bayesnet_dataset(
        n_samples=1500,
        n_features=dims,
        domain_size=3,
        n_sensitive=2,
        seed=seed * 1009 + index,
    )
    started = time.perf_counter()
    pipeline = PrivacyAwareClassifier(PipelineConfig(
        classifier=kind,
        risk_sample_rows=150,
        linear_iterations=150,
        seed=seed,
        **KEY_BITS,
    )).fit(dataset)
    return pipeline, time.perf_counter() - started


def sweep_phase(seed: int, seconds: float, min_ops: int,
                on_select: Optional[Callable[[str], None]] = None):
    """Sweeps from sweep 0 until time and op count are both reached, in
    whole cycles of :data:`SWEEP_CYCLE` sweeps (short of that only after
    :data:`HARD_LIMIT_S`). Returns the phase and the fit seconds of every
    sweep."""
    phase = Phase()
    fits = []
    started = time.perf_counter()
    deadline = started + seconds
    hard_deadline = started + max(seconds, HARD_LIMIT_S)
    index = 0
    while True:
        now = time.perf_counter()
        if (index % SWEEP_CYCLE == 0 and now >= deadline
                and len(phase.ops) >= min_ops):
            phase.wall = now - started
            return phase, fits
        pipeline, fit_s = sweep_pipeline(seed, index)
        fits.append(fit_s)
        target = "{}-d{}".format(*sweep_shape(index))
        for rho in SWEEP_RHOS:
            now = time.perf_counter()
            if now >= hard_deadline:
                phase.wall = now - started
                return phase, fits
            key = f"select-{len(phase.ops)}"
            if on_select is not None:
                on_select(key)
            begun = time.perf_counter()
            solution = pipeline.select_disclosure(rho)
            latency = time.perf_counter() - begun
            op = Op(target, latency, True, result=solution, key=key,
                    done=begun + latency - started)
            phase.ops.append(op)
            try:
                check_risk(pipeline, solution.disclosed, rho)
            except CheckFailed as error:
                phase.check_error = str(error)
                phase.wall = time.perf_counter() - started
                return phase, fits
        index += 1


def run_select(seed, seconds, trace, min_ops=MIN_OPS):
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            sweep_pipeline(seed, 0)
            setups.append(time.perf_counter() - started)
        phase, fits = sweep_phase(seed, seconds, min_ops)
        metrics = end_to_end_metrics(
            phase, statistics.median(setups), peak_rss_mb(),
            window_ops=WINDOW_CYCLES * SWEEP_CYCLE * len(SWEEP_RHOS),
        )
        report = [
            "setup_s runs: " + " ".join(f"{s:.3f}" for s in setups),
            f"sweeps: {len(fits)} fit_ms_mean: {statistics.mean(fits) * 1e3:.2f}",
        ]
        return finish([phase], metrics, report)
    half = seconds / 2.0
    plain, fits = sweep_phase(seed, half, min_ops)
    phases = [plain]
    metrics: Dict[str, float] = {}
    if plain.check_error is None:
        recorder = SpanRecorder()
        patches = Patches(recorder)
        current = {"key": None}
        install_selection_patches(patches, lambda: current["key"])
        try:
            traced, _ = sweep_phase(
                seed, half, min_ops,
                on_select=lambda key: current.update(key=key),
            )
        finally:
            patches.undo()
        phases.append(traced)
        if traced.check_error is None:
            metrics = select_layer_metrics(plain, traced, recorder.spans, fits)
    return finish(phases, metrics, [])


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(phase: Phase, setup_s: float, rss_mb: float,
                       window_ops: Optional[int] = None) -> Dict[str, float]:
    """Latency and throughput as the median over windows of the phase, so
    that a stretch of a run in which the host slows down moves one
    window, not the figure.

    Windows are equal spans of wall time (by completion time), or, with
    ``window_ops``, runs of that many consecutive operations (the rest
    joins the last window), each spanning the wall time from the previous
    window's last completion to its own."""
    if window_ops is None:
        count = min(max(len(phase.good) // WINDOW_OPS, MIN_WINDOWS), MAX_WINDOWS)
        width = phase.wall / count
        windows = [[] for _ in range(count)]
        for op in phase.good:
            windows[min(int(op.done / width), count - 1)].append(op)
        windows = [(w, width) for w in windows if w]
    else:
        ops = phase.good
        count = max(len(ops) // window_ops, 1)
        cuts = [i * window_ops for i in range(count)] + [len(ops)]
        windows = []
        for begin, end in zip(cuts, cuts[1:]):
            if end > begin:
                since = ops[begin - 1].done if begin else 0.0
                windows.append((ops[begin:end], ops[end - 1].done - since))
    if not windows:  # a check failed before any operation completed
        return {"setup_s": setup_s, "peak_rss_mb": rss_mb}

    def median_of(figure) -> float:
        return statistics.median(figure(w, span) for w, span in windows)

    return {
        "latency_p50_ms": median_of(
            lambda w, span: quantile([op.latency for op in w], 50)) * 1e3,
        "latency_p90_ms": median_of(
            lambda w, span: quantile([op.latency for op in w], 90)) * 1e3,
        "throughput_ops": median_of(lambda w, span: len(w) / span),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def finish(phases: List[Phase], metrics, report) -> RunResult:
    attempted = sum(len(p.ops) for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [p.check_error for p in phases if p.check_error]
    report = list(report) + [
        f"failed_frac: {failed / attempted if attempted else 0.0:.6f} "
        f"({failed} of {attempted} operations)"
    ]
    for index, phase in enumerate(phases):
        if phase.good:
            report.append(
                f"phase {index} whole: n={len(phase.good)} wall_s={phase.wall:.2f} "
                f"p50_ms={quantile(phase.latencies, 50) * 1e3:.2f} "
                f"p90_ms={quantile(phase.latencies, 90) * 1e3:.2f} "
                f"ops_per_s={len(phase.good) / phase.wall:.3f}"
            )
    report += [f"check failed: {e}" for e in errors]
    return RunResult(
        correct=not errors,
        attempted=max(attempted, 1),
        failed=failed,
        metrics=metrics,
        report=report,
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _overhead(plain: Phase, traced: Phase) -> float:
    return (
        statistics.median(traced.latencies)
        / statistics.median(plain.latencies) - 1.0
    )


def _trace_of(summary: dict):
    from repro.smc.protocol import ExecutionTrace, Op as CryptoOp

    trace = ExecutionTrace()
    for key, value in summary.items():
        if key.startswith("op_"):
            trace.ops[CryptoOp(key[3:])] = int(value)
    trace.bytes_client_to_server = int(summary["bytes_client_to_server"])
    trace.bytes_server_to_client = int(summary["bytes_server_to_client"])
    trace.messages = int(summary["messages"])
    trace.rounds = int(summary["rounds"])
    return trace


def served_layer_metrics(plain: Phase, traced: Phase, spans, inputs) -> Dict[str, float]:
    from repro.api import PipelineConfig

    ops = traced.good
    n = len(ops)
    index = SpanIndex(spans, [op.key for op in ops])

    def per_op_ms(seconds: float) -> float:
        return seconds / n * 1e3

    admits = index.named("budget.admit")
    priced = sum(
        1 for admit in admits
        if any(c["name"] == "budget.price" for c in index.children[admit["id"]])
    )
    draws = index.named("crypto.take_")
    drawn = sum(s["count"] for s in draws)
    strict = sum(min(s["count"], s["stocked"]) for s in draws)
    homomorphic = sum(
        value for op in ops for key, value in op.result.server_trace.items()
        if key.startswith(("op_paillier_", "op_dgk_"))
    )
    cost_model = PipelineConfig().cost_model
    modeled = _mean(
        cost_model.total_seconds(_trace_of(op.result.server_trace))
        for op in plain.good
    )
    client_seconds = sum(op.latency for op in ops)
    workers = index.named("serving.worker")
    return {
        "keys.ms_per_op": per_op_ms(index.layer_seconds("keys")),
        "budget.ms_per_op": per_op_ms(index.layer_seconds("budget")),
        "budget.priced_frac": priced / len(admits) if admits else 0.0,
        "budget.replayed_frac": (len(admits) - priced) / len(admits) if admits else 0.0,
        "secure.self_ms_per_op": per_op_ms(index.self_seconds("secure.")),
        "dotproduct.ms_per_op": per_op_ms(index.layer_seconds("dotproduct")),
        "compare.ms_per_op": per_op_ms(index.layer_seconds("compare")),
        "compare.calls_per_op": index.layer_calls("compare") / n,
        "argmax.ms_per_op": per_op_ms(index.layer_seconds("argmax")),
        "argmax.calls_per_op": index.layer_calls("argmax") / n,
        "shares.ms_per_op": per_op_ms(index.layer_seconds("shares")),
        "crypto.ms_per_op": per_op_ms(index.layer_seconds("crypto")),
        "crypto.homomorphic_ops_per_op": homomorphic / n,
        "triples.hit_frac": strict / drawn if drawn else 0.0,
        "wire.ms_per_op": per_op_ms(index.layer_seconds("wire")),
        "wire.frames_per_op": _mean(op.result.client_stats["frames"] for op in ops),
        "wire.kb_per_op": _mean(
            (op.result.client_stats["bytes_received"]
             + op.result.client_stats["bytes_sent"]) / 1024.0
            for op in ops
        ),
        "wire.rounds_per_op": _mean(op.result.server_trace["rounds"] for op in ops),
        "client.ms_per_op": client_seconds / n * 1e3,
        "serving.handler_ms_per_op": per_op_ms(
            sum(index.duration(s) for s in index.named("serving.handle"))
        ),
        "serving.queue_wait_ms": _mean(s["queue_wait"] for s in workers) * 1e3,
        "risk.ms_per_op": per_op_ms(index.layer_seconds("risk")),
        "risk.evals_per_op": index.layer_calls("risk") / n,
        "fit.ms": _mean(inputs.fit_seconds) * 1e3,
        "costmodel.modeled_ms_per_op": modeled * 1e3,
        "costmodel.measured_over_modeled": (
            _mean(plain.latencies) / modeled if modeled else 0.0
        ),
        "trace.coverage_frac": (
            index.covered_seconds("serving.worker", "serving") / client_seconds
        ),
        "trace.overhead_frac": _overhead(plain, traced),
    }


def select_layer_metrics(plain: Phase, traced: Phase, spans, fits) -> Dict[str, float]:
    ops = traced.good
    n = len(ops)
    index = SpanIndex(spans, [op.key for op in ops])

    def per_op_ms(seconds: float) -> float:
        return seconds / n * 1e3

    selection = index.named("selection.")
    return {
        "costing.ms_per_op": per_op_ms(index.layer_seconds("costing")),
        "costing.calls_per_op": index.layer_calls("costing") / n,
        "risk.ms_per_op": per_op_ms(index.layer_seconds("risk")),
        "risk.evals_per_op": index.layer_calls("risk") / n,
        "selection.self_ms_per_op": per_op_ms(index.self_seconds("selection.")),
        "fit.ms": _mean(fits) * 1e3,
        "trace.coverage_frac": (
            sum(index.duration(s) for s in selection)
            / sum(op.latency for op in ops)
        ),
        "trace.overhead_frac": _overhead(plain, traced),
    }
