"""The three workloads, their correctness checks and the traced run.

One benchmark process runs one stage process at a time (a closed loop with a
single client). Set-up is work outside the timed part that builds the
workload's input tree; the timed part repeats until it has measured
``seconds`` of work, each repetition on a fresh copy of the timed stages'
outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import sys
import time

from . import spec
from .envstamp import host_probe_s
from .runner import (
    StageRun,
    manifest,
    manifest_diff,
    remove,
    run_process,
    tree_bytes,
)
from .stats import per_call_summary
from .tracing import Tracer, layer_metrics, traced

#: a run must end well inside the 180 s every run is allowed
RUN_BUDGET_S = 165.0
#: rounds of `pipeline` on a complete tree in the traced run (8 no-op stages each)
NOOP_ROUNDS = 13
#: train set-ups per run, one before and one after the timed passes, so that
#: setup_s is taken over the same stretch of host speed as wall_s
TRAIN_SETUPS = 2
#: etl set-ups (one synth process, ~1.5 s) before each pass; one synth can
#: take 60% longer than the next on the 2-CPU host, so a run takes the
#: median of several, spread over the run like the passes
ETL_SETUPS_PER_PASS = 2
IMPORT_SAMPLES = 5

#: the directory each stage writes its artifacts to
STAGE_DIR = {
    "synth": "raw",
    "ingest": "canonical",
    "align": "aligned",
    "impute": "imputed",
    "dataset": "dataset",
    "train": "train",
    "eval": "eval",
    "viz": "viz",
}


class SetupError(RuntimeError):
    """The workload's input could not be built, so nothing can be measured."""


class Run:
    """State of one benchmark run: paths, budget and the check tally."""

    def __init__(self, root: str, work: str, workload: str, seed: int, seconds: float):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.src = os.path.join(root, "src")
        # only the checkout's sources are importable by the stage processes
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: host_probe_s before each timed pass
        self.probes: list[float] = []
        self.config = os.path.join(work, "bench.cfg")
        self._logs = 0
        os.makedirs(work, exist_ok=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(spec.CONFIG_TEXT)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def tree(self, name: str) -> str:
        return os.path.join(self.work, name)

    def process(self, argv: list[str]) -> StageRun:
        self._logs += 1
        log_dir = os.path.join(self.work, "logs", f"{self._logs:04d}")
        return run_process(argv, self.env, log_dir, self.remaining(), cwd=self.root)

    def stage(self, stage: str, tree: str) -> StageRun:
        """Run one stage process and count it as an attempt."""
        r = self.process([sys.executable, "-m", "harforge", stage, "--out", tree, *self.cli_args()])
        self.check(r.ok, f"{stage} exited {r.code}: {r.stderr.strip()[-400:]}")
        return r

    def cli_args(self) -> list[str]:
        return ["--config", self.config, "--seed", str(self.seed)]

    def setup_stage(self, stage: str, tree: str) -> StageRun:
        r = self.stage(stage, tree)
        if not r.ok:
            raise SetupError(self.failures[-1])
        return r

    def has_time_for(self, pass_seconds: float) -> bool:
        return self.remaining() > 2.0 * pass_seconds + 5.0


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report(tree: str, stage: str) -> dict:
    return _read_json(os.path.join(tree, "reports", f"{stage}.json"))


def _artifact_dirs(tree: str) -> tuple[str, ...]:
    return tuple(sorted(d for d in os.listdir(tree) if d != "reports"))


def _reset(tree: str, stages: tuple[str, ...]) -> None:
    """Delete what ``stages`` wrote so the next pass rebuilds it."""
    for stage in stages:
        remove(os.path.join(tree, STAGE_DIR[stage]), os.path.join(tree, "reports", f"{stage}.json"))


def _timed_passes(
    run: Run, tree: str, stages: tuple[str, ...], check_pass, prepare
) -> list[list[StageRun]]:
    """Repeat the stage sequence until ``run.seconds`` of it are measured.

    ``prepare(tree)`` runs before each pass, outside the measured time.
    """
    passes: list[list[StageRun]] = []
    measured = 0.0
    while True:
        # stop before a pass that would mostly run past the measured time
        if passes and measured + 0.5 * measured / len(passes) >= run.seconds:
            break
        run.probes.append(host_probe_s())
        prepare(tree)
        runs: list[StageRun] = []
        for stage in stages:
            runs.append(run.stage(stage, tree))
            if not runs[-1].ok:
                break
        passes.append(runs)
        wall = sum(r.seconds for r in runs)
        measured += wall
        if len(runs) < len(stages):
            break
        check_pass(tree, runs)
        if not run.has_time_for(wall):
            break
    return passes


def _pass_seconds(passes: list[list[StageRun]]) -> list[dict[str, float]]:
    return [{r.argv[3]: r.seconds for r in p} for p in passes]


def _end_to_end(setup: list[float], passes: list[list[StageRun]], carry: tuple[str, ...]) -> dict:
    """``carry`` names the stages over whose time the cohort's user-days count."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": median_time(_pass_seconds(passes)),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "user_days_per_s": spec.USER_DAYS / median_time(_pass_seconds(passes), carry),
    }


def median_time(passes: list[dict[str, float]], stages: tuple[str, ...] | None = None) -> float:
    """Sum over ``stages`` (default: all) of each stage's median time in ``passes``.

    The host is shared and slows every stage by 30-90% in phases of
    seconds to minutes. A median per stage lets one pass's slow stage be
    outvoted by the other passes' runs of that stage.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for stage, seconds in p.items():
            if stages is None or stage in stages:
                times.setdefault(stage, []).append(seconds)
    return sum(statistics.median(t) for t in times.values())


def _etl_reference(run: Run, actual: dict[str, str]) -> dict[str, str]:
    """The manifest the etl outputs must match.

    The committed one (recorded from the seed commit) when it exists for
    this seed and config, else the first run's in this checkout.
    """
    name = f"etl-seed{run.seed}-{spec.config_digest()}.json"
    committed = os.path.join(run.root, "bench", "manifests", name)
    if os.path.exists(committed):
        return _read_json(committed)
    local = os.path.join(run.root, ".bench_work", "manifests", name)
    if not os.path.exists(local):
        os.makedirs(os.path.dirname(local), exist_ok=True)
        with open(local, "w", encoding="utf-8") as fh:
            json.dump(actual, fh, indent=1, sort_keys=True)
    return _read_json(local)


def check_etl(run: Run, tree: str) -> bool:
    """The etl trees must match the reference manifest byte for byte."""
    actual = manifest(tree, spec.ETL_TREES)
    diff = manifest_diff(_etl_reference(run, actual), actual)
    return run.check(not diff, f"etl outputs differ from the reference manifest: {diff[:5]}")


#: the etl stages that carry user-days from raw exports to the window store
ETL_CARRY = ("ingest", "align", "impute", "dataset")


def etl(run: Run) -> tuple[dict, dict]:
    """Each pass starts from an empty tree: set-up (synth), then the timed stages."""
    setup: list[float] = []
    raws: list[dict[str, str]] = []

    def fresh_cohort(tree: str) -> None:
        for _ in range(ETL_SETUPS_PER_PASS):
            remove(tree)
            setup.append(run.setup_stage("synth", tree).seconds)
            raws.append(manifest(tree, ("raw",)))
            run.check(raws[-1] == raws[0], "synth wrote different raw/ trees for one seed")

    passes = _timed_passes(
        run,
        run.tree("tree"),
        spec.WORKLOADS["etl"]["timed"],
        lambda tree, runs: check_etl(run, tree),
        fresh_cohort,
    )
    metrics = _end_to_end(setup, passes, ETL_CARRY)
    return metrics, {"setup_s": setup, "pass_s": _pass_seconds(passes)}


def _check_train(run: Run, tree: str) -> None:
    for w in spec.WIDTHS:
        try:
            history = _read_json(os.path.join(tree, "train", f"history_w{w}_temporal.json"))
            losses = [h.get(k) for h in history for k in ("train_loss", "val_loss")]
            epochs = len(history)
        except (OSError, ValueError) as err:
            losses, epochs = [repr(err)], 0
        run.check(
            all(isinstance(v, float) and math.isfinite(v) for v in losses),
            f"width {w}: non-finite or missing loss in the training history",
        )
        run.check(
            epochs == spec.MAX_EPOCHS,
            f"width {w}: {epochs} epochs trained, expected {spec.MAX_EPOCHS}",
        )
        try:
            report = _read_json(os.path.join(tree, "eval", f"report_w{w}_temporal.json"))
            ok = report["n_windows"] > 0 and all(
                0.0 <= report[k] <= 1.0 for k in ("accuracy_l1", "accuracy_l2", "macro_f1_l2")
            )
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        run.check(ok, f"width {w}: eval report missing or malformed")


def _train_windows_per_s(tree: str, train_seconds: float) -> float:
    counts = _report(tree, "train")["counts"]
    return sum(c["epochs"] * c["train_windows"] for c in counts.values()) / train_seconds


def _set_up(run: Run, tree: str) -> float:
    """Build the workload's input tree; the summed seconds of its stages."""
    return sum(run.setup_stage(s, tree).seconds for s in spec.WORKLOADS[run.workload]["setup"])


def train(run: Run) -> tuple[dict, dict]:
    """user_days_per_s is the cohort's user-days over the train+eval time:
    no user-day passes through these stages, so it is 40 / wall_s, kept so
    that every workload reports every end-to-end metric. The training
    throughput is train_windows_per_s, printed beside it."""
    tree = run.tree("tree")
    timed = spec.WORKLOADS["train"]["timed"]
    setup = [_set_up(run, tree)]
    upstream = _artifact_dirs(tree)
    throughput: list[float] = []

    def check_pass(tree: str, runs: list[StageRun]) -> None:
        _check_train(run, tree)
        throughput.append(_train_windows_per_s(tree, runs[0].seconds))

    passes = _timed_passes(run, tree, timed, check_pass, lambda tree: _reset(tree, timed))
    # set up again after the passes, so setup_s spans the run like wall_s
    for i in range(1, TRAIN_SETUPS):
        again = run.tree(f"setup{i}")
        setup.append(_set_up(run, again))
        diff = manifest_diff(manifest(tree, upstream), manifest(again, upstream))
        run.check(not diff, f"a second set-up wrote different input trees: {diff[:5]}")
        remove(again)
    metrics = _end_to_end(setup, passes, timed)
    extra = {"setup_s": setup, "pass_s": _pass_seconds(passes)}
    if throughput:
        extra["train_windows_per_s"] = statistics.median(throughput)
    return metrics, extra


def _skipped_every_stage(stdout: str) -> bool:
    return all(f"[{s}] up to date, skipped" in stdout for s in spec.STAGES)


def rerun(run: Run) -> tuple[dict, dict]:
    tree = run.tree("tree")
    setup = _set_up(run, tree)
    dirs = _artifact_dirs(tree)
    before = manifest(tree, dirs)

    def check_call(tree: str, runs: list[StageRun]) -> None:
        run.check(
            _skipped_every_stage(runs[0].stdout), "pipeline rebuilt a stage on a complete tree"
        )
        diff = manifest_diff(before, manifest(tree, dirs))
        run.check(not diff, f"pipeline changed artifacts on a complete tree: {diff[:5]}")

    passes = _timed_passes(run, tree, ("pipeline",), check_call, lambda tree: None)
    calls = [p[0] for p in passes]
    metrics = _end_to_end([setup], passes, ("pipeline",))
    return metrics, {"call_s": [c.seconds for c in calls]}


UNTRACED = {"etl": etl, "train": train, "rerun": rerun}


def _import_cli(src: str):
    if src not in sys.path:
        sys.path.insert(0, src)
    import harforge.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SetupError(f"harforge was imported from {cli.__file__}, not from {src}")
    return cli


def _main_quiet(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _stage_durations(tree: str) -> dict[str, float]:
    return {s: _report(tree, s)["duration_s"] for s in spec.STAGES}


def _in_process_pass(run: Run, cli, tree: str) -> dict[str, float]:
    """Every stage once through ``harforge.cli.main``; each stage's own duration."""
    for stage in spec.STAGES:
        code, text = _main_quiet(cli, [stage, "--out", tree, *run.cli_args()])
        if not run.check(code == 0, f"in-process {stage} exited {code}: {text[-400:]}"):
            raise SetupError(run.failures[-1])
    return _stage_durations(tree)


def traced_run(run: Run) -> tuple[dict, dict, Tracer]:
    """Every stage once as untraced processes, then twice in-process.

    The processes give each stage's wall time and peak RSS. The in-process
    passes run untraced and then traced; both must write the processes'
    artifacts. Both cover all eight stages on every workload, so each
    workload reports every layer; the workload only selects which stages
    the tracing overhead is taken over.
    """
    m: dict[str, float] = {}
    tree = run.tree("processes")
    runs = {"synth": run.setup_stage("synth", tree)}
    for stage in spec.STAGES[1:]:
        runs[stage] = run.setup_stage(stage, tree)
    for stage, r in runs.items():
        m[f"cli.stage.{stage}.s"] = r.seconds
        m[f"cli.stage.{stage}.rss_mb"] = r.rss_mb
        m[f"cli.stage.{stage}.bytes_out"] = tree_bytes(os.path.join(tree, STAGE_DIR[stage]))
    m["model.training.train_windows_per_s"] = _train_windows_per_s(tree, runs["train"].seconds)
    process_s = _stage_durations(tree)
    dirs = _artifact_dirs(tree)
    expected = manifest(tree, dirs)

    probe = (
        "import time; t = time.perf_counter(); import harforge.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(IMPORT_SAMPLES):
        r = run.process([sys.executable, "-c", probe])
        if run.check(r.ok, f"importing harforge.cli failed: {r.stderr.strip()[-400:]}"):
            imports.append(float(r.stdout.strip()))
    m["cli.import_s"] = statistics.median(imports)

    cli = _import_cli(run.src)
    untraced_tree, traced_tree = run.tree("untraced"), run.tree("traced")
    untraced_s = _in_process_pass(run, cli, untraced_tree)
    tracer = Tracer()
    with traced(tracer):
        traced_s = _in_process_pass(run, cli, traced_tree)
    for name, path in (("untraced", untraced_tree), ("traced", traced_tree)):
        diff = manifest_diff(expected, manifest(path, dirs))
        run.check(not diff, f"{name} in-process artifacts differ from the processes': {diff[:5]}")

    noop_tracer = Tracer()
    with traced(noop_tracer):
        for _ in range(NOOP_ROUNDS):
            code, text = _main_quiet(cli, ["pipeline", "--out", traced_tree, *run.cli_args()])
            run.check(
                code == 0 and _skipped_every_stage(text),
                f"in-process pipeline rebuilt: {text[-400:]}",
            )
    noop_stages = tuple(f"cli.stage.{s}" for s in spec.STAGES)
    noop = per_call_summary(
        [1000.0 * s.duration for s in noop_tracer.spans if s.name in noop_stages]
    )
    for key in ("p50", "tail", "n"):
        m[f"cli.run_stage.noop_ms.{key}"] = noop[key]

    m.update(layer_metrics(tracer, spec.STAGES))
    # the wrappers' own bookkeeping, timed inside each wrapper: the
    # difference of a traced and an untraced pass is mostly host noise
    if run.workload == "rerun":
        m["trace.overhead_s"] = noop_tracer.overhead(noop_stages) / NOOP_ROUNDS
    else:
        timed = spec.WORKLOADS[run.workload]["timed"]
        m["trace.overhead_s"] = tracer.overhead(tuple(f"cli.stage.{s}" for s in timed))
    extra = {
        "traced_minus_untraced_s": sum(traced_s[s] - untraced_s[s] for s in spec.STAGES),
        "noop_tail_q": noop["tail_q"],
        "process_stage_s": process_s,
        "untraced_stage_s": untraced_s,
        "traced_stage_s": traced_s,
        "spans": len(tracer.spans) + len(noop_tracer.spans),
    }
    return m, extra, tracer
