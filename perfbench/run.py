"""Benchmark of the nsn training and detached-inference paths.

    python3 perfbench/run.py --workload train-nsn2 --seed 1 \
        --seconds 30 --trace 0

Workloads (closed loop, one client, one process, one BLAS thread):

- train-nsn2: ``nsn train --n-hidden 2`` for one epoch on 60000/10000
  generated samples, repeated while the time lasts;
- train-ref2: ``nsn train-ref --n-hidden 2``, the same way;
- infer-detach: ``nsn eval`` of a checkpoint a short untimed ``nsn train``
  wrote, then requests of 1 to 128 rows through
  ``nn.model_forward(spec, family.detach(fam, k), x, "eval")``.

Everything the program sees is generated from ``--seed``. With ``--trace 0``
only the outermost calls are timestamped and the end-to-end metrics are
reported; with ``--trace 1`` wrappers record spans at every layer boundary
and the per-layer metrics are reported. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. Output above it is
a readable report, including the machine record. See README.md here.
"""

from __future__ import annotations

import os

# Bitwise-reproducible training depends on a fixed summation order, so BLAS
# runs on one thread; the variables must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

from spans import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("train-nsn2", "train-ref2", "infer-detach")
N_HIDDEN = 2
TRAIN_SAMPLES = 60000
TEST_SAMPLES = 10000
FIXTURE_TRAIN_SAMPLES = 8192
BATCH = 128
EVAL_COMMANDS = 8       # `nsn eval` commands on infer-detach
# Per repetition of a train command: this many more evaluations of the
# trained models, each followed by a train command stopped at its first step
# (a set-up sample) and a probe of the GEMM floor.
EVALS_PER_REP = 2
MAX_ROWS_LOG2 = 7       # requests carry 1 .. 2**7 rows
PROBE_EVERY = 97        # every n-th request is re-run through view(n - k)
MIN_REQUESTS = 200      # however short the run, enough for a p95
# test_acc_base floors: far above chance (0.1), below what a working update
# reaches on every seed (README.md lists the measured values).
ACC_FLOOR = {"train-nsn2": 0.85, "train-ref2": 0.6, "infer-detach": 0.6}
SUBPROCESS_TIMEOUT = 120


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class _SetupDone(Exception):
    """Raised in place of the first training step of a setup-only command."""


def _stop_at_first_step(*args, **kwargs):
    raise _SetupDone


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(argv: list[str], what: str) -> str:
    proc = subprocess.run([sys.executable] + argv, env=_subprocess_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=SUBPROCESS_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}")
    return proc.stdout


def prepare(workload: str, seed: int, work: Path) -> Path:
    """Generate the inputs (and, for infer-detach, the checkpoint fixture)
    while `nsn verify` runs alongside; nothing is timed here."""
    verify = subprocess.Popen([sys.executable, "-m", "nsn.cli", "verify"],
                              env=_subprocess_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    try:
        data = work / "data"
        train = (FIXTURE_TRAIN_SAMPLES if workload == "infer-detach"
                 else TRAIN_SAMPLES)
        _run_child([str(HERE / "synth.py"), "--seed", str(seed), "--out",
                    str(data), "--train", str(train), "--test",
                    str(TEST_SAMPLES)], "data generator")
        if workload == "infer-detach":
            _run_child(["-m", "nsn.cli", "train", "--n-hidden", str(N_HIDDEN),
                        "--epochs", "1", "--data-dir", str(data),
                        "--out-dir", str(work / "fixture"),
                        "--seed", str(seed)], "fixture training")
        out, _ = verify.communicate(timeout=SUBPROCESS_TIMEOUT)
    finally:
        if verify.poll() is None:
            verify.kill()
        verify.wait()
    if verify.returncode != 0:
        raise BenchError(f"nsn verify exited with {verify.returncode}:\n{out}")
    return data


class Bench:
    """One workload run: the tracer, the program's modules and the results
    gathered from them."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: Path):
        import nsn.checkpoint
        import nsn.cli
        import nsn.family
        import nsn.mnist
        import nsn.nn
        import nsn.train
        import numpy as np
        from spans import Tracer

        self.np = np
        self.m = nsn
        # The benchmark's own checks call the unwrapped functions.
        self.load_checkpoint = nsn.checkpoint.load_checkpoint
        self.save_checkpoint = nsn.checkpoint.save_checkpoint
        self.family_from_checkpoint = nsn.train.family_from_checkpoint
        self.model_forward = nsn.nn.model_forward
        self.evaluate = nsn.train.evaluate
        self.load_dataset = nsn.mnist.load_dataset
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.work = trace, work
        self.tracer = Tracer()

    # -- wrappers -------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's public names: outermost calls always, every
        layer boundary when tracing."""
        import nsn
        np, t = self.np, self.tracer

        def finite(losses):
            return bool(np.all(np.isfinite(losses)))

        def fraction(acc):
            return 0.0 <= acc <= 1.0

        outer = [
            (nsn.cli, "train", "train.train", False, None, None),
            (nsn.cli, "train_reference", "train.train_reference", False,
             None, None),
            (nsn.train, "train_step", "train.train_step", True, None, finite),
            (nsn.train, "reference_step", "train.reference_step", True, None,
             finite),
            (nsn.train, "evaluate", "train.evaluate", True, None, fraction),
            (nsn.cli, "evaluate", "train.evaluate", True, None, fraction),
        ]
        for module, attr, name, starts_op, info, check in outer:
            t.patch(module, attr, t.wrap(getattr(module, attr), name,
                                         starts_op, info, check))
        if not self.trace:
            return

        def size(path):
            return Path(path).stat().st_size

        def fwd_name(a, k):
            return "nn.model_forward." + (a[3] if len(a) > 3
                                          else k.get("mode", "eval"))

        nbytes3 = lambda a, k, r: 3 * a[0].nbytes             # noqa: E731
        layers = [
            (nsn.train, "load_data_dir", "mnist.load_data_dir", None),
            (nsn.mnist, "load_dataset", "mnist.load_dataset",
             lambda a, k, r: size(a[0]) + size(a[1])),
            (nsn.cli, "load_dataset", "mnist.load_dataset",
             lambda a, k, r: size(a[0]) + size(a[1])),
            (nsn.train, "model_forward", fwd_name,
             lambda a, k, r: (a[2].shape[0], a[0].dims)),
            (nsn.nn, "model_forward", fwd_name,
             lambda a, k, r: (a[2].shape[0], a[0].dims)),
            (nsn.train, "model_backward", "nn.model_backward",
             lambda a, k, r: (a[2].logp.shape[0], a[0].dims)),
            (nsn.nn, "dense_forward", "nn.dense_forward",
             lambda a, k, r: (a[0].shape[0], a[1].in_dim, a[1].out_dim)),
            (nsn.nn, "dropout_mask", "nn.dropout_mask",
             lambda a, k, r: r.size),
            (nsn.train, "copy_up", "family.copy_up", None),
            (nsn.train, "paired_average_gradients",
             "family.paired_average_gradients",
             lambda a, k, r: sum(
                 (3 if g < len(r) - 1 else 2)
                 * (x.d_weight.nbytes + x.d_bias.nbytes)
                 for g, x in enumerate(r))),
            (nsn.train, "momentum_nsn", "optim.momentum_nsn", nbytes3),
            (nsn.train, "momentum_standard", "optim.momentum_standard",
             nbytes3),
            (nsn.train, "apply_update", "optim.apply_update", nbytes3),
            (nsn.train, "l2_gradient", "optim.l2_gradient",
             lambda a, k, r: 2 * a[1].nbytes),
            (nsn.train, "save_checkpoint", "checkpoint.save_checkpoint",
             lambda a, k, r: size(a[0])),
            (nsn.cli, "load_checkpoint", "checkpoint.load_checkpoint",
             lambda a, k, r: size(a[0])),
        ]
        for module, attr, name, info in layers:
            t.patch(module, attr, t.wrap(getattr(module, attr), name,
                                         info=info))
        t.patch(nsn.train, "batches",
                t.wrap_generator(nsn.train.batches, "mnist.batches"))

    # -- commands -------------------------------------------------------

    def command(self, argv: list[str]) -> tuple[str, int]:
        """Run one `nsn` command in this process; returns (captured output,
        index of its cli.main span). A failed command fails the run."""
        first = len(self.tracer.spans)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                self.tracer.span("cli.main", starts_op=True):
            code = self.m.cli.main(argv)
        if code != 0:
            raise BenchError(f"nsn {' '.join(argv)} exited with {code}:\n"
                             f"{buf.getvalue()[-2000:]}")
        return buf.getvalue(), first

    def spans_named(self, first: int, *names: str) -> list:
        return [s for s in self.tracer.spans[first:] if s[0] in names]

    # -- train workloads ------------------------------------------------

    def run_train(self, data: Path) -> dict:
        from measure import probe_floor
        nsn = self.m
        ref = self.workload == "train-ref2"
        step_span = "train.reference_step" if ref else "train.train_step"
        argv = ["train-ref" if ref else "train", "--n-hidden", str(N_HIDDEN),
                "--epochs", "1", "--data-dir", str(data),
                "--seed", str(self.seed)]

        # Every repetition writes to the same directory, so that the path in
        # the checkpoint's config echo is the same and the files can be
        # compared byte for byte.
        out = self.work / "train"
        setups, reps, evals, digests = [], [], [], set()
        floors, began = [probe_floor()], clock()
        test = self.load_test_set(data)
        while True:
            shutil.rmtree(out, ignore_errors=True)
            start = clock()
            _, first = self.command(argv + ["--out-dir", str(out)])
            end = clock()
            steps = self.spans_named(first, step_span)
            train_end = self.spans_named(
                first, "train.train", "train.train_reference")[-1][2]
            reps.append({
                "setup": steps[0][1] - start,
                "steps": [s[2] - s[1] for s in steps],
                "train_s": train_end - steps[0][1],
            })
            evals.append(sum(s[2] - s[1] for s in
                             self.spans_named(first, "train.evaluate")))
            final = (out / "checkpoint_final.nsn").read_bytes()
            digests.add(hashlib.sha256(final).hexdigest())
            # Between repetitions, so that eval_s and setup_s average
            # samples spread over the run: more evaluations of the models
            # just trained, set-up samples and floor probes.
            models = self.trained_models(out, family=not ref)
            for _ in range(EVALS_PER_REP):
                start_eval = clock()
                with self.tracer.span("bench.evaluate_models", starts_op=True):
                    for params in models:
                        nsn.train.evaluate(params, test)
                evals.append(clock() - start_eval)
                setups.append(self.setup_only(argv))
                floors.append(probe_floor())
            # A repetition is indivisible; stop when the next one would
            # overrun the time by more than half of it.
            if clock() - began + (end - start) / 2 > self.seconds:
                break

        self.tracer.check(len(digests) == 1,
                          "repetitions wrote different final checkpoints")
        acc = self.check_train_outputs(out, test, family=not ref)
        steps = [t for r in reps for t in r["steps"]]
        return {
            "setups": setups + [r["setup"] for r in reps],
            "ops_ms": [t * 1e3 for t in steps],
            "samples_per_s": (TRAIN_SAMPLES * len(reps)
                              / sum(r["train_s"] for r in reps)),
            "evals": evals,
            "test_acc_base": acc,
            "floors_ms": floors,
            "report": {"repetitions": len(reps), "steps": len(steps)},
        }

    def setup_only(self, argv: list[str]) -> float:
        """Seconds from the start of one train command to its first step,
        where the command is stopped."""
        nsn = self.m
        step = ("reference_step" if self.workload == "train-ref2"
                else "train_step")
        out = self.work / "setup"
        shutil.rmtree(out, ignore_errors=True)
        wrapped = getattr(nsn.train, step)
        setattr(nsn.train, step, _stop_at_first_step)
        start = clock()
        try:
            self.command(argv + ["--out-dir", str(out)])
            self.tracer.check(False, "setup-only command finished")
        except _SetupDone:
            pass
        finally:
            setattr(nsn.train, step, wrapped)
        return clock() - start

    def load_test_set(self, data: Path):
        from nsn.mnist import TEST_IMAGES, TEST_LABELS
        return self.load_dataset(data / TEST_IMAGES, data / TEST_LABELS)

    def trained_models(self, out: Path, family: bool) -> list:
        """Every model of the final checkpoint in ``out``, smallest first."""
        ckpt = self.load_checkpoint(out / "checkpoint_final.nsn")
        if family:
            return self.family_from_checkpoint(ckpt)[0].views()
        return [[self.m.nn.DenseLayer(g.weight, g.bias)
                 for g in reversed(ckpt.groups)]]

    def check_train_outputs(self, out: Path, test, family: bool) -> float:
        """The final checkpoint round-trips, detaches exactly and reproduces
        the logged accuracy, which clears the floor. Returns the accuracy."""
        ckpt = self.check_round_trip(out / "checkpoint_final.nsn")
        if family:
            self.check_detach(self.family_from_checkpoint(ckpt)[0],
                              test.images[:64])
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        logged = float(rows[-1].split(",")[-1])
        acc = self.evaluate(self.trained_models(out, family)[-1], test)
        self.tracer.check(f"{acc:.8g}" == f"{logged:.8g}",
                          f"checkpoint accuracy {acc} != logged {logged}")
        self.check_floor(acc)
        return acc

    def check_floor(self, acc: float) -> None:
        floor = ACC_FLOOR[self.workload]
        self.tracer.check(acc > floor, f"test_acc_base {acc} below {floor}")

    def check_round_trip(self, path: Path):
        """load -> save gives back the same bytes."""
        ckpt = self.load_checkpoint(path)
        copy = self.work / "roundtrip.nsn"
        self.save_checkpoint(copy, ckpt)
        self.tracer.check(copy.read_bytes() == path.read_bytes(),
                          "checkpoint load -> save is not bitwise identical")
        return ckpt

    def check_detach(self, family, probe) -> None:
        from nsn.family import detach
        from nsn.nn import spec_for_params
        for k in range(family.n + 1):
            view = family.view(family.n - k)
            spec = spec_for_params(view)
            got, _ = self.model_forward(spec, detach(family, k), probe, "eval")
            want, _ = self.model_forward(spec, view, probe, "eval")
            self.tracer.check(self.np.array_equal(got, want),
                              f"detach({k}) differs from view({family.n - k})")

    # -- infer-detach ---------------------------------------------------

    def run_infer(self, data: Path) -> dict:
        from measure import probe_floor
        from nsn.nn import spec_for_params
        np, nsn = self.np, self.m
        ckpt_path = self.work / "fixture" / "checkpoint_final.nsn"
        family, _ = self.family_from_checkpoint(
            self.check_round_trip(ckpt_path))
        test = self.load_test_set(data)
        self.check_detach(family, test.images[:64])
        n = family.n
        specs = [spec_for_params(family.view(n - k)) for k in range(n + 1)]
        rng = np.random.default_rng([self.seed, 7])
        images = test.images

        setups, evals, texts, floors = [], [], set(), []
        latencies, rows_done, i, loop_s = [], 0, 0, 0.0
        began = clock()
        # `nsn eval` commands, each followed by a floor probe, are spread
        # evenly over the run; requests fill the time between them.
        while (len(evals) < EVAL_COMMANDS or i < MIN_REQUESTS
               or clock() - began < self.seconds):
            if (len(evals) < EVAL_COMMANDS and len(evals) * self.seconds
                    / EVAL_COMMANDS <= clock() - began):
                setup, ev, text = self.eval_command(ckpt_path, data)
                setups.append(setup)
                evals.append(ev)
                texts.add(text)
                floors.append(probe_floor())
                segment = clock()
                continue
            if i % 1024 == 0:
                sizes = np.rint(2.0 ** rng.uniform(0, MAX_ROWS_LOG2, 1024))
                sizes = sizes.astype(np.int64)
                offsets = rng.integers(0, images.shape[0] - sizes)
            rows = int(sizes[i % 1024])
            off = int(offsets[i % 1024])
            x = images[off:off + rows]
            k = i % (n + 1)
            start = clock()
            with self.tracer.span("infer.request", starts_op=True):
                logp, _ = nsn.nn.model_forward(
                    specs[k], nsn.family.detach(family, k), x, "eval")
            latencies.append(clock() - start)
            ok = logp.shape == (rows, family.classes) and bool(
                np.isfinite(logp).all())
            if i % PROBE_EVERY == 0:
                want, _ = self.model_forward(specs[k], family.view(n - k),
                                             x, "eval")
                ok = ok and np.array_equal(logp, want)
            self.tracer.check(ok, f"request {i} (k={k}, rows={rows}) is wrong")
            rows_done += rows
            i += 1
            now = clock()
            loop_s += now - segment
            segment = now

        self.tracer.check(len(texts) == 1,
                          "eval commands printed different results")
        acc = float(texts.pop().splitlines()[-1].split()[3])
        rows = (self.work / "fixture" / "metrics.csv").read_text().splitlines()
        logged = float(rows[-1].split(",")[-1])
        self.tracer.check(f"{acc:.6f}" == f"{logged:.6f}",
                          f"eval accuracy {acc} != training's logged {logged}")
        self.check_floor(acc)
        return {
            "setups": setups,
            "ops_ms": [t * 1e3 for t in latencies],
            "samples_per_s": rows_done / loop_s,
            "evals": evals,
            "test_acc_base": acc,
            "floors_ms": floors,
            "report": {"requests": i, "rows": rows_done},
        }

    def eval_command(self, ckpt_path: Path, data: Path):
        """One `nsn eval`: (setup seconds, evaluate seconds, output)."""
        start = clock()
        text, first = self.command(
            ["eval", "--checkpoint", str(ckpt_path), "--data-dir", str(data)])
        ev = self.spans_named(first, "train.evaluate")
        return ev[0][1] - start, sum(s[2] - s[1] for s in ev), text


def end_to_end(result: dict) -> dict[str, float]:
    """Means, not medians, for the central timings: on a machine that
    alternates between a fast and a slow speed, the median jumps from one
    to the other as their shares cross one half, while the mean moves in
    proportion."""
    from measure import median, percentile
    ops = result["ops_ms"]
    return {
        "setup_s": median(result["setups"]),
        "op_ms_mean": sum(ops) / len(ops),
        "op_ms_p95": percentile(ops, 95),
        "samples_per_s": result["samples_per_s"],
        "eval_s": sum(result["evals"]) / len(result["evals"]),
        "test_acc_base": result["test_acc_base"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def print_report(workload: str, e2e: dict, result: dict, bench: Bench,
                 machine: dict, floor: dict) -> None:
    """Readable lines, under the names the end-to-end metrics have on this
    workload."""
    from measure import (PROBE_SHAPE, drift, median, percentile, shape_name,
                         tail_percentile)
    train = workload != "infer-detach"
    op = "step" if train else "infer"
    ops = result["ops_ms"]
    tail = tail_percentile(len(ops))
    failed = len(bench.tracer.failures)
    attempted = max(bench.tracer.checked, 1)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print("gemm_floor_ms " + json.dumps(
        {shape_name(s): round(v, 4) for s, v in sorted(floor.items())}))
    probes = result["floors_ms"]
    print(f"gemm_floor_probe {shape_name(PROBE_SHAPE)} over the run: "
          f"n={len(probes)} min={min(probes):.4g} median={median(probes):.4g}"
          f" max={max(probes):.4g} ms, drift {drift(probes):.1%}; "
          f"{op}_ms_mean / median probe = "
          f"{e2e['op_ms_mean'] / median(probes):.4g}")
    print(f"workload {workload}: {json.dumps(result['report'])}")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(result['setups'])}"),
        ("train_samples_per_s" if train else "infer_rows_per_s",
         e2e["samples_per_s"], "1/s", ""),
        (f"{op}_ms_mean", e2e["op_ms_mean"], "ms", f"n={len(ops)}"),
        (f"{op}_ms_p50", percentile(ops, 50), "ms", " ".join(
            f"p{q}={percentile(ops, q):.4g}" for q in (10, 25, 75, 90))),
        (f"{op}_ms_p95", e2e["op_ms_p95"], "ms", f"n={len(ops)}"),
    ]
    if tail is not None and tail not in (50.0, 95.0):
        rows.append((f"{op}_ms_p{tail:g}", percentile(ops, tail), "ms",
                     f"highest percentile with >=10 beyond, n={len(ops)}"))
    rows += [
        ("eval_s", e2e["eval_s"], "s", f"mean of {len(result['evals'])}"),
        ("test_acc_base", e2e["test_acc_base"], "fraction", ""),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss"),
        ("error_rate", failed / attempted, "fraction",
         f"{failed}/{attempted} operations failed"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<9} {note}")
    for what in bench.tracer.failures[:20]:
        print(f"  FAILED: {what}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nsn" / "__init__.py").is_file():
        print(f"error: the nsn package is not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    machine = measure.machine_record()
    if machine["blas_threads"] != 1:
        print(f"error: BLAS runs {machine['blas_threads']} threads, "
              "the benchmark needs exactly 1", file=sys.stderr)
        return 1

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = prepare(args.workload, args.seed, work)
        floor = measure.gemm_floor(sorted(set(measure.gemm_shapes(
            BATCH, (784,) * (N_HIDDEN + 1) + (10,)))))
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
        bench.install()
        try:
            result = (bench.run_infer(data) if args.workload == "infer-detach"
                      else bench.run_train(data))
        finally:
            bench.tracer.unpatch()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(result)
    print_report(args.workload, e2e, result, bench, machine, floor)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        from layers import per_layer
        from measure import drift, median
        from spans import span_cost_s
        values = per_layer(bench.tracer.spans, floor)
        values["gemm_floor.probe.median_ms"] = median(result["floors_ms"])
        values["gemm_floor.probe.drift"] = drift(result["floors_ms"])
        values["trace.op_ms_mean"] = e2e["op_ms_mean"]
        values["trace.samples_per_s"] = e2e["samples_per_s"]
        values["trace.overhead_ms_per_step"] = (
            values["trace.spans_per_step"] * span_cost_s() * 1e3)
        bench.tracer.write(WORK / f"spans-{args.workload}.jsonl")
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        print("per-layer metrics:")
        for k, v in sorted(values.items()):
            print(f"  {k:<46} {v:>14.6g} {units.get(k, '?')}")
    else:
        values = e2e
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not "
              "both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(bench.tracer.failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": max(bench.tracer.checked, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
