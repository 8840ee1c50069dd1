"""Per-layer metrics from the spans of a traced run.

"Per step" divides by the run's units of work: the training steps on the
train workloads, the inference requests on infer-detach. "Per command"
takes the median over the ``nsn`` commands the run ran (one per setup
or training repetition, one per ``nsn eval``).
"""

from __future__ import annotations

from collections import defaultdict

from measure import gemm_flops, gemm_shapes, median, shape_name
from spans import self_times

UNIT_SPANS = ("train.train_step", "train.reference_step", "infer.request")
STEP_SPANS = UNIT_SPANS[:2]
PER_STEP = ("family.paired_average_gradients", "family.copy_up",
            "optim.momentum_nsn", "optim.momentum_standard",
            "optim.l2_gradient", "optim.apply_update")


def _forward_shapes(info):
    rows, dims = info
    return [s for s in gemm_shapes(rows, dims) if s[0] == "fwd"]


def _backward_shapes(info):
    rows, dims = info
    return [s for s in gemm_shapes(rows, dims) if s[0] != "fwd"]


def per_layer(spans: list, floor: dict) -> dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0."""
    selfs = self_times(spans)
    root = []
    for s in spans:
        root.append(len(root) if s[3] < 0 else root[s[3]])
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    units = [i for name in UNIT_SPANS for i in by_name[name]]
    steps = [i for name in STEP_SPANS for i in by_name[name]]
    unit_ops = {spans[i][4] for i in units}
    n_units = len(units)

    def in_units(name):
        return [i for i in by_name[name] if spans[i][4] in unit_ops]

    def per_unit(values):
        return sum(values) / n_units if n_units else 0.0

    def ms_per_step(name, own=False):
        idx = in_units(name)
        return per_unit([(selfs[i] if own else dur(i)) for i in idx]) * 1e3

    def per_command(name, value=dur):
        totals: dict[int, float] = defaultdict(float)
        for i in by_name[name]:
            totals[root[i]] += value(i)
        return median(list(totals.values())) if totals else 0.0

    def per_call(name, value=dur):
        idx = by_name[name]
        return median([value(i) for i in idx]) if idx else 0.0

    def info(i):
        return spans[i][5]

    out: dict[str, float] = {}
    out["mnist.load_data_dir.s"] = per_command("mnist.load_data_dir")
    out["mnist.load_dataset.s"] = per_command("mnist.load_dataset")
    out["mnist.load_dataset.bytes"] = per_command("mnist.load_dataset", info)
    out["mnist.batches.ms_per_step"] = (
        sum(dur(i) for i in by_name["mnist.batches"]) / len(steps) * 1e3
        if steps else 0.0)

    dense = in_units("nn.dense_forward")
    dense_s = sum(dur(i) for i in dense)
    out["nn.dense_forward.calls"] = per_unit([1] * len(dense))
    out["nn.dense_forward.ms_per_step"] = ms_per_step("nn.dense_forward")
    out["nn.dense_forward.gflops"] = (
        sum(gemm_flops(("fwd",) + info(i)) for i in dense) / dense_s / 1e9
        if dense_s else 0.0)
    floored = [i for i in dense if ("fwd",) + info(i) in floor]
    floor_s = sum(floor[("fwd",) + info(i)] for i in floored) / 1e3
    out["nn.dense_forward.floor_ratio"] = (
        sum(dur(i) for i in floored) / floor_s if floor_s else 0.0)

    out["nn.model_forward.train.ms_per_step"] = ms_per_step(
        "nn.model_forward.train")
    out["nn.model_forward.train.self_ms_per_step"] = ms_per_step(
        "nn.model_forward.train", own=True)
    back = in_units("nn.model_backward")
    back_s = sum(dur(i) for i in back)
    out["nn.model_backward.ms_per_step"] = per_unit(
        [dur(i) for i in back]) * 1e3
    out["nn.model_backward.gflops"] = (
        sum(gemm_flops(s) for i in back for s in _backward_shapes(info(i)))
        / back_s / 1e9 if back_s else 0.0)

    evals = by_name["nn.model_forward.eval"]
    if by_name["infer.request"]:
        evals = in_units("nn.model_forward.eval")
    out["nn.model_forward.eval.ms_per_request"] = (
        sum(dur(i) for i in evals) / len(evals) * 1e3 if evals else 0.0)

    masks = in_units("nn.dropout_mask")
    out["nn.dropout_mask.calls"] = per_unit([1] * len(masks))
    out["nn.dropout_mask.elements"] = per_unit([info(i) for i in masks])
    out["nn.dropout_mask.ms_per_step"] = ms_per_step("nn.dropout_mask")

    for name in PER_STEP:
        out[f"{name}.ms_per_step"] = ms_per_step(name)
        if name != "family.copy_up":
            out[f"{name}.bytes"] = per_unit([info(i) for i in in_units(name)])

    for name in STEP_SPANS:
        idx = by_name[name]
        out[f"{name}.self_ms"] = (
            sum(selfs[i] for i in idx) / len(idx) * 1e3 if idx else 0.0)
    out["train.evaluate.s"] = per_command("train.evaluate")
    out["train.step_floor_ratio"] = _step_floor_ratio(
        spans, steps, by_name, floor)

    saves = by_name["checkpoint.save_checkpoint"]
    out["checkpoint.save_checkpoint.calls"] = per_command(
        "checkpoint.save_checkpoint", lambda i: 1)
    out["checkpoint.save_checkpoint.ms"] = per_call(
        "checkpoint.save_checkpoint") * 1e3
    out["checkpoint.save_checkpoint.bytes"] = (
        median([info(i) for i in saves]) if saves else 0.0)
    loads = by_name["checkpoint.load_checkpoint"]
    out["checkpoint.load_checkpoint.ms"] = per_call(
        "checkpoint.load_checkpoint") * 1e3
    out["checkpoint.load_checkpoint.bytes"] = (
        median([info(i) for i in loads]) if loads else 0.0)
    mains = by_name["cli.main"]
    out["cli.main.self_s"] = (median([selfs[i] for i in mains]) if mains
                              else 0.0)

    for shape, ms in sorted(floor.items()):
        out[f"gemm_floor.{shape_name(shape)}.ms"] = ms
    out["trace.spans_per_step"] = per_unit(
        [1 for s in spans if s[4] in unit_ops])
    return out


def _step_floor_ratio(spans, steps, by_name, floor) -> float:
    """Median step time over the summed GEMM floor of one full step."""
    if not steps:
        return 0.0
    gemms: dict[int, list] = defaultdict(list)
    for name, shapes_of in (("nn.model_forward.train", _forward_shapes),
                            ("nn.model_backward", _backward_shapes)):
        for i in by_name[name]:
            gemms[spans[i][4]].extend(shapes_of(spans[i][5]))
    for i in steps:
        shapes = gemms[spans[i][4]]
        if shapes and all(s in floor for s in shapes):
            step_floor_s = sum(floor[s] for s in shapes) / 1e3
            return median([spans[j][2] - spans[j][1] for j in steps]) \
                / step_floor_s
    return 0.0
