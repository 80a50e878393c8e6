"""Which calls into ``bisource`` the traced run wraps, and the per-layer
metrics derived from the spans.

Layers are the package's modules.  ``tensor`` spans are the op functions and
``backward``; they are leaves.  For every other layer, a span's time counts
the tensor ops it issues itself and excludes nested spans of other layers (and
nested spans of its own layer, which are counted on their own), so the
non-tensor layers partition the request time while ``tensor`` cuts across
them.
"""

from __future__ import annotations

import inspect

import numpy as np

from bisource import ada, blocks, data, io, metrics, model
from bisource import tensor as T

from .tracing import Tracer, self_times

LAYERS = ("tensor", "ada", "blocks", "model", "metrics", "data", "io")
SHARED_LAYERS = ("tensor", "ada", "blocks", "model", "metrics")
TENSOR = "tensor"
REQUEST_SPAN = "bench.request"
NOT_OPS = ("tensor", "backward")


def tensor_ops() -> list[str]:
    """Public op functions of ``bisource.tensor`` (constructors excluded)."""
    return [
        n for n in T.__all__
        if n not in NOT_OPS and inspect.isfunction(getattr(T, n))
    ]


def instrument(tracer: Tracer) -> None:
    """Register every public call the traced run records."""
    counts = tracer.counts

    def count_output(args, out) -> None:
        counts["tensor.out_elements"] += out.data.size
        counts["tensor.out_bytes"] += out.data.nbytes

    flops_cache: dict[tuple, float] = {}

    def count_flops(args, out) -> None:
        unit, pair, slot = args[0], args[1], args[2]
        cfg = unit.cfg
        key = (pair.length, slot.shape[0], cfg.proto_dim, cfg.feat_dim, unit.k,
               cfg.ffn_expansion, unit.comp is not None)
        if key not in flops_cache:
            flops_cache[key] = ada.flops_of(
                "ada", L=key[0], L_slot=key[1], D=key[2], C=key[3], K=key[4],
                expansion=key[5], comp=key[6],
            )["total"]
        counts["ada.flops"] += flops_cache[key]

    def span(owner, attr: str, layer: str, after=None) -> None:
        prefix = owner.__name__.split(".")[-1] if inspect.ismodule(owner) else (
            f"{owner.__module__.split('.')[-1]}.{owner.__name__}"
        )
        name = f"{prefix}.{attr}"
        tracer.add_target(owner, attr, lambda fn: tracer.wrap(fn, name, layer, after))

    for op in tensor_ops():
        span(T, op, TENSOR, count_output)
    span(T, "backward", TENSOR)
    tracer.add_target(T.Tape, "record", lambda fn: tracer.counting(fn, "tensor.tape_records"))

    span(ada.ProtoAttention, "forward", "ada", count_flops)
    for attr in ("comp_embed", "aggregate", "diffuse"):
        span(ada.ProtoAttention, attr, "ada")

    span(blocks.ConsistencyBlock, "forward", "blocks")
    span(blocks.DifferenceBlock, "forward", "blocks")
    span(blocks.DifferenceBlock, "build_slot", "blocks")

    for attr in ("predict", "forward", "encode", "decode", "loss", "sample_loss"):
        span(model.BiSourceModel, attr, "model")
    for cls in (model.EncoderStage, model.SelfAttention, model.TaskHead):
        span(cls, "__call__", "model")
    span(model.AdamW, "step", "model")
    span(model.AdamW, "zero_grad", "model")
    span(model, "train_step", "model")

    for fn in ("confusion_binary", "binary_metrics_from_counts", "grid_count_error", "rmse_counts"):
        span(metrics, fn, "metrics")

    span(data, "generate_dataset", "data")
    span(data, "load_dataset", "data")
    for fn in ("save_cpt1", "load_cpt1", "write_pgm", "read_pgm", "save_json",
               "load_json", "save_tensor_dir", "load_tensor_dir"):
        span(io, fn, "io")


IO_LOADS = ("io.load_cpt1", "io.read_pgm", "io.load_json", "io.load_tensor_dir")


def per_layer_metrics(tracer: Tracer, pairs: int, steps: int, setups: int,
                      peak_live_elements: int) -> dict[str, float]:
    """Per-layer figures for the requests traced (request id >= 0).

    ``pairs`` is the number of image pairs those requests consumed and
    ``steps`` the number of optimizer steps among them (0 for inference).
    Set-up figures (``data``, ``io``) are per set-up.
    """
    a = tracer.arrays()
    names, layers = a["names"], a["layers"]
    nid, parent, req = a["name"], a["parent"], a["request"]
    dur = a["end_ns"] - a["start_ns"]
    span_layer = layers[nid]
    strict = self_times(a["start_ns"], a["end_ns"], parent)
    exclusive = self_times(a["start_ns"], a["end_ns"], parent, span_layer != TENSOR)
    timed = req >= 0
    setup = ~timed

    def ms(ns) -> float:
        return float(ns) / 1e6

    ids = {str(n): i for i, n in enumerate(names)}

    def by_name(values, name: str, mask) -> float:
        if name not in ids:
            return 0.0
        return float(values[mask & (nid == ids[name])].sum())

    def calls(name: str) -> int:
        if name not in ids:
            return 0
        return int((timed & (nid == ids[name])).sum())

    def layer_sum(values, layer: str, mask) -> float:
        return float(values[mask & (span_layer == layer)].sum())

    per_pair = 1.0 / max(pairs, 1)
    per_step = 1.0 / steps if steps else 0.0
    request_ns = by_name(dur, REQUEST_SPAN, timed)
    is_op = np.isin(nid, [ids[f"tensor.{op}"] for op in tensor_ops() if f"tensor.{op}" in ids])

    out: dict[str, float] = {}
    out["tensor.ops_per_pair"] = float((timed & is_op).sum()) * per_pair
    out["tensor.op_self_ms_per_pair"] = ms(strict[timed & is_op].sum()) * per_pair
    out["tensor.out_elements_per_pair"] = tracer.counts["tensor.out_elements"] * per_pair
    out["tensor.out_bytes_per_pair"] = tracer.counts["tensor.out_bytes"] * per_pair
    out["tensor.peak_live_elements"] = float(peak_live_elements)
    out["tensor.backward_ms_per_step"] = ms(by_name(dur, "tensor.backward", timed)) * per_step
    out["tensor.tape_records_per_step"] = tracer.counts["tensor.tape_records"] * per_step

    out["ada.calls_per_pair"] = calls("ada.ProtoAttention.forward") * per_pair
    out["ada.self_ms_per_pair"] = ms(layer_sum(exclusive, "ada", timed)) * per_pair
    for stage in ("comp_embed", "aggregate", "diffuse"):
        out[f"ada.{stage}_ms_per_pair"] = ms(by_name(dur, f"ada.ProtoAttention.{stage}", timed)) * per_pair
    out["ada.flops_per_pair"] = tracer.counts["ada.flops"] * per_pair

    out["blocks.ceb_self_ms_per_pair"] = ms(by_name(exclusive, "blocks.ConsistencyBlock.forward", timed)) * per_pair
    out["blocks.dab_self_ms_per_pair"] = ms(
        by_name(exclusive, "blocks.DifferenceBlock.forward", timed)
        + by_name(exclusive, "blocks.DifferenceBlock.build_slot", timed)
    ) * per_pair

    out["model.self_attn_ms_per_pair"] = ms(by_name(dur, "model.SelfAttention.__call__", timed)) * per_pair
    out["model.encoder_self_ms_per_pair"] = ms(
        by_name(exclusive, "model.BiSourceModel.encode", timed)
        + by_name(exclusive, "model.EncoderStage.__call__", timed)
    ) * per_pair
    out["model.head_ms_per_pair"] = ms(by_name(dur, "model.TaskHead.__call__", timed)) * per_pair
    out["model.forward_ms_per_pair"] = ms(by_name(dur, "model.BiSourceModel.forward", timed)) * per_pair
    out["model.loss_ms_per_step"] = ms(by_name(dur, "model.BiSourceModel.loss", timed)) * per_step
    out["model.adamw_ms_per_step"] = ms(
        by_name(dur, "model.AdamW.step", timed) + by_name(dur, "model.AdamW.zero_grad", timed)
    ) * per_step

    out["metrics.self_ms_per_pair"] = ms(layer_sum(exclusive, "metrics", timed)) * per_pair

    out["data.generate_s"] = by_name(dur, "data.generate_dataset", setup) / 1e9 / setups
    io_load = sum(by_name(exclusive, n, setup) for n in IO_LOADS)
    out["io.load_s"] = io_load / 1e9 / setups

    for layer in SHARED_LAYERS:
        values = strict if layer == TENSOR else exclusive
        share = layer_sum(values, layer, timed) / request_ns if request_ns else 0.0
        out[f"{layer}.share_pct"] = 100.0 * share
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.errors[layer])
    out["trace.spans_per_pair"] = float(timed.sum()) * per_pair
    return out
