"""pipeflow_ray — a from-scratch Ray-Data-native data-processing / streaming engine.

Re-expresses the query and data-processing capabilities of the reference
PipeFlow library (.NET fluent ETL pipelines, see /root/reference) as idiomatic
Ray Data: ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
Arrow batches, actor pools for stateful stages, groupby/sort shuffles for the
wide steps, and a structured-streaming/CEP layer (windows, watermarks,
stateful joins, exactly-once sinks) on top.

Public API surface (mirrors the reference's fluent shape,
``PipeFlow/PipeFlow.cs:21`` ``PipeFlow.From`` → operators → sinks):

    from pipeflow_ray import Pipeline
    (Pipeline.from_parquet(path)
        .filter(pc.field("role") == "user")
        .add_column("n_chars", ...)
        .order_by("ts")
        .to_parquet(out))
"""

from pipeflow_ray.schema import TRANSCRIPT_SCHEMA

__version__ = "0.1.0"

__all__ = ["Pipeline", "PipelineResult", "TRANSCRIPT_SCHEMA", "__version__"]


def __getattr__(name: str):
    # PEP 562: ``Pipeline`` pulls in ``ray.data`` (≈0.7 s of imports), which
    # every streaming actor process would otherwise pay on loading this package
    if name in ("Pipeline", "PipelineResult"):
        from pipeflow_ray import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
