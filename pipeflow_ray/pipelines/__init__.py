__all__ = ["flagship_pipeline"]


def __getattr__(name: str):
    # PEP 562: loaded on first use, so importing a sibling module (the
    # streaming runtime in an actor process) does not import ``ray.data``
    if name == "flagship_pipeline":
        from pipeflow_ray.pipelines.flagship import flagship_pipeline

        return flagship_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
