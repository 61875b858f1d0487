"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py SRC CONFIG {setup,run,trace}

`setup` imports chainposet and loads the config; `run` also runs the
analysis through `load_config` -> `run_full` -> `render_json`; `trace` does
the same with every layer boundary wrapped.  The last stdout line is one
JSON object with the measurements, the report projection for `run` and
`trace`, and the per-layer values and spans for `trace`.
"""

import json
import resource
import sys
import time


def main(src: str, config_path: str, mode: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from chainposet import chaingraph, cli, config, lyapunov, systems

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(
            {"config": config, "cli": cli, "chaingraph": chaingraph,
             "lyapunov": lyapunov, "systems": systems}
        )
    cfg = config.load_config(config_path)
    out = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        return out

    w0, c0 = time.perf_counter(), time.process_time()
    artifacts = cli.run_full(cfg, seedless=True)
    out["analyze_s"] = time.perf_counter() - w0
    out["analyze_cpu_s"] = time.process_time() - c0
    text = cli.render_json(artifacts.report)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from gate import project

    out["projection"] = project(json.loads(text))
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
