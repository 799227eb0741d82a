"""The traced run (`--trace 1`): per-layer metrics of one workload.

Spans are taken in the benchmark's own code around public calls: the
`obsbench-tracer` tool (obsbench/tracer) replays the workload in-process
and times calls into each layer; the served workloads add the server's
own `x-stage-us` / `stage_us` breakdowns and `/metrics`. Only this run
links the observatory crates; the timed runs never build the tracer.

Every metric in LAYER_METRICS is printed for every workload. A layer the
workload does not exercise (the store on embed_serve, the job stages on
paper_grid) reads 0. Times are totals over the traced pass in ms, except
the serve.* and jobs.* stages, which are means per request or per job.
"""

import json
import os
import subprocess

import common
import harness
import workloads as w

LAYER_METRICS = [
    ("table.parse_ms", "ms"),
    ("models.build_ms", "ms"),
    ("models.serialize_ms", "ms"),
    ("models.tokens", "count"),
    ("models.encode_table_ms", "ms"),
    ("linalg.attention_ms", "ms"),
    ("linalg.linear_ms", "ms"),
    ("linalg.linear_gelu_ms", "ms"),
    ("linalg.matmul_ms", "ms"),
    ("transformer.other_ms", "ms"),
    ("runtime.encode_batch_ms", "ms"),
    ("runtime.encodes", "count"),
    ("runtime.hit_ratio", "ratio"),
    ("core.bypass_encode_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.wal_mb", "MB"),
    ("store.save_ms", "ms"),
    ("store.saves", "count"),
    ("store.load_ms", "ms"),
    ("store.tier2_hit_ratio", "ratio"),
    ("store.close_ms", "ms"),
    ("core.P1.self_ms", "ms"),
    ("core.P2.self_ms", "ms"),
    ("core.P4.self_ms", "ms"),
    ("core.P5.self_ms", "ms"),
    ("core.P7.self_ms", "ms"),
    ("core.P8.self_ms", "ms"),
    ("fd.discover_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.store_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.wire_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("jobs.ingest_ms", "ms"),
    ("jobs.queued_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.persist_ms", "ms"),
    ("jobs.polls", "count"),
    ("unattributed_pct", "%"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
]

# Requests of the embed_serve run replayed in-process by the tracer.
EMBED_TRACE_COLD = 400
EMBED_TRACE_WARM = 800
MS = 1e-6  # ns -> ms


def tracer(root, *args):
    exe = harness.binary(root, "obsbench-tracer")
    r = subprocess.run([exe, *args], cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if r.returncode != 0:
        raise harness.BenchError(f"obsbench-tracer {args[0]} failed: {r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if num is not None and den else 0.0


def encode_split(t, out):
    """models.* / linalg.* / transformer.other from the tracer's totals."""
    kernels = {k: t.get(f"linalg.{k}", 0.0) for k in ("attention", "linear", "linear_gelu", "matmul")}
    for k, ns in kernels.items():
        out[f"linalg.{k}_ms"] = ns * MS
    enc = t.get("models.encode_table", 0.0)
    ser = t.get("models.serialize", 0.0)
    out["models.encode_table_ms"] = enc * MS
    out["models.serialize_ms"] = ser * MS
    out["models.tokens"] = t.get("models.tokens", 0.0)
    out["transformer.other_ms"] = max(0.0, enc - sum(kernels.values()) - ser) * MS
    out["models.build_ms"] = t.get("models.build", 0.0) * MS


def store_split(t, out):
    out["store.open_ms"] = t.get("store.open", 0.0) * MS
    out["store.wal_mb"] = ratio(t.get("store.wal_bytes", 0.0), t.get("store.opens", 0.0)) / 1e6
    out["store.save_ms"] = t.get("store.save", 0.0) * MS
    out["store.saves"] = t.get("store.saves", 0.0)
    out["store.load_ms"] = t.get("store.load", 0.0) * MS
    out["store.close_ms"] = t.get("store.close", 0.0) * MS
    hits, misses = t.get("store.hits", 0.0), t.get("store.misses", 0.0)
    out["store.tier2_hit_ratio"] = ratio(hits, hits + misses)


def core_split(t, out):
    for p in ("P1", "P2", "P4", "P5", "P7", "P8"):
        out[f"core.{p}.self_ms"] = t.get(f"core.{p}.self", 0.0) * MS
    out["core.bypass_encode_ms"] = t.get("core.bypass_encode", 0.0) * MS
    out["runtime.encode_batch_ms"] = t.get("runtime.encode", 0.0) * MS
    out["runtime.encodes"] = t.get("runtime.encodes", 0.0)
    out["runtime.hit_ratio"] = ratio(t.get("runtime.hits", 0.0), t.get("runtime.lookups", 0.0))
    out["fd.discover_ms"] = t.get("fd.discover", 0.0) * MS


def grid_spec(root, name, lines):
    path = os.path.join(w.fresh_dir(root, "trace", name), "spec.txt")
    with open(path, "w") as f:
        f.write("".join(" ".join(map(str, line)) + "\n" for line in lines))
    return path


def trace_paper_grid(root, exe, seed):
    res = w.Result("paper_grid")
    cells = common.grid_cells()
    spec = grid_spec(root, "paper_grid", [(p, m, w.GRID_PERMUTATIONS, *common.fixture_paths(ds))
                                          for p, m, ds in cells])
    base = os.path.join(w.WORK, "trace", "paper_grid")
    t = tracer(root, "grid", spec, os.path.join(base, "store"), "per-cell", "traced",
               os.path.join(base, "export"))
    u = tracer(root, "grid", spec, os.path.join(base, "store_untraced"), "per-cell", "untraced")
    # Check the traced pass's outputs like the CLI's: the wrappers must not
    # change a single measure.
    bundles = {ph: {w.cell_key(p, m): w.read_bundle(os.path.join(root, base, "export", ph, f"{p}_{m}"))
                    for p, m, _ in cells} for ph in ("cold", "warm")}
    for ph in ("cold", "warm"):
        phase = w.Phase(ph)
        for _ in cells:
            phase.record(True, 0.0)
        phase.wall_s = t[f"{ph}_wall"] / 1e9
        res.phases.append(phase)
    w.check_grid(res, bundles, w.load_reference(root, f"paper_grid_p{w.GRID_PERMUTATIONS}"))
    out = {}
    encode_split(t, out)
    store_split(t, out)
    core_split(t, out)
    out["table.parse_ms"] = t.get("table.parse", 0.0) * MS
    wall = t["wall"] - t.get("check", 0.0)
    attributed = sum(t.get(k, 0.0) for k in ("table.parse", "models.build", "store.open",
                                                 "store.close", "core.evaluate"))
    out["unattributed_pct"] = common.percent(wall - attributed, wall)
    overhead(out, wall / 1e9, (u["wall"] - u.get("check", 0.0)) / 1e9)
    return res, out


def overhead(out, traced_s, untraced_s):
    out["trace.traced_wall_s"] = traced_s
    out["trace.untraced_wall_s"] = untraced_s
    out["trace.overhead_pct"] = common.percent(traced_s - untraced_s, untraced_s)


def parse_stages(text):
    return {k: float(v) for k, v in (kv.split("=") for kv in text.split(";") if kv)}


def serve_runtime(metrics, out):
    out["runtime.encodes"] = w.prom(metrics, "observatory_encodes_total")
    hits = w.prom(metrics, 'observatory_cache_lookups_total{result="hit"}')
    lookups = w.prom(metrics, "observatory_cache_lookups_total")
    out["runtime.hit_ratio"] = ratio(hits, lookups)


def serve_layers(root, res, out):
    """serve.* and runtime.* metrics of a traced embed_serve run `res`:
    the x-stage-us of every response, /metrics, and an in-process replay
    of a prefix of the same requests through the API parser and renderer."""
    stages = res.trace["stages"]
    metrics = res.trace["metrics"]
    cold_plan, warm_plan = res.trace["plan"]
    n = len(stages)
    sums = {}
    wire = 0.0
    for _, lat, header in stages:
        st = parse_stages(header)
        for k, v in st.items():
            sums[k] = sums.get(k, 0.0) + v
        wire += lat * 1e6 - sum(st.values())
    for k in ("queue", "batch_wait", "encode", "store", "write"):
        out[f"serve.{k}_ms"] = ratio(sums.get(k, 0.0), n) / 1e3
    out["serve.wire_ms"] = ratio(wire, n) / 1e3
    out["serve.batch_mean"] = ratio(w.prom(metrics, "observatory_server_batched_requests_total"),
                                    w.prom(metrics, "observatory_server_batches_total"))
    sample = cold_plan[:EMBED_TRACE_COLD] + warm_plan[:EMBED_TRACE_WARM]
    bodies = os.path.join(w.fresh_dir(root, "trace", "embed_serve"), "bodies.jsonl")
    with open(bodies, "wb") as f:
        f.write(b"".join(common.embed_body(i) + b"\n" for i in sample))
    t = tracer(root, "embed", bodies)
    out["serve.parse_us"] = ratio(t.get("serve.parse", 0.0), t["serve.requests"]) / 1e3
    out["serve.render_us"] = ratio(t.get("serve.render", 0.0), t["serve.requests"]) / 1e3
    return t


def trace_embed_serve(root, exe, seed):
    untraced = w.embed_serve(root, exe, seed, trace=False)
    res = w.embed_serve(root, exe, seed, trace=True)
    res.problems += untraced.problems
    out = {}
    t = serve_layers(root, res, out)
    serve_runtime(res.trace["metrics"], out)
    encode_split(t, out)
    out["runtime.encode_batch_ms"] = t.get("runtime.encode_batch", 0.0) * MS
    busy = sum(lat for _, lat, _ in res.trace["stages"])
    conn_time = w.CONNECTIONS * sum(p.wall_s for p in res.phases)
    out["unattributed_pct"] = common.percent(conn_time - busy, conn_time)
    overhead(out, sum(p.wall_s for p in res.phases), sum(p.wall_s for p in untraced.phases))
    return res, out


def trace_analyze_jobs(root, exe, seed):
    untraced = w.analyze_jobs(root, exe, seed, trace=False)
    res = w.analyze_jobs(root, exe, seed, trace=True)
    res.problems += untraced.problems
    timings = res.trace["timings"]
    metrics = res.trace["metrics"]
    plan = res.trace["plan"]
    out = {}
    n = len(timings)
    sums = {}
    rest = 0.0
    for _, lat, stage_us in timings:
        st = parse_stages(stage_us)
        for k, v in st.items():
            sums[k] = sums.get(k, 0.0) + v
        rest += lat * 1e6 - sum(st.values())
    out["jobs.queued_ms"] = ratio(sums.get("queue", 0.0), n) / 1e3
    out["jobs.run_ms"] = ratio(sums.get("encode", 0.0), n) / 1e3
    out["jobs.persist_ms"] = ratio(sums.get("write", 0.0), n) / 1e3
    out["jobs.polls"] = float(res.trace["polls"])
    out["jobs.ingest_ms"] = res.trace["ingest_s"] * 1e3
    total = sum(lat for _, lat, _ in timings) * 1e6
    # Poll slack and HTTP: the part of a job's observed latency that no
    # server stage accounts for.
    out["unattributed_pct"] = common.percent(rest, total)
    # In-process replay of the same jobs on one engine and store, with the
    # model rebuilt per job as the scheduler does.
    spec = grid_spec(root, "analyze_jobs", [(p, m, w.JOB_PERMUTATIONS, path) for path, p, m in plan])
    t = tracer(root, "grid", spec, os.path.join(w.WORK, "trace", "analyze_jobs", "store"),
               "shared", "traced")
    encode_split(t, out)
    store_split(t, out)
    core_split(t, out)
    serve_runtime(metrics, out)
    out["table.parse_ms"] = t.get("table.parse", 0.0) * MS
    overhead(out, sum(p.wall_s for p in res.phases), sum(p.wall_s for p in untraced.phases))
    # The serve layers (queue, batch wait, parse, render, wire) are measured
    # here too, on a traced embed_serve pass: embed_serve is not in the
    # bound set, and every layer must be measured on a workload that is.
    embed = w.embed_serve(root, exe, seed, trace=True)
    serve_layers(root, embed, out)
    res.problems += embed.problems
    for p in embed.phases:
        p.name = f"embed_serve {p.name}"
        res.phases.append(p)
    return res, out


def run(root, exe, workload, seed):
    harness.cargo_build(root, manifest="obsbench/tracer/Cargo.toml")
    res, layers = {"paper_grid": trace_paper_grid, "embed_serve": trace_embed_serve,
                   "analyze_jobs": trace_analyze_jobs}[workload](root, exe, seed)
    res.metrics = {}
    for name, unit in LAYER_METRICS:
        res.metric(name, float(layers.get(name) or 0.0), unit)
    return res
