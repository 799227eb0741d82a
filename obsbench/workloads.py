"""The three workloads: paper_grid, embed_serve and analyze_jobs.

Each one sets up (several times, reporting the median), runs a cold and a
warm phase of a fixed number of operations, and checks every output
against the other phase and against the committed reference.
"""

import gc
import json
import os
import re
import shutil
import threading
import time

import common
from harness import BenchError, Http, Server, run_child

WORK = ".bench_work"
REFERENCE = "obsbench/reference"

# Sizes. Fixed operation counts (not durations) keep the tail percentile
# and its sample count identical on every run and on both commits.
# Set-ups per run (the median is reported): each paper_grid set-up is 9
# processes, each embed_serve one builds 9 models, an analyze_jobs one is
# a few milliseconds of spawn and ingest.
GRID_SETUP_REPS = 9
EMBED_SETUP_REPS = 9
JOB_SETUP_REPS = 31
GRID_PERMUTATIONS = 4
EMBED_COLD = 4800
EMBED_WORKING_SET = 256
EMBED_WARM = 4000
CONNECTIONS = 2
JOB_CONNECTIONS = 1
# One encode worker. On a 2-vCPU VM the default (--jobs = cores) is 2-3x
# slower than one worker and several times noisier (see README.md).
JOBS_ARGS = ["--jobs", "1"]
JOB_PERMUTATIONS = 4
JOB_POLL_S = 0.003
JOB_SEED = 42
ONE_ROW_CSV = "obsbench/fixtures/one_row.csv"


class Phase:
    """Attempted / succeeded / failed accounting and latencies of one phase."""

    def __init__(self, name):
        self.name = name
        self.latencies = []
        self.attempted = self.succeeded = self.failed = 0
        self.failures = []
        self.wall_s = 0.0
        self._lock = threading.Lock()

    def record(self, ok, latency_s, why=None):
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency_s)
            if ok:
                self.succeeded += 1
            else:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(why)

    def summary(self):
        return {"attempted": self.attempted, "succeeded": self.succeeded, "failed": self.failed,
                "wall_s": round(self.wall_s, 4)}


class Result:
    def __init__(self, workload):
        self.workload = workload
        self.phases = []
        self.problems = []
        self.metrics = {}
        self.notes = []
        # Raw per-operation data a traced run derives its layer metrics from.
        self.trace = {}

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def latency_metrics(self, phase, prefix):
        """The p50 is a metric; the tail is printed with its sample count
        but is too unsteady on a 2-vCPU VM to carry a bound (README.md)."""
        ms = [x * 1e3 for x in phase.latencies]
        value, pct, n = common.tail(ms)
        self.metric(f"{prefix}_p50_ms", common.median(ms), "ms")
        self.notes.append(f"{prefix} tail: p{pct:g} = {value:.3f} ms of n={n} "
                          f"({sum(1 for x in ms if x > value)} beyond)")

    def rates(self, cold, warm, unit_desc):
        self.metric("cold_per_s", cold.attempted / cold.wall_s, "1/s")
        self.metric("warm_per_s", warm.attempted / warm.wall_s, "1/s")
        self.notes.append(f"per_s counts {unit_desc}")


def fresh_dir(root, *parts):
    path = os.path.join(root, WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def load_reference(root, name):
    with open(os.path.join(root, REFERENCE, f"{name}.json")) as f:
        return json.load(f)


def run_phases(phases, worker_fn, plan_by_phase, connections=CONNECTIONS):
    """Run each phase's operations on CONNECTIONS closed-loop workers."""
    for phase in phases:
        plan = plan_by_phase[phase.name]
        cursor = iter(range(len(plan)))
        lock = threading.Lock()

        def loop():
            state = worker_fn.open()
            try:
                while True:
                    with lock:
                        k = next(cursor, None)
                    if k is None:
                        return
                    worker_fn(state, phase, plan[k])
            finally:
                worker_fn.close(state)

        threads = [threading.Thread(target=loop) for _ in range(connections)]
        # No collector pauses inside a timed phase.
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            phase.wall_s = time.perf_counter() - t0
            gc.enable()


# ------------------------------------------------------------------ paper_grid


def read_bundle(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as f:
            out[name] = f.read()
    return out


def cell_key(prop, model):
    return f"{prop}/{model}"


def characterize_args(exe, prop, model, dataset, perms, store=None, export=None):
    args = [exe, "characterize", "--property", prop, "--model", model,
            "--permutations", str(perms), "--seed", "42", *JOBS_ARGS]
    if store:
        args += ["--store-dir", store]
    if export:
        args += ["--export", export]
    for path in common.fixture_paths(dataset):
        args += ["--csv", path]
    return args


def grid_setup_once(root, exe):
    """One set-up: readying each of the 9 models on a one-row CSV with no
    store, spawn to exit, summed."""
    total = 0.0
    for model in common.MODELS:
        c = run_child([exe, "characterize", "--property", "P2", "--model", model,
                       "--permutations", "2", *JOBS_ARGS, "--csv", ONE_ROW_CSV], cwd=root)
        if c.code != 0:
            raise BenchError(f"set-up characterize --model {model} exited {c.code}: {c.stderr[-500:]}")
        total += c.wall_s
    return total


def paper_grid(root, exe, seed, trace=False):
    """45 `characterize` processes per phase on one store directory.

    The grid is fixed (the committed small-scale tables), so the seed only
    names the run; embed_serve and analyze_jobs draw their inputs from it."""
    perms = GRID_PERMUTATIONS
    res = Result("paper_grid")
    setups = [grid_setup_once(root, exe) for _ in range(GRID_SETUP_REPS)]
    res.metric("setup_s", common.median(setups), "s")
    work = fresh_dir(root, "paper_grid")
    store = os.path.join(WORK, "paper_grid", "store")
    cells = common.grid_cells()
    bundles = {"cold": {}, "warm": {}}
    peak_kb = 0
    for name in ("cold", "warm"):
        phase = Phase(name)
        t0 = time.perf_counter()
        for prop, model, ds in cells:
            export = os.path.join(WORK, "paper_grid", name, f"{prop}_{model}")
            c = run_child(characterize_args(exe, prop, model, ds, perms, store, export), cwd=root)
            peak_kb = max(peak_kb, c.maxrss_kb)
            ok = c.code == 0
            phase.record(ok, c.wall_s, None if ok else f"{prop}/{model} exit {c.code}: {c.stderr[-300:]}")
            if ok:
                bundles[name][cell_key(prop, model)] = read_bundle(os.path.join(root, export))
        phase.wall_s = time.perf_counter() - t0
        res.phases.append(phase)
    cold, warm = res.phases
    res.metric("peak_rss_mb", peak_kb / 1024.0, "MB")
    res.rates(cold, warm, f"cells (45 cells over {sum(common.FIXTURE_TABLES.values())} tables, "
              f"--permutations {perms})")
    res.latency_metrics(cold, "cold")
    res.latency_metrics(warm, "warm")
    wal = os.path.join(work, "store", "wal.log")
    if os.path.exists(wal):
        res.notes.append(f"store WAL after both phases: {os.path.getsize(wal) / 1e6:.1f} MB")
    check_grid(res, bundles, load_reference(root, f"paper_grid_p{perms}"))
    return res


def bundle_reference(bundle, p4):
    """Reference form of a bundle: full text for P4 (compared within a
    tolerance), a digest for everything else (compared bitwise)."""
    return {n: (t if p4 else "sha:" + common.digest(t.encode())) for n, t in bundle.items()}


def empty_cells(bundles):
    return sorted(k for k, b in bundles.items() if not any(n.endswith(".csv") for n in b))


def check_grid(res, bundles, reference):
    cold, warm = bundles["cold"], bundles["warm"]
    bits = 0
    for key in sorted(reference["cells"]):
        p4 = key.startswith("P4/")
        want = reference["cells"][key]
        for name, got in (("cold", cold), ("warm", warm)):
            if key not in got:
                res.problems.append(f"{name} {key}: no output")
                continue
            problems, n = compare_bundles_to_reference(got[key], want, p4)
            bits += n
            res.problems += [f"{name} {key}: {p}" for p in problems]
        if key in cold and key in warm:
            problems, n = common.compare_bundles(warm[key], cold[key], p4)
            bits += n
            res.problems += [f"warm vs cold {key}: {p}" for p in problems]
    for name, got in (("cold", cold), ("warm", warm)):
        if empty_cells(got) != reference["empty_cells"]:
            res.problems.append(f"{name} empty cells {empty_cells(got)} != {reference['empty_cells']}")
    res.notes.append(
        f"P4 numbers that differ in their last bits (within {common.P4_REL_TOL:g} relative): {bits}; "
        "cause: crates/core/src/props/fd.rs:73-86 averages group variances in HashMap order"
    )


def compare_bundles_to_reference(bundle, want, p4):
    if p4:
        return common.compare_bundles(bundle, want, True)
    got = bundle_reference(bundle, False)
    if sorted(got) != sorted(want):
        return [f"files {sorted(got)} != {sorted(want)}"], 0
    return [f"{n} differs from the reference" for n in sorted(want) if got[n] != want[n]], 0


# ------------------------------------------------------------------ embed_serve


def embed_warmup(port):
    """One request per model, so every model is built before timing."""
    http = Http(port)
    try:
        for model in common.MODELS:
            body = json.dumps({"model": model, "level": common.embed_level(model), "id": "warmup",
                               "table": {"name": "obsbench/warmup", "columns": [
                                   {"header": "city", "values": ["lund", "oslo"]},
                                   {"header": "pop", "values": [1, 2]}]}}).encode()
            status, _, data = http.request("POST", "/v1/embed", body)
            if status != 200:
                raise BenchError(f"warm-up embed for {model}: {status} {data[:200]!r}")
    finally:
        http.close()


def start_servers(root, exe, args, ready, reps):
    """Set up `reps` times (spawn, banner, `ready(server)`); report the
    median set-up time and keep the last server running."""
    times = []
    server = None
    for r in range(reps):
        extra = args(r) if callable(args) else args
        server = Server(exe, extra, root)
        t0 = time.perf_counter()
        try:
            ready(server, r)
        except Exception:
            server.stop()
            raise
        times.append(server.startup_s + time.perf_counter() - t0)
        if r < reps - 1:
            code = server.stop()
            if code != 0:
                raise BenchError(f"set-up server {r} exited {code}")
    return server, common.median(times)


class EmbedWorker:
    def __init__(self, port, bodies, reference, trace):
        self.port, self.bodies, self.reference, self.trace = port, bodies, reference, trace
        self.digests = {}
        self.stages = []

    def open(self):
        return Http(self.port)

    def close(self, http):
        http.close()

    def __call__(self, http, phase, i):
        body = self.bodies[i]
        t0 = time.perf_counter()
        try:
            status, hdrs, data = http.request("POST", "/v1/embed", body)
        except (OSError, ConnectionError, ValueError) as e:
            phase.record(False, time.perf_counter() - t0, f"t{i}: {e!r}")
            http.reset()
            return
        lat = time.perf_counter() - t0
        if status != 200:
            phase.record(False, lat, f"t{i}: HTTP {status}")
            return
        d = common.digest(data)
        why = None
        if d != self.reference.get(f"t{i}"):
            why = f"t{i}: body digest {d} != reference {self.reference.get(f't{i}')}"
        elif phase.name == "warm" and self.digests.get(i) != d:
            why = f"t{i}: warm body differs from cold"
        if phase.name == "cold":
            self.digests[i] = d
        if why:
            phase.record(False, lat, why)
            return
        phase.record(True, lat)
        if self.trace:
            self.stages.append((phase.name, lat, hdrs.get("x-stage-us", "")))


def metrics_text(port):
    http = Http(port)
    try:
        status, _, data = http.request("GET", "/metrics")
    finally:
        http.close()
    if status != 200:
        raise BenchError(f"/metrics: HTTP {status}")
    return data.decode()


def prom(text, name):
    """Sum of every sample of one Prometheus family (labels ignored), or
    None when `/metrics` has no such family."""
    total, seen = 0.0, False
    for line in text.splitlines():
        if line.startswith(name) and line[len(name)] in " {":
            total += float(line.rsplit(" ", 1)[1])
            seen = True
    return total if seen else None


def drained_cleanly(res, server, code):
    """The server exits 0 and its drain report, when it prints one in the
    known format, shows nothing shed, expired or panicked."""
    if code != 0:
        res.problems.append(f"server exited {code}: {server.errors()[-500:]}")
    m = re.search(r"drained: (\d+) requests \((\d+) shed, (\d+) expired, (\d+) panics\)", server.output())
    if m is None:
        res.notes.append("no drain report in the known format; shed/expired/panics not cross-checked")
    elif any(int(x) for x in m.groups()[1:]):
        res.problems.append(f"server drain report: {m.group(0)}")


def embed_serve(root, exe, seed, trace=False):
    res = Result("embed_serve")
    server, setup = start_servers(root, exe, JOBS_ARGS, lambda s, r: embed_warmup(s.port), EMBED_SETUP_REPS)
    res.metric("setup_s", setup, "s")
    cold_plan, warm_plan = common.embed_plan(seed, EMBED_COLD, EMBED_WORKING_SET, EMBED_WARM)
    # Bodies are built before timing, so the client does no JSON work in a phase.
    bodies = {i: common.embed_body(i) for i in cold_plan}
    worker = EmbedWorker(server.port, bodies, load_reference(root, "embed_serve"), trace)
    cold, warm = Phase("cold"), Phase("warm")
    try:
        run_phases([cold, warm], worker, {"cold": cold_plan, "warm": warm_plan})
        res.metric("peak_rss_mb", server.vm_hwm_mb(), "MB")
        metrics = metrics_text(server.port)
    finally:
        code = server.stop()
    res.phases = [cold, warm]
    drained_cleanly(res, server, code)
    # Cold must encode every request and warm none (the 9 warm-up requests
    # of set-up encode too). Hits are not compared: two connections asking
    # for one table in the same batch share a single cache lookup.
    encodes = prom(metrics, "observatory_encodes_total")
    if encodes is None:
        res.notes.append("/metrics lacks observatory_encodes_total; cold/warm split not cross-checked")
    elif encodes != EMBED_COLD + len(common.MODELS):
        res.problems.append(f"expected {EMBED_COLD + len(common.MODELS)} encodes (every cold request "
                            f"and no warm one), /metrics shows {encodes:.0f}")
    res.rates(cold, warm, f"/v1/embed requests (tables of 2-4 columns x 3-6 rows; "
              f"cold {EMBED_COLD} distinct, warm {EMBED_WARM} over a {EMBED_WORKING_SET}-table set)")
    res.latency_metrics(cold, "cold")
    res.latency_metrics(warm, "warm")
    if trace:
        res.trace["metrics"] = metrics
        res.trace["stages"] = worker.stages
        res.trace["plan"] = (cold_plan, warm_plan)
    return res


# ------------------------------------------------------------------ analyze_jobs


def ingest_fixtures(port):
    """POST every fixture table; returns {path: table id}."""
    http = Http(port)
    ids = {}
    try:
        for ds in common.FIXTURE_TABLES:
            for path in common.fixture_paths(ds):
                with open(path, "rb") as f:
                    body = f.read()
                status, _, data = http.request(
                    "POST", "/v1/tables", body,
                    [("Content-Type", "text/csv"), ("x-table-name", path)])
                if status not in (200, 201):
                    raise BenchError(f"ingest {path}: HTTP {status} {data[:200]!r}")
                ids[path] = json.loads(data)["id"]
    finally:
        http.close()
    return ids


def job_result_body(record):
    """The `result` member of a job record, verbatim (job id and timings dropped)."""
    text = record.decode()
    k = text.index(',"result":')
    return text[k + len(',"result":'):-1]


def job_key(path, prop, model):
    return f"{path}|{prop}|{model}"


class JobWorker:
    def __init__(self, port, ids, reference, trace):
        self.port, self.ids, self.reference, self.trace = port, ids, reference, trace
        self.results = {}
        self.polls = 0
        self.timings = []
        self.p4_bits = 0
        self._lock = threading.Lock()

    def open(self):
        return Http(self.port)

    def close(self, http):
        http.close()

    def __call__(self, http, phase, spec):
        t0 = time.perf_counter()
        try:
            self.run_job(http, phase, spec, t0)
        except (OSError, ConnectionError, ValueError, KeyError) as e:
            phase.record(False, time.perf_counter() - t0, f"{job_key(*spec)}: {e!r}")
            http.reset()

    def run_job(self, http, phase, spec, t0):
        path, prop, model = spec
        key = job_key(path, prop, model)
        body = json.dumps({"table": self.ids[path], "properties": [prop], "model": model,
                           "seed": JOB_SEED, "permutations": JOB_PERMUTATIONS}).encode()
        status, _, data = http.request("POST", "/v1/analyze", body)
        if status != 202:
            phase.record(False, time.perf_counter() - t0, f"{key}: submit HTTP {status}")
            return
        job = json.loads(data)["job"]
        polls = 0
        while True:
            status, _, data = http.request("GET", f"/v1/jobs/{job}")
            polls += 1
            st = json.loads(data) if status == 200 else {}
            if st.get("state") in ("done", "failed", "cancelled") or status != 200:
                break
            time.sleep(JOB_POLL_S)
        lat = time.perf_counter() - t0
        with self._lock:
            self.polls += polls
        if st.get("state") != "done":
            phase.record(False, lat, f"{key}: {status} {st.get('state')} {st.get('error')}")
            return
        status, _, record = http.request("GET", f"/v1/jobs/{job}/result")
        if status != 200:
            phase.record(False, lat, f"{key}: result HTTP {status}")
            return
        got = job_result_body(record)
        why = self.check(phase.name, key, prop, got)
        phase.record(why is None, lat, why)
        if self.trace:
            with self._lock:
                self.timings.append((phase.name, lat, st["stage_us"]))

    def check(self, phase, key, prop, got):
        want = self.reference.get(key)
        if want is None:
            return f"{key}: not in the reference"
        p4 = prop == "P4"
        with self._lock:
            if phase == "cold":
                self.results[key] = got
            cold = self.results.get(key)
        for other, label in ((want, "reference"), (cold, "cold")):
            if p4:
                ok, n = common.compare_p4_text(got, other)
                with self._lock:
                    self.p4_bits += n
            else:
                ok = "sha:" + common.digest(got.encode()) == other if label == "reference" else got == other
            if not ok:
                return f"{key}: {phase} result differs from {label}"
        return None


def job_reference_value(prop, body):
    return body if prop == "P4" else "sha:" + common.digest(body.encode())


def analyze_jobs(root, exe, seed, trace=False):
    res = Result("analyze_jobs")
    ids = {}
    ingest_s = []

    def ready(server, r):
        t0 = time.perf_counter()
        ids.update(ingest_fixtures(server.port))
        ingest_s.append(time.perf_counter() - t0)

    def args(r):
        return [*JOBS_ARGS, "--store-dir", fresh_dir(root, "analyze_jobs", f"store{r}")]

    server, setup = start_servers(root, exe, args, ready, JOB_SETUP_REPS)
    res.metric("setup_s", setup, "s")
    plan = common.job_plan(seed)
    worker = JobWorker(server.port, ids, load_reference(root, "analyze_jobs"), trace)
    cold, warm = Phase("cold"), Phase("warm")
    try:
        run_phases([cold, warm], worker, {"cold": plan, "warm": plan}, JOB_CONNECTIONS)
        res.metric("peak_rss_mb", server.vm_hwm_mb(), "MB")
        metrics = metrics_text(server.port) if trace else None
    finally:
        code = server.stop()
    res.phases = [cold, warm]
    drained_cleanly(res, server, code)
    m = re.search(r"jobs: \d+ submitted, \d+ done, (\d+) failed, (\d+) cancelled, (\d+) lost",
                  server.output())
    if m is None:
        res.notes.append("no jobs report in the known format; failed/cancelled/lost not cross-checked")
    elif any(int(x) for x in m.groups()):
        res.problems.append(f"server jobs report: {m.group(0)}")
    res.rates(cold, warm, f"jobs ({len(plan)} per phase: one per (table, property) in each of "
              f"{common.JOB_ROUNDS} rounds of rotated models, --permutations {JOB_PERMUTATIONS})")
    res.latency_metrics(cold, "cold")
    res.latency_metrics(warm, "warm")
    res.notes.append(f"job status polls: {worker.polls}; P4 numbers that differ in their last bits: "
                     f"{worker.p4_bits} (crates/core/src/props/fd.rs:73-86)")
    if trace:
        res.trace["metrics"] = metrics
        res.trace["timings"] = worker.timings
        res.trace["polls"] = worker.polls
        res.trace["plan"] = plan
        res.trace["ingest_s"] = common.median(ingest_s)
    return res


WORKLOADS = {"paper_grid": paper_grid, "embed_serve": embed_serve, "analyze_jobs": analyze_jobs}
