"""Pure helpers of the benchmark: seeded inputs, statistics and output checks.

Nothing here starts a process or opens a socket, so every function is
covered by `test_obsbench.py` without a build.
"""

import hashlib
import json
import math
import random
import re

# The nine-model zoo, in registry order (`observatory models`).
MODELS = ["bert", "roberta", "t5", "turl", "doduo", "tapas", "tabert", "tapex", "taptap"]

# Table 2 scope (crates/core/src/scope.rs), restricted to the properties
# with a CLI: property -> (fixture dataset, excluded models).
GRID = [
    ("P1", "wikitables", {"taptap"}),
    ("P2", "wikitables", set()),
    ("P5", "wikitables", {"taptap"}),
    ("P4", "spider", {"turl", "tabert", "taptap"}),
    ("P7", "spider", {"turl", "taptap"}),
    ("P8", "sotab", {"turl", "taptap"}),
]

FIXTURES = "obsbench/fixtures"
# Table count per fixture dataset (OBSERVATORY_SCALE=small).
FIXTURE_TABLES = {"wikitables": 6, "spider": 6, "sotab": 10}


def grid_cells():
    """The 45 in-scope (property, model) cells, in a fixed order."""
    return [(p, m, ds) for p, ds, ex in GRID for m in MODELS if m not in ex]


def fixture_paths(dataset):
    """Relative CSV paths of one fixture dataset; they double as table names."""
    return [f"{FIXTURES}/{dataset}/t{i}.csv" for i in range(FIXTURE_TABLES[dataset])]


def properties_of(dataset):
    return [p for p, ds, _ in GRID if ds == dataset]


def models_for(prop):
    ex = next(e for p, _, e in GRID if p == prop)
    return [m for m in MODELS if m not in ex]


# ---------------------------------------------------------------- statistics


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


# The percentiles a tail may be reported at.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)


def tail_percentile(n, beyond=10):
    """The highest of TAIL_PERCENTILES that still has at least `beyond` of
    `n` samples above it; None if n is too small."""
    ok = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= beyond - 1e-9]
    return ok[-1] if ok else None


def tail(samples, beyond=10):
    """(value, percentile, n) of the tail latency: the highest standard
    percentile with at least `beyond` samples beyond it (nearest rank)."""
    s = sorted(samples)
    p = tail_percentile(len(s), beyond)
    if p is None:
        raise ValueError(f"{len(s)} samples cannot give a tail with {beyond} beyond it")
    k = math.ceil(len(s) * p / 100) - 1
    return s[k], p, len(s)


def spread(values):
    """Inter-quartile range as a share of the median (the steadiness figure)."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------- inputs


def zipf_models(n, seed, s=1.0):
    """A fixed seeded Zipf sequence over the zoo: model i has weight 1/i^s."""
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) ** s for k in range(len(MODELS))]
    return rng.choices(MODELS, weights=weights, k=n)


# Pool of /v1/embed tables. Table i and its model are fixed for all runs;
# the run seed only chooses which tables a run sends and in what order, so
# one committed reference covers every seed.
EMBED_POOL = 6000
EMBED_POOL_SEED = 0x0B5E


_WORDS = (
    "paris lund oslo kyoto lima quito accra hanoi perth cork bern riga tartu porto "
    "graz delft ghent turku split bergen aarhus malmo tampere basel lyon nice bonn"
).split()
_HEADERS = ["city", "country", "year", "score", "team", "venue", "rank", "name", "code", "pop"]
# The model of pool table i.
EMBED_MODELS = zipf_models(EMBED_POOL, EMBED_POOL_SEED)


def embed_table(i):
    """Pool table i as the JSON object `/v1/embed` takes."""
    rng = random.Random(EMBED_POOL_SEED * 1_000_003 + i)
    ncols = rng.randint(2, 4)
    nrows = rng.randint(3, 6)
    headers = rng.sample(_HEADERS, ncols)
    columns = []
    for h in headers:
        if h in ("year", "score", "rank", "pop"):
            values = [rng.randint(0, 5000) for _ in range(nrows)]
        else:
            values = [rng.choice(_WORDS) for _ in range(nrows)]
        columns.append({"header": h, "values": values})
    return {"name": f"obsbench/embed/t{i}", "columns": columns}


def embed_level(model):
    # TaPEx and TapTap expose row embeddings but no column embeddings.
    return "row" if model in ("tapex", "taptap") else "column"


def embed_body(i):
    model = EMBED_MODELS[i]
    req = {"model": model, "level": embed_level(model), "id": f"t{i}", "table": embed_table(i)}
    return json.dumps(req, separators=(",", ":")).encode()


def embed_plan(seed, n_cold, working_set, n_warm):
    """(cold, warm) lists of pool indices for one run.

    Cold sends `n_cold` distinct tables (never one twice). Warm replays
    `n_warm` draws from a `working_set` of tables cold already encoded."""
    rng = random.Random(seed)
    cold = rng.sample(range(EMBED_POOL), n_cold)
    ws = rng.sample(cold, working_set)
    warm = [rng.choice(ws) for _ in range(n_warm)]
    return cold, warm


JOB_ROUNDS = 3


def job_plan(seed):
    """(table path, property, model) specs of one analyze_jobs phase.

    One job per (table, supported property of its dataset) in each of
    JOB_ROUNDS rounds; round r gives each job a different in-scope model by
    a fixed rotation. The set of jobs is the same for every seed, so runs
    do equal work; the seed only shuffles the submission order."""
    specs = []
    for ds in FIXTURE_TABLES:
        for t, path in enumerate(fixture_paths(ds)):
            for prop in properties_of(ds):
                models = models_for(prop)
                for r in range(JOB_ROUNDS):
                    specs.append((path, prop, models[(t + 2 * r) % len(models)]))
    random.Random(seed).shuffle(specs)
    return specs


# ---------------------------------------------------------------- checks


def digest(data):
    return hashlib.sha256(data).hexdigest()[:20]


_NUM = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# P4's S̄² values are averaged in HashMap iteration order
# (crates/core/src/props/fd.rs:73-86), so they may differ in the last bits.
P4_REL_TOL = 1e-12


def p4_close(a, b, rel=P4_REL_TOL):
    """Values agree within `rel` relative (exactly equal also passes)."""
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare_p4_text(got, want):
    """Compare two P4 export files token by token.

    Non-numeric text must match exactly. Full-precision numbers must agree
    within P4_REL_TOL; numbers printed with few decimals (the summary line)
    may differ by one unit of their last printed digit, since a last-bit
    change can round either way. Returns (ok, numbers that differ in bits).
    """
    gt, wt = _NUM.split(got), _NUM.split(want)
    gn, wn = _NUM.findall(got), _NUM.findall(want)
    if gt != wt or len(gn) != len(wn):
        return False, 0
    differ = 0
    for g, w in zip(gn, wn):
        if g == w:
            continue
        differ += 1
        gv, wv = float(g), float(w)
        if p4_close(gv, wv):
            continue
        decimals = len(w.split(".")[1]) if "." in w and "e" not in w.lower() else None
        if decimals is not None and decimals <= 6 and abs(gv - wv) <= 1.0001 * 10**-decimals:
            continue
        return False, differ
    return True, differ


def compare_bundles(got, want, p4):
    """Compare two export bundles ({file name: text}).

    Returns (list of mismatch descriptions, count of P4 last-bit differences)."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"files {sorted(got)} != {sorted(want)}"], 0
    bits = 0
    for name in sorted(want):
        if got[name] == want[name]:
            continue
        if p4:
            ok, n = compare_p4_text(got[name], want[name])
            bits += n
            if ok:
                continue
        problems.append(f"{name} differs")
    return problems, bits


def percent(part, whole):
    return 100.0 * part / whole if whole else 0.0


def is_finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
