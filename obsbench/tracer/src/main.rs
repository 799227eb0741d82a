//! obsbench-tracer: the per-layer pass of the obsbench workloads.
//!
//! The timed benchmark drives the `observatory` binary only; this tool
//! links the crates and replays the same work in-process, timing calls
//! into each layer's public functions:
//!
//! ```text
//! obsbench-tracer fixtures <dir>                 write the small-scale fixture CSVs
//! obsbench-tracer grid <spec> <store> per-cell|shared traced|untraced [export-dir]
//! obsbench-tracer embed <bodies>
//! ```
//!
//! `grid` runs every spec line (`PROP MODEL PERMS CSV...`) cold, then
//! again warm, on one store directory: `per-cell` readies a fresh engine,
//! model and store per line like one CLI process; `shared` keeps one
//! engine and store and rebuilds the model per line like the job
//! scheduler. `embed` replays `/v1/embed` bodies (one per line) through
//! the API parser, one engine and the response renderer. Each prints one
//! JSON object of layer totals; `grid` also exports every report to
//! `<export-dir>/<cold|warm>/<PROP>_<MODEL>` (outside the timed totals)
//! so its outputs can be checked like the CLI's. The encode path runs on one thread
//! (`--jobs 1`, like the timed runs), so kernel counters split it exactly.

use observatory::core::export::write_bundle;
use observatory::core::framework::{EvalContext, Property, PropertyReport};
use observatory::core::props::col_order::ColumnOrderInsignificance;
use observatory::core::props::fd::FunctionalDependencies;
use observatory::core::props::hetero_context::HeterogeneousContext;
use observatory::core::props::perturbation::PerturbationRobustness;
use observatory::core::props::row_order::RowOrderInsignificance;
use observatory::core::props::sample_fidelity::SampleFidelity;
use observatory::fd::discovery::{discover_unary_fds, DiscoveryOptions};
use observatory::linalg::kernels::stats;
use observatory::models::registry::model_by_name;
use observatory::models::serialize::{serialize_row_wise, RowWiseOptions};
use observatory::models::{Capabilities, ModelEncoding, TableEncoder};
use observatory::runtime::{EmbeddingStore, Engine, EngineConfig, Fingerprint, StoreTierStats};
use observatory::store::{MmapStore, StoreConfig};
use observatory::table::csv::parse_csv;
use observatory::table::Table;
use observatory::tokenizer::Tokenizer;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named nanosecond / count accumulators, printed as one JSON object.
#[derive(Default)]
struct Layers(Mutex<BTreeMap<String, f64>>);

impl Layers {
    fn add(&self, name: &str, v: f64) {
        *self.0.lock().unwrap().entry(name.to_string()).or_default() += v;
    }
    fn get(&self, name: &str) -> f64 {
        self.0.lock().unwrap().get(name).copied().unwrap_or(0.0)
    }
    fn json(&self) -> String {
        let m = self.0.lock().unwrap();
        let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Kernel families in `stats::snapshot()` order, as layer names.
const KERNELS: [&str; 4] =
    ["linalg.matmul", "linalg.linear", "linalg.linear_gelu", "linalg.attention"];

/// A model whose every encode is timed and split by kernel family.
struct Traced<'a> {
    inner: Box<dyn TableEncoder>,
    layers: &'a Layers,
    /// Tables encoded, for the serializer post-pass.
    tables: Mutex<Vec<Table>>,
}

impl Traced<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T, tokens: impl FnOnce(&T) -> usize) -> T {
        let k0 = stats::snapshot();
        let t0 = Instant::now();
        let out = f();
        let ns = ns_since(t0);
        let k1 = stats::snapshot();
        self.layers.add("models.encode_table", ns);
        self.layers.add("models.encodes", 1.0);
        for (i, name) in KERNELS.iter().enumerate() {
            let d = k1.kernels[i].1.total_ns.saturating_sub(k0.kernels[i].1.total_ns);
            self.layers.add(name, d as f64);
        }
        self.layers.add("models.tokens", tokens(&out) as f64);
        out
    }
}

impl TableEncoder for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn display_name(&self) -> &str {
        self.inner.display_name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn encode_table(&self, table: &Table) -> ModelEncoding {
        self.tables.lock().unwrap().push(table.clone());
        self.timed(|| self.inner.encode_table(table), |e: &ModelEncoding| e.embeddings.rows())
    }
    fn encode_text(&self, text: &str) -> Vec<f64> {
        self.timed(|| self.inner.encode_text(text), |_| 0)
    }
}

/// The tier-2 store behind a timing decorator (the `EmbeddingStore` port).
struct TimedStore<'a> {
    inner: Arc<MmapStore>,
    layers: &'a Layers,
}

impl EmbeddingStore for TimedStore<'static> {
    fn load(&self, fp: Fingerprint) -> Option<Arc<ModelEncoding>> {
        let t0 = Instant::now();
        let out = self.inner.load(fp);
        self.layers.add("store.load", ns_since(t0));
        self.layers.add(if out.is_some() { "store.hits" } else { "store.misses" }, 1.0);
        out
    }
    fn save(&self, fp: Fingerprint, enc: &ModelEncoding) {
        let t0 = Instant::now();
        self.inner.save(fp, enc);
        self.layers.add("store.save", ns_since(t0));
        self.layers.add("store.saves", 1.0);
    }
    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn tier_stats(&self) -> StoreTierStats {
        self.inner.tier_stats()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn fingerprints(&self) -> Vec<Fingerprint> {
        self.inner.fingerprints()
    }
}

fn property(id: &str, perms: usize) -> Box<dyn Property> {
    match id {
        "P1" => Box::new(RowOrderInsignificance { max_permutations: perms }),
        "P2" => Box::new(ColumnOrderInsignificance { max_permutations: perms }),
        "P4" => Box::new(FunctionalDependencies::default()),
        "P5" => Box::new(SampleFidelity::default()),
        "P7" => Box::new(PerturbationRobustness::default()),
        "P8" => Box::new(HeterogeneousContext),
        other => die(&format!("no CLI property {other}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("obsbench-tracer: {msg}");
    std::process::exit(1)
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig { jobs: 1, ..EngineConfig::from_env() }))
}

struct Spec {
    prop: String,
    model: String,
    perms: usize,
    csvs: Vec<String>,
}

fn read_specs(path: &str) -> Vec<Spec> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            Spec {
                prop: f[0].to_string(),
                model: f[1].to_string(),
                perms: f[2].parse().unwrap_or_else(|_| die("bad permutations")),
                csvs: f[3..].iter().map(|s| s.to_string()).collect(),
            }
        })
        .collect()
}

fn parse_tables(csvs: &[String], layers: &Layers) -> Vec<Table> {
    csvs.iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("{p}: {e}")));
            let t0 = Instant::now();
            let t = parse_csv(p, &text).unwrap_or_else(|e| die(&format!("{p}: {e}")));
            layers.add("table.parse", ns_since(t0));
            t
        })
        .collect()
}

fn build(name: &str, layers: &Layers) -> Box<dyn TableEncoder> {
    let t0 = Instant::now();
    let m = model_by_name(name).unwrap_or_else(|| die(&format!("unknown model {name}")));
    layers.add("models.build", ns_since(t0));
    layers.add("models.builds", 1.0);
    m
}

fn open_store(dir: &str, layers: &'static Layers) -> Arc<MmapStore> {
    let wal = Path::new(dir).join("wal.log");
    let wal_bytes = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let store =
        MmapStore::open(StoreConfig::new(dir)).unwrap_or_else(|e| die(&format!("{dir}: {e}")));
    layers.add("store.open", ns_since(t0));
    layers.add("store.opens", 1.0);
    layers.add("store.wal_bytes", wal_bytes as f64);
    Arc::new(store)
}

/// Attach the store to `engine`: timed, or plain when untraced.
fn attach(engine: &Engine, store: &Arc<MmapStore>, layers: &'static Layers, traced: bool) {
    let port: Arc<dyn EmbeddingStore> = if traced {
        Arc::new(TimedStore { inner: Arc::clone(store), layers })
    } else {
        Arc::clone(store) as Arc<dyn EmbeddingStore>
    };
    if !engine.attach_store(port) {
        die("store already attached");
    }
}

/// Evaluate one spec, accumulating its layer times into `layers`.
fn evaluate(
    spec: &Spec,
    model: Box<dyn TableEncoder>,
    corpus: &[Table],
    ctx: &EvalContext,
    layers: &Layers,
    traced: bool,
) -> PropertyReport {
    let p = property(&spec.prop, spec.perms);
    let before = ctx.engine.metrics_snapshot();
    let t0 = Instant::now();
    if traced {
        let m = Traced { inner: model, layers, tables: Mutex::new(Vec::new()) };
        let (enc0, load0, save0) =
            (layers.get("models.encode_table"), layers.get("store.load"), layers.get("store.save"));
        let report = p.evaluate(&m, corpus, ctx);
        let wall = ns_since(t0);
        let enc = layers.get("models.encode_table") - enc0;
        let st = layers.get("store.load") - load0 + layers.get("store.save") - save0;
        let after = ctx.engine.metrics_snapshot();
        let engine_ns =
            after.encode_latency.sum_ns.saturating_sub(before.encode_latency.sum_ns) as f64;
        layers.add("runtime.encode", engine_ns);
        layers.add("runtime.encodes", after.encodes.saturating_sub(before.encodes) as f64);
        layers.add("runtime.hits", after.cache_hits.saturating_sub(before.cache_hits) as f64);
        layers.add("runtime.lookups", (after.lookups().saturating_sub(before.lookups())) as f64);
        layers.add("core.bypass_encode", (enc - engine_ns).max(0.0));
        layers.add(&format!("core.{}.self", spec.prop), wall - enc - st);
        layers.add("core.evaluate", wall);
        let t1 = Instant::now();
        serialize_post_pass(&m, layers);
        layers.add("check", ns_since(t1));
        report
    } else {
        let report = p.evaluate(model.as_ref(), corpus, ctx);
        layers.add("core.evaluate", ns_since(t0));
        report
    }
}

/// Write one report as an export bundle; the time it takes is kept out
/// of the pass's wall time.
fn export(dir: Option<&str>, phase: &str, spec: &Spec, report: &PropertyReport, layers: &Layers) {
    let Some(dir) = dir else { return };
    let t0 = Instant::now();
    let path = Path::new(dir).join(phase).join(format!("{}_{}", spec.prop, spec.model));
    if let Err(e) = write_bundle(&path, std::slice::from_ref(report)) {
        die(&format!("{}: {e}", path.display()));
    }
    layers.add("check", ns_since(t0));
}

/// Time the row-wise serializer and tokenizer on every table a model
/// encoded (the models' own serializer is private; this times the public
/// one with the zoo's default options and vocabulary).
fn serialize_post_pass(m: &Traced<'_>, layers: &Layers) {
    let tok = Tokenizer::new(8192);
    let opts = RowWiseOptions::default();
    for t in m.tables.lock().unwrap().iter() {
        let t0 = Instant::now();
        std::hint::black_box(serialize_row_wise(t, &tok, t.num_rows(), &opts));
        layers.add("models.serialize", ns_since(t0));
    }
}

fn cmd_grid(spec_path: &str, store_dir: &str, mode: &str, traced: bool, export_dir: Option<&str>) {
    let specs = read_specs(spec_path);
    let layers: &'static Layers = Box::leak(Box::default());
    let shared = mode == "shared";
    let t_all = Instant::now();
    // Shared mode: one engine and store for every line, tables parsed
    // once (at ingest, in the server).
    let shared_state = shared.then(|| {
        let e = engine();
        let store = open_store(store_dir, layers);
        attach(&e, &store, layers, traced);
        let mut tables = BTreeMap::new();
        for s in &specs {
            for c in &s.csvs {
                if !tables.contains_key(c) {
                    let t = parse_tables(std::slice::from_ref(c), layers).pop().unwrap();
                    tables.insert(c.clone(), t);
                }
            }
        }
        (e, store, tables)
    });
    let mut phase_walls = Vec::new();
    for phase in ["cold", "warm"] {
        let t_phase = Instant::now();
        for s in &specs {
            match &shared_state {
                Some((e, _, tables)) => {
                    let corpus: Vec<Table> = s.csvs.iter().map(|c| tables[c].clone()).collect();
                    let model = build(&s.model, layers);
                    let ctx = EvalContext { seed: 42, ..EvalContext::with_engine(Arc::clone(e)) };
                    let report = evaluate(s, model, &corpus, &ctx, layers, traced);
                    export(export_dir, phase, s, &report, layers);
                }
                None => {
                    let corpus = parse_tables(&s.csvs, layers);
                    let model = build(&s.model, layers);
                    let e = engine();
                    let store = open_store(store_dir, layers);
                    attach(&e, &store, layers, traced);
                    let ctx = EvalContext { seed: 42, ..EvalContext::with_engine(Arc::clone(&e)) };
                    let report = evaluate(s, model, &corpus, &ctx, layers, traced);
                    export(export_dir, phase, s, &report, layers);
                    let t0 = Instant::now();
                    drop(ctx);
                    drop(e);
                    drop(store);
                    layers.add("store.close", ns_since(t0));
                }
            }
        }
        phase_walls.push(t_phase.elapsed().as_secs_f64());
    }
    if let Some((e, store, _)) = shared_state {
        let t0 = Instant::now();
        drop(e);
        drop(store);
        layers.add("store.close", ns_since(t0));
    }
    layers.add("wall", ns_since(t_all));
    if traced {
        // FD discovery, the mining step inside P4, timed on its own.
        let mut seen = std::collections::BTreeSet::new();
        for s in specs.iter().filter(|s| s.prop == "P4") {
            for c in &s.csvs {
                if seen.insert(c.clone()) {
                    let t =
                        parse_tables(std::slice::from_ref(c), &Layers::default()).pop().unwrap();
                    let t0 = Instant::now();
                    std::hint::black_box(discover_unary_fds(&t, DiscoveryOptions::default()));
                    layers.add("fd.discover", ns_since(t0));
                }
            }
        }
    }
    layers.add("cold_wall", phase_walls[0] * 1e9);
    layers.add("warm_wall", phase_walls[1] * 1e9);
    println!("{}", layers.json());
}

fn cmd_embed(bodies_path: &str) {
    use observatory::serve::api::{parse_embed, render_embed_response};
    let text = std::fs::read_to_string(bodies_path)
        .unwrap_or_else(|e| die(&format!("{bodies_path}: {e}")));
    let layers: &'static Layers = Box::leak(Box::default());
    let e = engine();
    let mut models: BTreeMap<String, Traced<'static>> = BTreeMap::new();
    let t_all = Instant::now();
    for body in text.lines().filter(|l| !l.is_empty()) {
        let t0 = Instant::now();
        let req = parse_embed(body).unwrap_or_else(|_| die("unparsable embed body"));
        layers.add("serve.parse", ns_since(t0));
        layers.add("serve.requests", 1.0);
        let model = models.entry(req.model.clone()).or_insert_with(|| Traced {
            inner: build(&req.model, layers),
            layers,
            tables: Mutex::new(Vec::new()),
        });
        let t0 = Instant::now();
        let enc = e.encode_batch(&*model, std::slice::from_ref(&req.table)).pop().unwrap();
        layers.add("runtime.encode_batch", ns_since(t0));
        let t0 = Instant::now();
        std::hint::black_box(render_embed_response(&req, &enc));
        layers.add("serve.render", ns_since(t0));
    }
    layers.add("wall", ns_since(t_all));
    let snap = e.metrics_snapshot();
    layers.add("runtime.encodes", snap.encodes as f64);
    layers.add("runtime.hits", snap.cache_hits as f64);
    layers.add("runtime.lookups", snap.lookups() as f64);
    for m in models.values() {
        serialize_post_pass(m, layers);
    }
    println!("{}", layers.json());
}

fn cmd_fixtures(dir: &Path) {
    use observatory::data::{
        sotab::SotabConfig, spider::SpiderConfig, wikitables::WikiTablesConfig,
    };
    use observatory::table::csv::to_csv;
    // The OBSERVATORY_SCALE=small corpora of the bench harness.
    let sets = [
        (
            "wikitables",
            WikiTablesConfig { num_tables: 6, min_rows: 5, max_rows: 8, seed: 42 }.generate(),
        ),
        ("spider", SpiderConfig { num_tables: 6, rows: 24, seed: 7 }.generate().tables),
        ("sotab", SotabConfig { num_tables: 10, rows: 8, seed: 23 }.generate()),
    ];
    for (name, tables) in sets {
        let d = dir.join(name);
        std::fs::create_dir_all(&d).unwrap_or_else(|e| die(&format!("{}: {e}", d.display())));
        for (i, t) in tables.iter().enumerate() {
            let path = d.join(format!("t{i}.csv"));
            std::fs::write(&path, to_csv(t))
                .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
        }
    }
}

fn main() {
    // One thread on the encode path, like the timed runs (`--jobs 1`).
    observatory::linalg::parallel::set_default_jobs(1);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str).unwrap_or_else(|| die("missing argument"));
    match args.first().map(String::as_str) {
        Some("fixtures") => cmd_fixtures(Path::new(arg(1))),
        Some("grid") => cmd_grid(arg(1), arg(2), arg(3), arg(4) == "traced", args.get(5).map(String::as_str)),
        Some("embed") => cmd_embed(arg(1)),
        _ => die("usage: obsbench-tracer fixtures <dir> | grid <spec> <store> per-cell|shared traced|untraced [export-dir] | embed <bodies>"),
    }
}
