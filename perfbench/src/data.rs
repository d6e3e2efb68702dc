//! Inputs: generated datasets, written once as snapshots and loaded back
//! the way a deployment starts.

use crate::trace::span;
use re2x_cube::{bootstrap, BootstrapConfig, BootstrapReport};
use re2x_datagen::Dataset;
use re2x_rdf::Graph;
use re2x_sparql::SparqlEndpoint;
use std::path::{Path, PathBuf};

/// The three dataset shapes of the paper's Table 3.
pub const NAMES: [&str; 3] = ["eurostat", "production", "dbpedia"];

/// A generated dataset on disk: its metadata (graph emptied) and snapshot.
pub struct Source {
    pub name: &'static str,
    pub meta: Dataset,
    pub path: PathBuf,
    pub key: String,
}

impl Source {
    /// Generates `name` at `observations` from `seed` and writes its
    /// snapshot under `dir`.
    pub fn prepare(dir: &Path, name: &'static str, observations: usize, seed: u64) -> Source {
        let mut meta = match name {
            "eurostat" => re2x_datagen::eurostat::generate(observations, seed),
            "production" => re2x_datagen::production::generate(observations, seed),
            _ => re2x_datagen::dbpedia::generate(observations, seed),
        };
        let graph = std::mem::take(&mut meta.graph);
        let key = format!("{name}-{observations}-{seed}");
        let path = dir.join(format!("{key}.snap"));
        graph
            .write_snapshot(&path, &key)
            .expect("snapshot is writable inside the checkout");
        eprintln!(
            "input {name}: {observations} observations, {} triples",
            graph.len()
        );
        Source {
            name,
            meta,
            path,
            key,
        }
    }

    /// Loads the snapshot back.
    pub fn load(&self) -> Graph {
        let _span = span("rdf.snapshot_load", self.name);
        Graph::load_snapshot(&self.path, Some(&self.key)).expect("snapshot loads")
    }

    /// Bootstraps the Virtual Schema Graph over `endpoint`.
    pub fn bootstrap(&self, endpoint: &dyn SparqlEndpoint) -> BootstrapReport {
        let _span = span("cube.bootstrap", self.name);
        bootstrap(
            endpoint,
            &BootstrapConfig::new(&self.meta.observation_class),
        )
        .expect("bootstrap succeeds on generated data")
    }

    /// The generator covers every member pool, so the discovered member
    /// count must equal the declared one.
    pub fn covers_every_pool(&self) -> bool {
        self.meta.observations >= self.meta.expected.members
    }

    /// Hierarchies are functional (one parent per member): roll-ups and
    /// grand totals are exact. The DBpedia shape has M-to-N steps.
    pub fn functional(&self) -> bool {
        self.name != "dbpedia"
    }
}

/// The working directory of this run's snapshots, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new() -> WorkDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("work directory inside the checkout");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // removes `.work` itself once no other run uses it
            let _ = std::fs::remove_dir(parent);
        }
    }
}
