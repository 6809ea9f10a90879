//! The three workloads: a source database driven by generated SQL, one
//! extraction path, a pipeline and a warehouse, built from the public API
//! of the repository's crates.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::extractor::{DeltaSource, SnapshotSource};
use delta_core::logextract::ResilientLogExtractor;
use delta_core::opdelta::{OpDeltaCapture, OpLogSink};
use delta_core::snapshot::DiffAlgorithm;
use delta_core::transform::DeltaTransform;
use delta_engine::{Database, DbOptions, QueryResult, Session, SyncMode};
use delta_sql::ast::AggFunc;
use delta_storage::Value;
use delta_warehouse::{AggSpec, AggViewDef, MirrorConfig, Pipeline, SyncReport, Warehouse};

use crate::gen::{create_table_sql, PointGen, SetGen};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Apply workers for `Pipeline::sync`, fixed so every comparison uses the
/// same thread count (the reference host has 2 cores).
const SYNC_WORKERS: usize = 2;
/// The Op-Delta capture table on the source.
const OP_LOG: &str = "op_log";
/// The aggregate view `log_point` maintains.
const AGG_VIEW: &str = "grp_summary";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Value deltas from the archived redo log, shipped by `Pipeline::ship`.
    LogPoint,
    /// Op-Deltas captured on the commit path, shipped by `collect_op_log`.
    /// Not listed in BENCHMARK.json while the storage layer panics on it:
    /// `SlottedPage::compact` keeps dead-slot lengths, so a later insert into
    /// the cleared `op_log` table overruns the page
    /// (`--workload op_setwise --seed 22 --seconds 20` reproduces it).
    OpSetwise,
    /// Snapshot differentials of a table larger than the buffer pools.
    SnapshotCold,
}

/// The shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tables: usize,
    pub rows_per_table: usize,
    /// Length of the `pad` column, which sets the row width.
    pub pad: usize,
    pub txns_per_round: usize,
    pub stmts_per_txn: usize,
    /// Measured rounds per second of `--seconds`: the work of a run is a
    /// fixed number of rounds, sized so one run measures about that long on
    /// the reference host.
    pub rounds_per_second: f64,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "log_point" => Some(Kind::LogPoint),
            "op_setwise" => Some(Kind::OpSetwise),
            "snapshot_cold" => Some(Kind::SnapshotCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LogPoint => "log_point",
            Kind::OpSetwise => "op_setwise",
            Kind::SnapshotCold => "snapshot_cold",
        }
    }

    /// The workload's shape; `tiny` shrinks the tables for smoke tests.
    pub fn shape(self, tiny: bool) -> Shape {
        let mut s = match self {
            Kind::LogPoint => Shape {
                tables: 4,
                rows_per_table: 10_000,
                pad: 80,
                txns_per_round: 20,
                stmts_per_txn: 5,
                rounds_per_second: 8.0,
            },
            Kind::OpSetwise => Shape {
                tables: 1,
                rows_per_table: 20_000,
                pad: 80,
                txns_per_round: 10,
                stmts_per_txn: 1,
                rounds_per_second: 7.0,
            },
            Kind::SnapshotCold => Shape {
                tables: 1,
                rows_per_table: 80_000,
                pad: 160,
                txns_per_round: 40,
                stmts_per_txn: 5,
                rounds_per_second: 0.53,
            },
        };
        if tiny {
            s.rows_per_table /= 50;
        }
        s
    }

    fn table_names(self, tiny: bool) -> Vec<String> {
        (0..self.shape(tiny).tables)
            .map(|i| format!("t{i}"))
            .collect()
    }
}

enum Gen {
    Point(PointGen),
    Set(SetGen),
}

/// The client connection: a plain session, or one wrapped by Op-Delta
/// capture.
enum Client {
    Plain(Session),
    Capture(OpDeltaCapture),
}

impl Client {
    fn execute(&mut self, sql: &str) -> Res<QueryResult> {
        Ok(match self {
            Client::Plain(s) => s.execute(sql)?,
            Client::Capture(c) => c.execute(sql)?,
        })
    }
}

/// A source database, its client and its statement generator.
pub struct Source {
    pub db: Arc<Database>,
    pub tables: Vec<String>,
    shape: Shape,
    client: Client,
    gen: Gen,
}

impl Source {
    /// Create the source under `dir`. `captured` arms the workload's capture
    /// mechanism (archive mode for `log_point`, Op-Delta capture for
    /// `op_setwise`); the capture-overhead control runs without it.
    pub fn open(kind: Kind, dir: &Path, seed: u64, tiny: bool, captured: bool) -> Res<Source> {
        let shape = kind.shape(tiny);
        let tables = kind.table_names(tiny);
        let opts = DbOptions::new(dir)
            .sync(SyncMode::Flush)
            .archive(captured && kind == Kind::LogPoint);
        let db = Database::open(opts)?;
        let mut session = db.session();
        for t in &tables {
            session.execute(&create_table_sql(t))?;
        }
        let client = if captured && kind == Kind::OpSetwise {
            Client::Capture(OpDeltaCapture::new(
                session,
                OpLogSink::Table(OP_LOG.into()),
            )?)
        } else {
            Client::Plain(session)
        };
        let gen = match kind {
            Kind::OpSetwise => Gen::Set(SetGen::new(
                seed,
                &tables[0],
                shape.rows_per_table,
                shape.pad,
            )),
            _ => Gen::Point(PointGen::new(seed, &tables, shape.pad)),
        };
        Ok(Source {
            db,
            tables,
            shape,
            client,
            gen,
        })
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The transactions that load the initial rows.
    pub fn seed_txns(&mut self) -> Vec<Vec<String>> {
        match &mut self.gen {
            Gen::Point(g) => g.seed(self.shape.rows_per_table),
            Gen::Set(g) => g.seed(),
        }
    }

    /// Load the initial rows.
    pub fn seed(&mut self) -> Res<()> {
        for txn in &self.seed_txns() {
            self.run_txn(txn, None)?;
        }
        Ok(())
    }

    /// Generate the next transaction's statements and the rows they change.
    pub fn next_txn(&mut self) -> (Vec<String>, u64) {
        match &mut self.gen {
            Gen::Point(g) => {
                let stmts = g.txn(self.shape.stmts_per_txn);
                let rows = stmts.len() as u64;
                (stmts, rows)
            }
            Gen::Set(g) => {
                let (sql, rows) = g.statement();
                (vec![sql], rows)
            }
        }
    }

    /// Run one BEGIN…COMMIT transaction. With `expect_rows`, a statement
    /// count of changed rows that differs from the generator's model is an
    /// error.
    pub fn run_txn(&mut self, stmts: &[String], expect_rows: Option<u64>) -> Res<()> {
        self.client.execute("BEGIN")?;
        let mut rows = 0;
        for s in stmts {
            rows += self.client.execute(s)?.affected;
        }
        self.client.execute("COMMIT")?;
        match expect_rows {
            Some(want) if want != rows => Err(format!(
                "transaction changed {rows} rows, the generator expected {want}"
            )
            .into()),
            _ => Ok(()),
        }
    }
}

enum Extract {
    Log(ResilientLogExtractor),
    Op,
    Snapshot(Vec<(Box<dyn DeltaSource>, Option<DeltaTransform>)>),
}

/// A whole workload: source, extraction path, pipeline and warehouse.
pub struct Rig {
    pub source: Source,
    pub wh: Warehouse,
    pub pipe: Pipeline,
    extract: Extract,
    /// Where the extraction path keeps its baselines or snapshots.
    pub extract_dir: PathBuf,
}

impl Rig {
    /// Create the databases under `dir`, seed the source and ship and sync
    /// the seed, so the warehouse starts from a synced baseline.
    pub fn setup(kind: Kind, dir: &Path, seed: u64, tiny: bool) -> Res<Rig> {
        std::fs::create_dir_all(dir)?;
        let source = Source::open(kind, &dir.join("src"), seed, tiny, true)?;
        let wh_db = Database::open(DbOptions::new(dir.join("wh")).sync(SyncMode::Flush))?;
        let mut wh = Warehouse::new(wh_db);
        for t in &source.tables {
            wh.add_mirror(MirrorConfig::full(t, source.db.table(t)?.schema.clone()))?;
        }
        if kind == Kind::LogPoint {
            wh.add_agg_view(AggViewDef {
                name: AGG_VIEW.into(),
                table: source.tables[0].clone(),
                group_by: vec!["grp".into()],
                aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "val")],
                selection: None,
            })?;
        }
        let pipe = Pipeline::open(dir.join("queue.q"))?.with_sync_workers(SYNC_WORKERS);
        let extract_dir = dir.join("extract");
        let extract = match kind {
            Kind::LogPoint => {
                let names: Vec<&str> = source.tables.iter().map(|s| s.as_str()).collect();
                let mut x = ResilientLogExtractor::new(&extract_dir, &names)?;
                x.prime(&source.db)?;
                Extract::Log(x)
            }
            Kind::OpSetwise => Extract::Op,
            Kind::SnapshotCold => Extract::Snapshot(vec![(
                Box::new(SnapshotSource::new(
                    source.tables[0].clone(),
                    &[0],
                    DiffAlgorithm::SortMerge { run_size: 4096 },
                    &extract_dir,
                )) as Box<dyn DeltaSource>,
                None,
            )]),
        };
        let mut rig = Rig {
            source,
            wh,
            pipe,
            extract,
            extract_dir,
        };
        // The first snapshot pull only establishes the (empty) baseline.
        rig.ship()?;
        rig.source.seed()?;
        rig.ship()?;
        rig.pipe.sync(&rig.wh)?;
        Ok(rig)
    }

    /// One extraction call publishing everything committed since the last.
    pub fn ship(&mut self) -> Res<()> {
        let db = &self.source.db;
        match &mut self.extract {
            Extract::Log(x) => {
                let r = self.pipe.ship(db, x)?;
                if r.backpressure + r.degradations + r.deferred > 0 {
                    return Err(format!("ship degraded without a disk budget: {r:?}").into());
                }
            }
            Extract::Op => {
                self.pipe.collect_op_log(db, OP_LOG)?;
            }
            Extract::Snapshot(sources) => {
                self.pipe.collect(db, sources)?;
            }
        }
        Ok(())
    }

    pub fn sync(&self) -> Res<SyncReport> {
        Ok(self.pipe.sync(&self.wh)?)
    }

    /// The correctness gate: every mirror equals its source table, the
    /// aggregate view equals its recomputation, and the queue is drained.
    pub fn gate(&self) -> Res<()> {
        for t in &self.source.tables {
            if canonical_rows(&self.source.db, t)? != canonical_rows(self.wh.db(), t)? {
                return Err(format!("mirror {t} differs from its source table").into());
            }
        }
        if let Some(v) = self.wh.agg_view(AGG_VIEW) {
            if !v.verify_against_recompute(self.wh.db())? {
                return Err("aggregate view differs from its recomputation".into());
            }
        }
        let q = self.pipe.queue();
        if q.pending() != 0 || q.acked() != q.total() {
            return Err(format!(
                "queue not drained: {} pending, {} of {} acked",
                q.pending(),
                q.acked(),
                q.total()
            )
            .into());
        }
        if !self.pipe.quarantined()?.is_empty() {
            return Err("dead-letter queue is not empty".into());
        }
        Ok(())
    }
}

/// A table's rows, sorted: the canonical form two tables are compared in.
fn canonical_rows(db: &Database, table: &str) -> Res<Vec<Vec<Value>>> {
    let mut rows: Vec<Vec<Value>> = db
        .scan_table(table)?
        .into_iter()
        .map(|(_, r)| r.values().to_vec())
        .collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
    Ok(rows)
}

/// Total size of the regular files directly in `dir` (0 if it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of redo log on disk (resident plus archived segments).
pub fn wal_bytes(db: &Database) -> Res<u64> {
    let wal = db.wal();
    let mut paths = wal.resident_segments()?;
    paths.extend(wal.archived_segments()?);
    Ok(paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum())
}
