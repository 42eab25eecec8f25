//! The database: a catalog of named tables plus temp-table support.
//!
//! The driver-function pattern from the paper (Section 3.1.2, Figure 3)
//! stages inter-iteration state in temporary tables created with
//! `CREATE TEMP TABLE ... AS SELECT ...` so that "all large-data movement is
//! done within the database engine".  [`Database`] provides that catalog:
//! regular tables, temp tables (dropped on [`Database::drop_temp_tables`]),
//! and a default segment count that new tables inherit (the analogue of the
//! cluster's segment configuration).
//!
//! # Locking
//!
//! The catalog map itself is guarded by one `RwLock`, but each table lives
//! behind its **own** `Arc<RwLock<Table>>`: catalog operations (create,
//! drop, lookup) take the catalog lock only long enough to touch the map,
//! and every table read or mutation happens under that table's private
//! lock.  A long append to table A therefore never blocks a snapshot read
//! of table B — the failure mode of the earlier design, where
//! [`Database::with_table_mut`] held the catalog-wide write lock for its
//! closure's full duration.
//!
//! # Snapshot isolation
//!
//! [`Database::table`] and [`Database::dataset`] return a *snapshot*: a
//! clone of the table taken under its read lock.  A
//! [`crate::chunk::Segment`] keeps its chunks behind `Arc` and the list of
//! them behind one more, so the clone is **one pointer per segment**
//! whatever the table holds: it shares the list and, through it, every
//! chunk buffer with the cataloged table (pointer identity, no copy).  A
//! later append copies lazily (`Arc::make_mut`) and only while the snapshot
//! is alive — the list of pointers once, the open tail chunk once — so an
//! append, the view absorb behind it, a refresh and a checkpoint all cost
//! what the batch costs, not what the table holds.  Appends committed
//! *after* the snapshot was taken are never visible to it, and the snapshot
//! stays valid after the table is dropped — the read-committed snapshot
//! semantics the paper's method drivers assume of `source_table`.
//!
//! # Durability
//!
//! A database opened with [`Database::open`] is backed by a directory: a
//! write-ahead log (`crate::wal`) plus chunk-granular snapshots and a
//! manifest (`crate::persist`).  The logged operations are exactly the
//! catalog-level mutations — [`Database::create_table`] (and variants),
//! [`Database::append_rows`], [`Database::truncate_table`],
//! [`Database::replace_table`], [`Database::register_table`] and
//! [`Database::drop_table`].  Each call is one WAL record; **the commit
//! point is the fsync of the group-commit batch containing that record**,
//! and the call does not return success before it.  Concurrent committers
//! share one fsync (group commit); a reader may observe rows a few
//! microseconds before their commit fsync completes (async-commit-style
//! visibility), but the *caller* is only acknowledged after it.
//!
//! What is durable: table data, schemas, distribution and chunk layout —
//! recovery ([`Database::open`] / [`Database::recover`]) reproduces them
//! **bit-identically** to a committed prefix of the operation history, chunk
//! boundaries and round-robin cursor included.  Views persist with the
//! checkpoint and are adopted after replay; models do not.  A checkpoint
//! writes the retained states and watermarks of every persistable view
//! (ungrouped, unfiltered, over a non-temp table, its aggregate with a
//! state codec — [`crate::materialize`]) into the manifest; recovery holds
//! them as *pending* entries, and the first [`Database::register_view`] of a
//! name — which is what `Session::train_incremental` does — is offered the
//! entry of that name and, when it matches, absorbs only the rows the log
//! replayed past its watermarks instead of rescanning the table.  Every
//! other view, and every cataloged model, is a derived cache rebuilt after
//! recovery — bit-for-bit what it was, because training and view absorption
//! are deterministic over bit-identical tables.  [`Database::recovery_report`]
//! says what recovery loaded and what became of each persisted view.  Temp
//! tables are never logged or persisted.  [`Database::with_table_mut`] is
//! the unlogged escape hatch — mutations made through it reach disk only at
//! the next [`Database::checkpoint`] (which, like the views, sees a
//! truncate-and-refill made there, or a closure that panicked, as the new
//! table incarnation it is).
//!
//! A logged mutation is **data first, applied once**.  Each of the public
//! mutators above only builds its `WalRecord` ([`Database::append_rows`]
//! transposes the caller's rows into column-major chunks to build its own —
//! the one time they change shape; what is logged, applied and replayed is
//! those chunks, and no row is built behind the API); `Database::commit` encodes,
//! frames and checksums it before any lock is taken, and the one function
//! `Database::apply` carries it out under the one locking discipline that
//! makes WAL order equal in-memory apply order — commit gate (read), then
//! the catalog lock, then the table's write lock, and the ready frame is
//! pushed onto the WAL queue before the table lock is released.  Recovery
//! replays the log through that same function, so a recovered table is the
//! committed table by construction rather than by a second implementation
//! kept equal by tests.  The checkpoint takes the gate in write mode, so
//! its manifest `(epoch, offset)` and its table snapshot agree exactly.

use crate::catalog::ModelCatalog;
use crate::chunk::{RowChunk, CHUNK_CAPACITY};
use crate::error::{EngineError, Result};
use crate::materialize::{AnyMaterialized, RebuildReason, ViewOutcome};
use crate::persist::{
    self, Durability, Manifest, ManifestSegment, ManifestTable, ManifestView, PersistState,
    TablePersist, WalRecord,
};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::{Distribution, Table};
use crate::wal::{self, Wal, WAL_HEADER_LEN};
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct CatalogEntry {
    table: Arc<RwLock<Table>>,
    is_temp: bool,
}

/// A registered materialized aggregate: the type-erased incremental state
/// plus the source table it watches.
struct ViewEntry {
    source: String,
    state: Arc<Mutex<Box<dyn AnyMaterialized>>>,
}

/// What [`Database::open`] / [`Database::recover`] did to bring a durable
/// database back, and what became of each view the manifest persisted
/// ([`Database::recovery_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Epoch of the manifest recovery started from; `None` for a directory
    /// that had none (a fresh database).
    pub manifest_epoch: Option<u64>,
    /// Tables the manifest held.
    pub tables_loaded: usize,
    /// Chunks those tables came back with: chunk-file frames plus the
    /// manifest's inline tails.
    pub chunks_loaded: usize,
    /// Chunk files cut back to their last counted frame (a checkpoint had
    /// crashed after appending to them), with the length each was cut to.
    pub chunk_file_cuts: Vec<(PathBuf, u64)>,
    /// Log records replayed over the snapshot.
    pub wal_frames_replayed: u64,
    /// Bytes of the log behind its last valid frame — a torn or corrupt
    /// tail — that recovery cut off.
    pub wal_bytes_discarded: u64,
    /// Wall time of reading the manifest and loading the tables.
    pub load_time: Duration,
    /// Wall time of replaying the log.
    pub replay_time: Duration,
    /// Every view the manifest persisted, sorted by name, with what became
    /// of it so far: [`RebuildReason::NeverAskedFor`] until a view of its
    /// name is registered, [`RebuildReason::DamagedFrame`] for a frame
    /// recovery had to drop.
    pub views: Vec<(String, ViewOutcome)>,
}

/// The durable database's recovery record and the persisted views no view
/// registration has used up yet.
#[derive(Default)]
pub(crate) struct Recovered {
    report: RecoveryReport,
    /// Persisted views by name, each stamped with the generation its source
    /// table had when it was loaded (see [`Database::register_view`]).
    pending: Vec<ManifestView>,
}

impl Recovered {
    fn set_outcome(&mut self, view: &str, outcome: ViewOutcome) {
        if let Some((_, slot)) = self.report.views.iter_mut().find(|(name, _)| name == view) {
            *slot = outcome;
        }
    }

    /// Offers the pending entry of `view`, if any, to `state` — a view of
    /// `source`, whose current contents are `table` — and records the
    /// outcome.  The entry is used up either way.
    fn offer(&mut self, view: &str, source: &str, state: &mut dyn AnyMaterialized, table: &Table) {
        let Some(at) = self.pending.iter().position(|p| p.name == view) else {
            return;
        };
        let pending = self.pending.swap_remove(at);
        let outcome = match pending.source == source {
            true => state.adopt(pending.image, table),
            false => Err(RebuildReason::Fingerprint),
        };
        let outcome = match outcome {
            Ok(suffix_rows) => ViewOutcome::Adopted { suffix_rows },
            Err(reason) => ViewOutcome::Rebuilt { reason },
        };
        self.set_outcome(view, outcome);
    }
}

/// An in-memory database: named tables partitioned across a configurable
/// number of segments.
#[derive(Clone)]
pub struct Database {
    inner: Arc<RwLock<HashMap<String, CatalogEntry>>>,
    views: Arc<RwLock<HashMap<String, ViewEntry>>>,
    models: ModelCatalog,
    temp_counter: Arc<AtomicU64>,
    /// Source of per-table lifecycle generations (see [`Table::generation`]);
    /// starts at 1 so generation 0 marks standalone, never-cataloged tables.
    generations: Arc<AtomicU64>,
    durability: Option<Arc<Durability>>,
    num_segments: usize,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("num_segments", &self.num_segments)
            .field("tables", &self.list_tables().len())
            .finish_non_exhaustive()
    }
}

/// Recovers a read guard from a poisoned lock: catalog and table mutations
/// cannot leave their data half-written, so propagating the panic as a
/// second panic would only lose information.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Locks a registered view.  A panic inside an earlier absorb may have
/// folded rows into the states without moving the watermark, so a poisoned
/// view is marked for rebuild — and neither trusted by its next absorb nor
/// persisted by a checkpoint — and the poison cleared.
fn lock_view(view: &Mutex<Box<dyn AnyMaterialized>>) -> MutexGuard<'_, Box<dyn AnyMaterialized>> {
    view.lock().unwrap_or_else(|poisoned| {
        view.clear_poison();
        let mut state = poisoned.into_inner();
        state.mark_needs_rebuild();
        state
    })
}

/// The table [`Database::with_table_mut`] hands its closure, stamped on the
/// way out — by the drop, so that an unwinding closure is covered too.
struct Restamp<'a> {
    table: RwLockWriteGuard<'a, Table>,
    database: &'a Database,
}

impl Drop for Restamp<'_> {
    fn drop(&mut self) {
        // A truncate (or a wholesale `*table = ...`) inside the closure left
        // the table unstamped, and a panic may have left it half mutated:
        // whatever the closure returned, the table now holds a new
        // incarnation that views and the next checkpoint must see as one.
        if self.table.generation() == 0 || std::thread::panicking() {
            self.table.set_generation(self.database.next_generation());
        }
    }
}

impl Database {
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, CatalogEntry>> {
        read_lock(&self.inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, CatalogEntry>> {
        write_lock(&self.inner)
    }

    /// Looks up a table's lock handle, holding the catalog lock only for the
    /// map probe.
    fn entry(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.read()
            .get(name)
            .map(|e| Arc::clone(&e.table))
            .ok_or_else(|| EngineError::TableNotFound {
                name: name.to_owned(),
            })
    }

    /// Creates a database whose tables default to `num_segments` partitions.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    pub fn new(num_segments: usize) -> Result<Self> {
        if num_segments == 0 {
            return Err(EngineError::InvalidSegmentCount { requested: 0 });
        }
        Ok(Self {
            inner: Arc::new(RwLock::new(HashMap::new())),
            views: Arc::new(RwLock::new(HashMap::new())),
            models: ModelCatalog::new(),
            temp_counter: Arc::new(AtomicU64::new(1)),
            generations: Arc::new(AtomicU64::new(1)),
            durability: None,
            num_segments,
        })
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed)
    }

    /// Catalogs `table` under `name`, stamped with a fresh lifecycle
    /// generation (returned), replacing any entry of that name.
    fn install(
        &self,
        catalog: &mut HashMap<String, CatalogEntry>,
        name: String,
        mut table: Table,
        is_temp: bool,
    ) -> u64 {
        let generation = self.next_generation();
        table.set_generation(generation);
        let table = Arc::new(RwLock::new(table));
        catalog.insert(name, CatalogEntry { table, is_temp });
        generation
    }

    /// An empty table over this database's segment count.
    fn empty_table(
        &self,
        schema: Schema,
        distribution: Distribution,
        chunk_capacity: u64,
    ) -> Result<Table> {
        Table::with_distribution(schema, self.num_segments, distribution)?
            .with_chunk_capacity(chunk_capacity as usize)
    }

    /// Commits one logged mutation.  The record is fully known up front —
    /// an `Append` arrives holding its rows as chunks already — so on a
    /// durable database it is encoded, framed and checksummed here, before
    /// any lock is taken; [`Database::apply`] carries it out and
    /// queues the ready frame; the wait for the group-commit fsync — the
    /// commit point — happens after every lock is released, so a committer
    /// waiting on the disk never blocks other traffic.  An in-memory
    /// database encodes nothing.  (Whether the target is a temp table is
    /// only known under the catalog lock, so an `append_rows` to a temp
    /// table of a *durable* database encodes a frame that is then dropped;
    /// no library, example or benchmark caller does that.)
    fn commit(&self, record: WalRecord) -> Result<()> {
        let Some(d) = &self.durability else {
            return self.apply(record, None, false).map(|_| ());
        };
        let mut frame = Vec::new();
        persist::put_frame(&mut frame, |out| persist::put_record(out, &record))?;
        match self.apply(record, Some(frame), false)? {
            Some(ticket) => d.wal.wait(ticket),
            None => Ok(()),
        }
    }

    /// Carries out one logged mutation — for the live call, which hands in
    /// the record's ready `frame` on a durable database, and for `replay`
    /// in [`Database::open`], which runs before durability is attached and
    /// so re-logs nothing.  The one implementation of the locking
    /// discipline: commit gate (read) → catalog lock → table write lock →
    /// existence check → check the whole batch (an `Append`'s chunks against
    /// the table's column types, before its first row is copied) → mutate →
    /// stamp the generation → push the frame onto the WAL queue *while the
    /// ordering lock is still held*, so WAL order always equals apply order.
    /// Create, register and drop change the catalog and hold its write lock
    /// throughout; append, truncate and replace hold its read lock only
    /// until they have the table's write lock.  Returns the ticket to wait
    /// on, if a frame was queued (never for a temp table).
    fn apply(
        &self,
        record: WalRecord,
        frame: Option<Vec<u8>>,
        replay: bool,
    ) -> Result<Option<wal::Ticket>> {
        // [`Database::checkpoint`] takes the gate for write, so its manifest
        // `(epoch, offset)` and its table snapshot agree exactly.
        let _gate = self.durability.as_ref().map(|d| read_lock(&d.gate));
        let name = record.target().to_owned();
        let wants_present = !matches!(
            record,
            WalRecord::CreateTable { .. } | WalRecord::PutTable { replace: false, .. }
        );
        // The one live/replay difference.  A live call fails on a missing or
        // already-present target; replay lets a create overwrite and skips
        // (`Ok(false)`) a mutation of a table its possibly partial log never
        // created — the committed prefix is what matters.
        let admit = |present: bool| {
            if present == wants_present || (replay && present) {
                Ok(true)
            } else if replay {
                Ok(false)
            } else if present {
                Err(EngineError::TableAlreadyExists { name: name.clone() })
            } else {
                Err(EngineError::TableNotFound { name: name.clone() })
            }
        };
        let log = |is_temp: bool| match (&self.durability, frame) {
            (Some(d), Some(frame)) if !is_temp => Some(d.wal.append(frame)),
            _ => None,
        };
        if !wants_present || matches!(record, WalRecord::DropTable { .. }) {
            let mut catalog = self.write();
            if !admit(catalog.contains_key(&name))? {
                return Ok(None);
            }
            let is_temp = match record {
                WalRecord::CreateTable {
                    schema,
                    distribution,
                    chunk_capacity,
                    ..
                } => {
                    let table = self.empty_table(schema, distribution, chunk_capacity)?;
                    self.install(&mut catalog, name, table, false);
                    false
                }
                WalRecord::PutTable { table, .. } => {
                    self.install(&mut catalog, name, table, false);
                    false
                }
                // The drop.  Taking the removed table's write lock under the
                // catalog write lock waits out any in-flight append, which
                // queues its frame before it releases the table — so the
                // drop's frame always follows it in the log.
                _ => catalog.remove(&name).is_some_and(|entry| {
                    let _table = write_lock(&entry.table);
                    entry.is_temp
                }),
            };
            return Ok(log(is_temp));
        }
        let catalog = self.read();
        let Some(entry) = catalog.get(&name) else {
            return admit(false).map(|_| None);
        };
        let is_temp = entry.is_temp;
        let handle = Arc::clone(&entry.table);
        // Taken under the catalog read lock, so no drop of this table can be
        // logged between this mutation and its log push.
        let mut table = write_lock(&handle);
        drop(catalog);
        match record {
            WalRecord::Append { chunks, .. } => {
                // A record must describe rows that all applied: the chunks
                // were transposed against a schema read before this lock, so
                // the append re-checks their column types against the table
                // as it is now, before it copies the first row.
                table.append_chunks(&chunks)?;
                return Ok(log(is_temp));
            }
            WalRecord::PutTable { table: new, .. } => *table = new,
            // The truncate.
            _ => table.truncate(),
        }
        // New contents under an old name: views and the next checkpoint must
        // not trust what they remember of the table.
        table.set_generation(self.next_generation());
        Ok(log(is_temp))
    }

    /// Default segment count for new tables.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// The database's model catalog: named, typed storage for trained models
    /// (single or per-group), shared by all clones of this handle exactly
    /// like the table catalog.
    pub fn models(&self) -> &ModelCatalog {
        &self.models
    }

    /// Creates an empty (regular) table.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.create_internal(name, schema, Distribution::RoundRobin, false, None)
    }

    /// Creates an empty table with an explicit distribution policy.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision or a
    /// distribution error.
    pub fn create_table_distributed(
        &self,
        name: &str,
        schema: Schema,
        distribution: Distribution,
    ) -> Result<()> {
        self.create_internal(name, schema, distribution, false, None)
    }

    /// Creates an empty table with an explicit rows-per-chunk capacity
    /// (default [`crate::chunk::CHUNK_CAPACITY`]).  Small capacities let
    /// tests and benchmarks exercise chunk-boundary behaviour — sealing,
    /// snapshot persistence, watermark advancement — with few rows; the
    /// capacity is logged and persisted, so recovery reproduces the same
    /// chunk layout.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision and
    /// [`EngineError::InvalidArgument`] for a zero capacity.
    pub fn create_table_with_chunk_capacity(
        &self,
        name: &str,
        schema: Schema,
        chunk_capacity: usize,
    ) -> Result<()> {
        self.create_internal(
            name,
            schema,
            Distribution::RoundRobin,
            false,
            Some(chunk_capacity),
        )
    }

    /// Creates an empty temp table (`CREATE TEMP TABLE`).  Temp tables behave
    /// exactly like regular tables but are dropped by
    /// [`Database::drop_temp_tables`], which method drivers call when an
    /// iteration completes.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn create_temp_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.create_internal(name, schema, Distribution::RoundRobin, true, None)
    }

    /// Creates an empty temp table under `base` or, when that name is taken,
    /// `base_<n>` for a database-wide monotonic counter `n` — returning the
    /// name actually used.  Probe and create happen under one catalog write
    /// lock, so concurrent callers (e.g. parallel per-group iterative fits
    /// sharing an iteration-state base name) always receive distinct tables.
    ///
    /// The counter advances monotonically and is never reused, so a burst of
    /// k concurrent fits costs O(k) probes total — the earlier
    /// `base_1, base_2, ...` linear re-probe was O(k²) across many live
    /// per-group iteration tables and could collide semantically with a
    /// same-named regular table that happened to end in `_<i>`.
    ///
    /// # Errors
    /// Propagates table-construction errors.
    pub fn create_unique_temp_table(&self, base: &str, schema: Schema) -> Result<String> {
        let mut catalog = self.write();
        let name = if catalog.contains_key(base) {
            loop {
                let n = self.temp_counter.fetch_add(1, Ordering::Relaxed);
                let candidate = format!("{base}_{n}");
                if !catalog.contains_key(&candidate) {
                    break candidate;
                }
            }
        } else {
            base.to_owned()
        };
        let table = self.empty_table(schema, Distribution::RoundRobin, CHUNK_CAPACITY as u64)?;
        self.install(&mut catalog, name.clone(), table, true);
        Ok(name)
    }

    /// A temp table is never logged, so it is installed directly; anything
    /// else is a `CreateTable` record.
    fn create_internal(
        &self,
        name: &str,
        schema: Schema,
        distribution: Distribution,
        is_temp: bool,
        chunk_capacity: Option<usize>,
    ) -> Result<()> {
        let chunk_capacity = chunk_capacity.unwrap_or(CHUNK_CAPACITY) as u64;
        if !is_temp {
            return self.commit(WalRecord::CreateTable {
                name: name.to_owned(),
                schema,
                distribution,
                chunk_capacity,
            });
        }
        let mut catalog = self.write();
        if catalog.contains_key(name) {
            return Err(EngineError::TableAlreadyExists {
                name: name.to_owned(),
            });
        }
        let table = self.empty_table(schema, distribution, chunk_capacity)?;
        self.install(&mut catalog, name.to_owned(), table, true);
        Ok(())
    }

    /// Registers an already-populated table under `name` (the programmatic
    /// equivalent of `CREATE TABLE ... AS SELECT`).
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.commit(WalRecord::PutTable {
            name: name.to_owned(),
            replace: false,
            table,
        })
    }

    /// Returns a snapshot of the named table.
    ///
    /// The snapshot is taken under the table's read lock and costs **one
    /// pointer per segment**, whatever the table holds: each segment's chunk
    /// list, and through it every chunk buffer, is shared with the cataloged
    /// table by `Arc` (pointer identity, no copy).  Appends committed after this call are invisible to the
    /// snapshot, and the snapshot outlives a later `drop_table` — see the
    /// module-level *Snapshot isolation* notes.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn table(&self, name: &str) -> Result<Table> {
        let entry = self.entry(name)?;
        let guard = read_lock(&entry);
        Ok(guard.clone())
    }

    /// Whether the named table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Lists table names (sorted) together with their temp status.
    pub fn list_tables(&self) -> Vec<(String, bool)> {
        let mut names: Vec<(String, bool)> = self
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.is_temp))
            .collect();
        names.sort();
        names
    }

    /// Applies a mutation to the named table in place (insert rows, truncate,
    /// etc.).
    ///
    /// Only the named table's own write lock is held while `mutate` runs —
    /// reads and writes of *other* tables proceed concurrently.
    ///
    /// A closure that truncates or replaces the table, and one that panics
    /// (leaving it possibly half mutated), hands it back as a new
    /// incarnation: views watching it rebuild, and the next checkpoint
    /// neither trusts the chunks it persisted of it nor persists a view of
    /// the old one.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name and
    /// propagates errors from the mutation closure.
    pub fn with_table_mut<T>(
        &self,
        name: &str,
        mutate: impl FnOnce(&mut Table) -> Result<T>,
    ) -> Result<T> {
        let entry = self.entry(name)?;
        let mut guard = Restamp {
            table: write_lock(&entry),
            database: self,
        };
        mutate(&mut guard.table)
    }

    /// Appends rows to the named table and advances every materialized
    /// aggregate registered on it (each absorbs exactly the newly appended
    /// rows via its chunk watermark — history is not rescanned).
    ///
    /// The rows cross into the engine **once**: they are transposed here,
    /// before any lock, against the table's schema into column-major chunks
    /// of at most its chunk capacity (`RowChunk::transpose` — values moved,
    /// not cloned; arity and types checked); those chunks are what the WAL
    /// record carries (in the chunk-file encoding), what the table appends
    /// (per-segment index runs into its tail chunks, the column types checked
    /// again under the table's lock) and what recovery replays.  The cost is
    /// the batch's: neither the insert, nor the snapshot the view absorb
    /// takes, nor the absorb grows with the table.
    ///
    /// The whole batch is one WAL record: recovery surfaces either all of
    /// these rows or none of them, never a partial batch.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name and the
    /// schema-validation error of the first row or value that does not fit
    /// (in which case nothing is applied, logged or absorbed).  When the
    /// insert commits but one or more views fail to absorb it, the rows
    /// **stay committed**, every failing view is marked for rebuild, and the
    /// error is [`EngineError::ViewAbsorbFailed`] naming them.
    pub fn append_rows(&self, name: &str, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let (schema, chunk_capacity) = {
            let entry = self.entry(name)?;
            let table = read_lock(&entry);
            (table.shared_schema(), table.chunk_capacity())
        };
        self.commit(WalRecord::Append {
            table: name.to_owned(),
            chunks: RowChunk::transpose(&schema, rows, chunk_capacity)?,
        })?;
        self.absorb_views_of(name)
    }

    /// Replaces the contents of the named table with `table` (the
    /// `CREATE TABLE AS SELECT` + `DROP TABLE` pattern the paper recommends
    /// over large `UPDATE`s in PostgreSQL, Section 4.3).  The table receives
    /// a fresh lifecycle generation, so views watching it rebuild instead of
    /// absorbing against watermarks that describe the old contents.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn replace_table(&self, name: &str, table: Table) -> Result<()> {
        self.commit(WalRecord::PutTable {
            name: name.to_owned(),
            replace: true,
            table,
        })
    }

    /// Removes every row from the named table, keeping schema, distribution
    /// and chunk capacity (SQL `TRUNCATE`).  The table receives a fresh
    /// lifecycle generation, so views watching it rebuild from the now-empty
    /// contents instead of treating their watermarks as still valid.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        self.commit(WalRecord::Truncate {
            table: name.to_owned(),
        })
    }

    /// Drops the named table.  Views watching it keep their state but fail
    /// with [`EngineError::TableNotFound`] on refresh; if a table of the same
    /// name is created later, its fresh generation forces those views to
    /// rebuild rather than absorb against stale watermarks.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.commit(WalRecord::DropTable {
            name: name.to_owned(),
        })
    }

    /// Drops all temp tables, returning how many were removed.
    pub fn drop_temp_tables(&self) -> usize {
        let mut catalog = self.write();
        let before = catalog.len();
        catalog.retain(|_, e| !e.is_temp);
        before - catalog.len()
    }

    /// Registers a materialized aggregate under `view`, watching `source`,
    /// replacing any previous view of the same name (`CREATE OR REPLACE`
    /// semantics, matching [`ModelCatalog::register`]).  The state should
    /// already have absorbed (or be about to absorb) the source's current
    /// contents; [`Database::refresh_view`] catches up either way.
    ///
    /// On a recovered database the first registration of a name the last
    /// checkpoint persisted a view under uses up that pending entry: it is
    /// offered to `state` ([`AnyMaterialized::adopt`]), which takes the
    /// persisted states when they are its own — same source, aggregate
    /// fingerprint, and a source table that is still the incarnation they
    /// describe (no truncate, replace or drop replayed
    /// since) — so that its first absorb catches up only the replayed rows.
    /// [`Database::recovery_report`] records what happened.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] when `source` does not exist.
    pub fn register_view(
        &self,
        view: &str,
        source: &str,
        mut state: Box<dyn AnyMaterialized>,
    ) -> Result<()> {
        let table = self.table(source)?;
        if let Some(d) = &self.durability {
            let mut recovered = d.recovered.lock().unwrap_or_else(|e| e.into_inner());
            recovered.offer(view, source, state.as_mut(), &table);
        }
        write_lock(&self.views).insert(
            view.to_owned(),
            ViewEntry {
                source: source.to_owned(),
                state: Arc::new(Mutex::new(state)),
            },
        );
        Ok(())
    }

    /// Whether a materialized view of this name exists.
    pub fn has_view(&self, view: &str) -> bool {
        read_lock(&self.views).contains_key(view)
    }

    /// Drops the named materialized view, returning whether it existed.
    pub fn drop_view(&self, view: &str) -> bool {
        write_lock(&self.views).remove(view).is_some()
    }

    /// Catches the named view up to its source table's current contents
    /// (absorbing only rows past its watermark) and hands the up-to-date
    /// state to `with`.
    ///
    /// # Errors
    /// Returns [`EngineError::ModelNotFound`] for an unknown view,
    /// [`EngineError::TableNotFound`] when the source table was dropped, and
    /// propagates absorb errors.
    pub fn refresh_view<T>(
        &self,
        view: &str,
        with: impl FnOnce(&mut dyn AnyMaterialized) -> Result<T>,
    ) -> Result<T> {
        let (source, state) = {
            let views = read_lock(&self.views);
            let entry = views.get(view).ok_or_else(|| EngineError::ModelNotFound {
                name: view.to_owned(),
                group: None,
            })?;
            (entry.source.clone(), Arc::clone(&entry.state))
        };
        let snapshot = self.table(&source)?;
        let mut guard = lock_view(&state);
        guard.absorb(&snapshot)?;
        with(guard.as_mut())
    }

    /// Absorbs the current contents of `table` into every view registered on
    /// it (called by [`Database::append_rows`] after the insert commits).
    ///
    /// The insert is already committed when this runs, so one view's failure
    /// must not abort the others: every view gets its absorb attempt, each
    /// failing view is marked needing rebuild (its next absorb starts from
    /// scratch), and the collected failures come back as a single
    /// [`EngineError::ViewAbsorbFailed`].
    fn absorb_views_of(&self, table: &str) -> Result<()> {
        type SharedView = Arc<Mutex<Box<dyn AnyMaterialized>>>;
        let mut watching: Vec<(String, SharedView)> = read_lock(&self.views)
            .iter()
            .filter(|(_, e)| e.source == table)
            .map(|(name, e)| (name.clone(), Arc::clone(&e.state)))
            .collect();
        if watching.is_empty() {
            return Ok(());
        }
        watching.sort_by(|a, b| a.0.cmp(&b.0));
        let snapshot = match self.table(table) {
            Ok(s) => s,
            // The table vanished between the append and this absorb
            // (concurrent drop): views catch up — or rebuild — on their next
            // refresh against whatever table then exists.
            Err(EngineError::TableNotFound { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut failures = Vec::new();
        for (view, state) in watching {
            let mut guard = lock_view(&state);
            if let Err(e) = guard.absorb(&snapshot) {
                guard.mark_needs_rebuild();
                failures.push((view, e.to_string()));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(EngineError::ViewAbsorbFailed {
                table: table.to_owned(),
                failures,
            })
        }
    }

    // -----------------------------------------------------------------------
    // Durability: open / recover / checkpoint
    // -----------------------------------------------------------------------

    /// Opens (or creates) a durable database rooted at `dir`.
    ///
    /// A fresh directory is initialized with an empty manifest — written
    /// *before* the WAL, so the segment count is always recoverable — and an
    /// empty log.  An existing directory is recovered first: the latest
    /// snapshot is loaded and the committed WAL tail replayed over it, so the
    /// returned handle reflects exactly the acknowledged commits (a torn tail
    /// beyond the committed prefix is truncated).  `num_segments` applies
    /// only to a fresh directory; reopening uses the persisted value.
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] on I/O failure, a corrupt manifest or
    /// chunk file, a manifest or log of another format version, a log record
    /// this build cannot apply, or a WAL epoch that is neither the manifest's
    /// nor its successor — each leaves the directory exactly as it was found
    /// — and [`EngineError::InvalidSegmentCount`] for `num_segments == 0` on
    /// a fresh directory.
    pub fn open(dir: impl AsRef<Path>, num_segments: usize) -> Result<Self> {
        let dir = dir.as_ref();
        let started = Instant::now();
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::storage("create database directory", e))?;
        Self::open_from(dir, persist::read_manifest(dir)?, num_segments, started)
    }

    /// [`Database::open`] behind the manifest read, which
    /// [`Database::recover`] has already done to know a database exists
    /// (`started` is when it began).  No file of an existing database is
    /// modified until the snapshot has loaded and every log record has
    /// decoded and applied: a refused directory is left exactly as found.
    fn open_from(
        dir: &Path,
        mut manifest: Option<Manifest>,
        num_segments: usize,
        started: Instant,
    ) -> Result<Self> {
        let wal_file = persist::wal_path(dir);
        let log = wal::read_log(&wal_file)?;

        let db_segments = manifest
            .as_ref()
            .map_or(num_segments, |m| m.num_segments as usize);
        let mut db = Self::new(db_segments)?;

        // Rebuild tables from the snapshot.
        let mut persist_tables = HashMap::new();
        let mut next_file_id = 1;
        let mut cuts = Vec::new();
        let mut recovered = Recovered::default();
        let report = &mut recovered.report;
        if let Some(m) = &mut manifest {
            next_file_id = m.next_file_id;
            report.manifest_epoch = Some(m.epoch);
            report.tables_loaded = m.tables.len();
            for t in &mut m.tables {
                let table = persist::load_table(dir, t, &mut cuts)?;
                report.chunks_loaded += (0..table.num_segments())
                    .map(|seg| table.segment(seg).chunks().len())
                    .sum::<usize>();
                let generation = db.install(&mut db.write(), t.name.clone(), table, false);
                persist_tables.insert(
                    t.name.clone(),
                    TablePersist {
                        file_id: t.file_id,
                        generation,
                        persisted: t.segments.iter().map(|s| s.persisted_chunks).collect(),
                    },
                );
            }
            // A persisted view describes its source as this manifest holds
            // it, so it is stamped with the generation that table was just
            // installed under.  A replayed truncate, replace or drop of the
            // table stamps the table anew, and adoption then refuses it.
            for mut view in std::mem::take(&mut m.views) {
                let Some(source) = persist_tables.get(&view.source) else {
                    m.damaged_views.push(view.name);
                    continue;
                };
                view.image.generation = source.generation;
                let outcome = ViewOutcome::Rebuilt {
                    reason: RebuildReason::NeverAskedFor,
                };
                report.views.push((view.name.clone(), outcome));
                recovered.pending.push(view);
            }
            let damaged = m.damaged_views.drain(..).map(|name| {
                let reason = RebuildReason::DamagedFrame;
                (name, ViewOutcome::Rebuilt { reason })
            });
            report.views.extend(damaged);
            report.views.sort_by(|a, b| a.0.cmp(&b.0));
        }
        report.load_time = started.elapsed();

        // Decide the log's epoch and replay offset from the (manifest,
        // WAL-header) epoch pair — see `crate::persist` for why exactly two
        // epochs are acceptable.  Without a usable log the offset is moot.
        let (epoch, replay_from) = match (&manifest, log.as_ref().map(|log| log.epoch)) {
            // Fresh directory: record the segment count durably before the
            // WAL exists.
            (None, None) => {
                persist::write_manifest(
                    dir,
                    &Manifest {
                        epoch: 0,
                        wal_offset: WAL_HEADER_LEN,
                        num_segments: db_segments as u64,
                        next_file_id: 1,
                        tables: Vec::new(),
                        views: Vec::new(),
                        damaged_views: Vec::new(),
                    },
                )?;
                (1, WAL_HEADER_LEN)
            }
            // A log without a manifest: nothing was ever checkpointed (the
            // manifest this directory was initialized with is gone); replay
            // everything the log holds.
            (None, Some(epoch)) => (epoch, WAL_HEADER_LEN),
            // Manifest but no usable log: the crash hit between manifest
            // install and WAL reset — or the header itself was corrupted, in
            // which case nothing in the file can be trusted.  Snapshot-only
            // recovery with a fresh log at the successor epoch.
            (Some(m), None) => (m.epoch + 1, WAL_HEADER_LEN),
            // Checkpoint manifest installed, WAL not yet reset: replay from
            // the recorded offset.
            (Some(m), Some(epoch)) if epoch == m.epoch => (epoch, m.wal_offset),
            // Post-reset log: replay it in full.
            (Some(m), Some(epoch)) if epoch == m.epoch + 1 => (epoch, WAL_HEADER_LEN),
            (Some(m), Some(epoch)) => {
                return Err(EngineError::Storage {
                    message: format!(
                        "wal epoch {epoch} matches neither manifest epoch {} nor its successor",
                        m.epoch
                    ),
                });
            }
        };
        // Replay the committed tail, frame by frame as it is read, through
        // the function that applied it the first time; durability is not
        // attached yet, so nothing is re-logged.
        let replay_started = Instant::now();
        let mut replayed = 0;
        let valid_len = log
            .map(|log| {
                let log_len = log.len();
                let valid_len = log.replay(replay_from, |payload| {
                    replayed += 1;
                    let record = persist::decode_record(payload)?;
                    db.apply(record, None, true).map(|_| ())
                })?;
                recovered.report.wal_bytes_discarded = log_len.saturating_sub(valid_len);
                Ok::<_, EngineError>(valid_len)
            })
            .transpose()?;
        recovered.report.wal_frames_replayed = replayed;
        recovered.report.replay_time = replay_started.elapsed();
        // Every file has been read and every record applied; only now are
        // the frames of a crashed checkpoint and the log's torn tail cut.
        cuts.iter().try_for_each(persist::cut_chunk_file)?;
        recovered.report.chunk_file_cuts = cuts;
        let wal = match valid_len {
            Some(valid_len) => Wal::resume(&wal_file, epoch, valid_len)?,
            None => Wal::create(&wal_file, epoch)?,
        };

        db.durability = Some(Arc::new(Durability {
            dir: dir.to_path_buf(),
            wal,
            gate: RwLock::new(()),
            persist: Mutex::new(PersistState {
                next_file_id,
                tables: persist_tables,
            }),
            recovered: Mutex::new(recovered),
        }));
        Ok(db)
    }

    /// Recovers an **existing** durable database from `dir`, refusing to
    /// create one: the directory must hold a manifest (every
    /// [`Database::open`] installs one before its first WAL write).
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] when no database exists at `dir`, and
    /// everything [`Database::open`] can return otherwise.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let started = Instant::now();
        match persist::read_manifest(dir)? {
            Some(manifest) => Self::open_from(dir, Some(manifest), 1, started),
            None => Err(EngineError::Storage {
                message: format!("no database at {}: missing manifest", dir.display()),
            }),
        }
    }

    /// Writes a checkpoint: flushes the WAL, appends every newly sealed
    /// chunk to its segment's snapshot file (each sealed chunk is written
    /// exactly once across the database's lifetime), installs a manifest
    /// describing the result, and resets the WAL to a fresh epoch.  Logged
    /// mutations are excluded for the duration via the commit gate; pure
    /// reads proceed.  Returns the number of chunks newly written.
    ///
    /// A chunk is treated as sealed only once a successor chunk exists: the
    /// last chunk of each segment — even a full one — stays inline in the
    /// manifest, because only a successor proves it immutable and the
    /// snapshot files are strictly append-only.
    ///
    /// The manifest also carries every registered view that is safe to
    /// persist: its source is a non-temp table of this checkpoint, its
    /// aggregate has a state codec and the view is neither filtered nor
    /// grouped ([`AnyMaterialized::image`]), and its states describe a prefix
    /// of the snapshot — the same table incarnation, no watermark past the
    /// snapshot's rows.  Other views are skipped and rebuild after a
    /// restart.  A pending entry recovery loaded that no registration has
    /// asked for yet is carried forward when its source is still the
    /// incarnation it describes, and dropped otherwise (its view then
    /// rebuilds, [`RebuildReason::Generation`]).
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] on a non-durable database or on I/O
    /// failure.
    pub fn checkpoint(&self) -> Result<usize> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| EngineError::Storage {
                message: "checkpoint on a non-durable database".to_owned(),
            })?;
        let _gate = write_lock(&d.gate);
        d.wal.flush_all()?;
        let epoch = d.wal.epoch();
        let wal_offset = d.wal.durable_len();

        // Snapshot every non-temp table under its read lock, sorted for a
        // deterministic manifest.  Snapshots are cheap: sealed chunks are
        // shared by `Arc`.
        let snapshots: Vec<(String, Table)> = {
            let catalog = self.read();
            let mut v: Vec<(String, Table)> = catalog
                .iter()
                .filter(|(_, e)| !e.is_temp)
                .map(|(name, e)| (name.clone(), read_lock(&e.table).clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };

        let mut state = d.persist.lock().unwrap_or_else(|e| e.into_inner());
        let PersistState {
            next_file_id,
            tables: persisted_tables,
        } = &mut *state;
        // Chunk files are deleted only *after* the new manifest is
        // installed: the old manifest may still reference them, and a crash
        // before install must recover from it.
        let mut obsolete: Vec<(u64, usize)> = Vec::new();
        let live: std::collections::HashSet<&str> =
            snapshots.iter().map(|(n, _)| n.as_str()).collect();
        persisted_tables.retain(|name, tp| {
            let keep = live.contains(name.as_str());
            if !keep {
                obsolete.push((tp.file_id, tp.persisted.len()));
            }
            keep
        });

        let mut written = 0;
        let mut manifest_tables = Vec::with_capacity(snapshots.len());
        for (name, table) in &snapshots {
            let generation = table.generation();
            let num_segs = table.num_segments();
            // A fresh chunk-file id: for a new table, or one whose contents
            // were replaced or truncated since the last checkpoint, so that
            // the persisted prefix no longer describes it.
            let mut fresh = || {
                *next_file_id += 1;
                TablePersist {
                    file_id: *next_file_id - 1,
                    generation,
                    persisted: vec![0; num_segs],
                }
            };
            let tp = match persisted_tables.entry(name.clone()) {
                Entry::Vacant(slot) => slot.insert(fresh()),
                Entry::Occupied(slot) => {
                    let tp = slot.into_mut();
                    if tp.generation != generation || tp.persisted.len() != num_segs {
                        obsolete.push((tp.file_id, tp.persisted.len()));
                        *tp = fresh();
                    }
                    tp
                }
            };
            let mut seg_manifests = Vec::with_capacity(num_segs);
            for seg in 0..num_segs {
                let chunks = table.segment(seg).chunks();
                let sealed = chunks.len().saturating_sub(1);
                let already = tp.persisted[seg] as usize;
                if sealed > already {
                    let path = persist::chunk_path(&d.dir, tp.file_id, seg);
                    if already == 0 {
                        persist::clear_chunk_file(&path)?;
                    }
                    persist::append_chunks(&path, &chunks[already..sealed])?;
                    written += sealed - already;
                    tp.persisted[seg] = sealed as u64;
                }
                seg_manifests.push(ManifestSegment {
                    persisted_chunks: sealed as u64,
                    tail: chunks.last().map(|c| (**c).clone()),
                });
            }
            manifest_tables.push(ManifestTable {
                name: name.clone(),
                file_id: tp.file_id,
                schema: table.schema().clone(),
                distribution: table.distribution().clone(),
                chunk_capacity: table.chunk_capacity() as u64,
                next_round_robin: table.next_round_robin() as u64,
                segments: seg_manifests,
            });
        }

        persist::write_manifest(
            &d.dir,
            &Manifest {
                epoch,
                wal_offset,
                num_segments: self.num_segments as u64,
                next_file_id: *next_file_id,
                tables: manifest_tables,
                views: self.persistable_views(d, &snapshots),
                damaged_views: Vec::new(),
            },
        )?;
        for (file_id, num_segs) in obsolete {
            persist::delete_chunk_files(&d.dir, file_id, num_segs);
        }
        d.wal.reset(epoch + 1)?;
        Ok(written)
    }

    /// The views a checkpoint over `snapshots` persists, sorted by name:
    /// every registered view safe to persist (see [`Database::checkpoint`])
    /// and every pending entry still valid.  Runs under the commit gate, so
    /// no logged mutation applies between the snapshots and the views; a
    /// view's absorb only ever reads snapshots taken before, so its
    /// watermarks lie inside the snapshot unless an unlogged
    /// [`Database::with_table_mut`] append raced the checkpoint — which
    /// [`crate::materialize::ViewImage::fits`] catches.
    fn persistable_views(
        &self,
        d: &Durability,
        snapshots: &[(String, Table)],
    ) -> Vec<ManifestView> {
        let tables: HashMap<&str, &Table> =
            snapshots.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let mut views: Vec<ManifestView> = read_lock(&self.views)
            .iter()
            .filter_map(|(name, entry)| {
                let table = tables.get(entry.source.as_str())?;
                let state = lock_view(&entry.state);
                let image = state.image().filter(|image| image.fits(table))?;
                Some(ManifestView {
                    name: name.clone(),
                    source: entry.source.clone(),
                    image,
                })
            })
            .collect();
        let mut recovered = d.recovered.lock().unwrap_or_else(|e| e.into_inner());
        let (valid, stale): (Vec<_>, Vec<_>) = std::mem::take(&mut recovered.pending)
            .into_iter()
            .partition(|view| {
                let source = tables.get(view.source.as_str());
                source.is_some_and(|table| view.image.fits(table))
            });
        for view in stale {
            let reason = RebuildReason::Generation;
            recovered.set_outcome(&view.name, ViewOutcome::Rebuilt { reason });
        }
        views.extend(valid.iter().cloned());
        recovered.pending = valid;
        views.sort_by(|a, b| a.name.cmp(&b.name));
        views
    }

    /// What recovery did to bring this durable database back — manifest
    /// epoch, tables and chunks loaded, chunk files cut, log frames replayed
    /// and bytes discarded, time spent loading and replaying — and what has
    /// become of each view the manifest persisted.  `None` for an in-memory
    /// database.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let d = self.durability.as_ref()?;
        let recovered = d.recovered.lock().unwrap_or_else(|e| e.into_inner());
        Some(recovered.report.clone())
    }

    /// Whether this database is backed by a durable directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The backing directory of a durable database.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Bytes of write-ahead log durably on disk (header included); `None`
    /// when not durable.  Useful to tests and benchmarks that crash-inject
    /// at byte offsets or measure recovery time against WAL length.
    pub fn wal_durable_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.durable_len())
    }

    /// Enables or disables group commit (enabled by default).  Disabled,
    /// every committer pays its own fsync — the baseline the durability
    /// benchmark compares against.  No-op on a non-durable database.
    pub fn set_group_commit(&self, enabled: bool) {
        if let Some(d) = &self.durability {
            d.wal.set_group_commit(enabled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ])
    }

    #[test]
    fn create_insert_read() {
        let db = Database::new(4).unwrap();
        db.create_table("data", schema()).unwrap();
        assert!(db.has_table("data"));
        db.with_table_mut("data", |t| {
            t.insert(row![1i64, 2.0])?;
            t.insert(row![2i64, 3.0])
        })
        .unwrap();
        let t = db.table("data").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.num_segments(), 4);
        assert_eq!(db.num_segments(), 4);
    }

    #[test]
    fn duplicate_and_missing_names() {
        let db = Database::new(2).unwrap();
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("t", schema()),
            Err(EngineError::TableAlreadyExists { .. })
        ));
        assert!(matches!(
            db.table("missing"),
            Err(EngineError::TableNotFound { .. })
        ));
        assert!(db.drop_table("missing").is_err());
        assert!(db.with_table_mut("missing", |_| Ok(())).is_err());
        assert!(db
            .replace_table("missing", Table::new(schema(), 1).unwrap())
            .is_err());
        assert!(Database::new(0).is_err());
    }

    #[test]
    fn temp_tables_are_dropped_together() {
        let db = Database::new(2).unwrap();
        db.create_table("keep", schema()).unwrap();
        db.create_temp_table("iter_state_1", schema()).unwrap();
        db.create_temp_table("iter_state_2", schema()).unwrap();
        assert_eq!(db.list_tables().len(), 3);
        assert_eq!(db.drop_temp_tables(), 2);
        assert!(db.has_table("keep"));
        assert!(!db.has_table("iter_state_1"));
    }

    #[test]
    fn register_and_replace() {
        let db = Database::new(3).unwrap();
        let mut t = Table::new(schema(), 3).unwrap();
        t.insert(row![1i64, 1.0]).unwrap();
        db.register_table("snapshot", t.clone()).unwrap();
        assert!(db.register_table("snapshot", t).is_err());
        assert_eq!(db.table("snapshot").unwrap().row_count(), 1);

        let replacement = Table::new(schema(), 3).unwrap();
        db.replace_table("snapshot", replacement).unwrap();
        assert_eq!(db.table("snapshot").unwrap().row_count(), 0);
    }

    #[test]
    fn list_tables_sorted_with_temp_flag() {
        let db = Database::new(1).unwrap();
        db.create_table("zeta", schema()).unwrap();
        db.create_temp_table("alpha", schema()).unwrap();
        let listing = db.list_tables();
        assert_eq!(listing[0], ("alpha".to_owned(), true));
        assert_eq!(listing[1], ("zeta".to_owned(), false));
    }

    #[test]
    fn database_is_cheaply_cloneable_and_shared() {
        let db = Database::new(2).unwrap();
        db.create_table("shared", schema()).unwrap();
        let db2 = db.clone();
        db2.with_table_mut("shared", |t| t.insert(row![1i64, 1.0]))
            .unwrap();
        assert_eq!(db.table("shared").unwrap().row_count(), 1);
    }

    /// Snapshots share sealed chunk buffers with the cataloged table by
    /// pointer identity — no copy — while the open tail chunk is
    /// copy-on-write: appending after the snapshot un-shares only the tail.
    #[test]
    fn snapshot_shares_sealed_chunks_by_pointer() {
        let db = Database::new(1).unwrap();
        let mut t = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(4)
            .unwrap();
        for i in 0..10 {
            t.insert(row![i as i64, i as f64]).unwrap();
        }
        db.register_table("data", t).unwrap();

        let snap = db.table("data").unwrap();
        let live = db.table("data").unwrap();
        // 10 rows at capacity 4 → chunks of 4, 4, 2: two sealed + open tail.
        let a = snap.segment(0).chunks();
        let b = live.segment(0).chunks();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(Arc::ptr_eq(x, y), "snapshot must share chunk buffers");
        }

        // An append after the snapshot is invisible to it and un-shares
        // only the tail chunk.
        db.with_table_mut("data", |t| t.insert(row![99i64, 99.0]))
            .unwrap();
        assert_eq!(snap.row_count(), 10);
        let after = db.table("data").unwrap();
        let c = after.segment(0).chunks();
        assert!(Arc::ptr_eq(&a[0], &c[0]));
        assert!(Arc::ptr_eq(&a[1], &c[1]));
        assert!(
            !Arc::ptr_eq(&a[2], &c[2]),
            "tail chunk must be copy-on-write"
        );
        assert_eq!(a[2].len(), 2);
        assert_eq!(c[2].len(), 3);
    }

    /// A snapshot is one pointer per segment: two snapshots with no append
    /// between them share the segment's chunk *list*, not only its chunks;
    /// and a snapshot held across appends keeps its own list — exactly its
    /// rows, its sealed chunks by pointer — while later snapshots see the
    /// table grow.
    #[test]
    fn snapshots_share_the_chunk_list_until_an_append_copies_it() {
        let db = Database::new(2).unwrap();
        db.create_table_with_chunk_capacity("data", schema(), 2)
            .unwrap();
        db.append_rows("data", (0..9).map(|i| row![i as i64, i as f64]))
            .unwrap();
        let list = |t: &Table, s: usize| t.segment(s).chunks().as_ptr();

        let held = db.table("data").unwrap();
        let again = db.table("data").unwrap();
        for s in 0..2 {
            assert_eq!(list(&held, s), list(&again, s), "segment {s}");
        }
        drop(again);
        let rows_then = held.collect_rows();
        let chunks_then: Vec<Vec<Arc<RowChunk>>> =
            (0..2).map(|s| held.segment(s).chunks().to_vec()).collect();

        // Appends under a live snapshot copy the list once, never the
        // snapshot's view of it.
        for batch in 0..3 {
            db.append_rows("data", (0..5).map(|i| row![100 + batch, i as f64]))
                .unwrap();
        }
        assert_eq!(held.row_count(), 9);
        assert_eq!(held.collect_rows(), rows_then);
        let now = db.table("data").unwrap();
        assert_eq!(now.row_count(), 24);
        for (s, chunks) in chunks_then.iter().enumerate() {
            assert_ne!(list(&held, s), list(&now, s));
            assert_eq!(held.segment(s).chunks().len(), chunks.len());
            let sealed = chunks.len() - 1;
            for (k, chunk) in chunks.iter().enumerate() {
                assert!(Arc::ptr_eq(chunk, &held.segment(s).chunks()[k]));
                // The table still shares what was sealed; the tail it wrote
                // to is its own copy.
                let shared = Arc::ptr_eq(chunk, &now.segment(s).chunks()[k]);
                assert_eq!(
                    shared,
                    k < sealed || chunk.len() == 2,
                    "segment {s} chunk {k}"
                );
            }
        }
    }

    /// The cost of an append — its insert, its absorb into a registered
    /// view, the snapshots both take — is a function of the batch, not of
    /// the table: at chunk capacity 1 (every row a chunk) an append into
    /// 16 384 chunks costs what one into 64 does.  A snapshot used to copy
    /// one pointer per chunk, twice per append, which made the large table's
    /// append tens of times the small one's.  Timed in release builds only.
    #[test]
    fn append_cost_does_not_grow_with_the_table() {
        let append_min_ns = |chunks: usize| {
            let db = Database::new(1).unwrap();
            db.create_table_with_chunk_capacity("t", schema(), 1)
                .unwrap();
            db.append_rows("t", (0..chunks).map(|i| row![i as i64, i as f64]))
                .unwrap();
            db.register_view("n", "t", Box::new(count_view(&db)))
                .unwrap();
            assert_eq!(finalize_count(&db, "n").unwrap(), chunks as u64);
            let timed = (0..200).map(|i| {
                let batch = [row![i as i64, 0.5]];
                let started = std::time::Instant::now();
                db.append_rows("t", batch).unwrap();
                started.elapsed().as_nanos()
            });
            let best = timed.min().expect("200 appends");
            assert_eq!(finalize_count(&db, "n").unwrap(), chunks as u64 + 200);
            assert_eq!(
                db.table("t").unwrap().segment(0).chunks().len(),
                chunks + 200
            );
            best
        };
        let (small, large) = (append_min_ns(64), append_min_ns(16_384));
        if !cfg!(debug_assertions) {
            assert!(
                large <= 8 * small,
                "an append into 16 384 chunks took {large} ns, into 64 chunks {small} ns"
            );
        }
    }

    /// A long-running mutation of table A must not block a snapshot read of
    /// unrelated table B (per-table locks, not a catalog-wide write lock).
    #[test]
    fn append_to_one_table_does_not_block_scans_of_another() {
        use std::sync::mpsc;
        use std::time::Duration;

        let db = Database::new(2).unwrap();
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.with_table_mut("b", |t| t.insert(row![1i64, 1.0]))
            .unwrap();

        // Holds table A's write lock until told to release.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let db_writer = db.clone();
        let writer = std::thread::spawn(move || {
            db_writer
                .with_table_mut("a", |t| {
                    entered_tx.send(()).unwrap();
                    release_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("released");
                    t.insert(row![2i64, 2.0])
                })
                .unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("writer entered closure");

        // With table A mid-append, a scan of table B must complete.
        let (scanned_tx, scanned_rx) = mpsc::channel();
        let db_reader = db.clone();
        let reader = std::thread::spawn(move || {
            let rows = db_reader.table("b").unwrap().row_count();
            scanned_tx.send(rows).unwrap();
        });
        let rows = scanned_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("scan of b must not wait on a's append");
        assert_eq!(rows, 1);
        reader.join().unwrap();

        release_tx.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(db.table("a").unwrap().row_count(), 1);
    }

    /// The unique-temp-table counter is monotonic: names never repeat, a
    /// same-named regular table is never shadowed, and concurrent callers
    /// (the shape of parallel per-group IRLS fits sharing a state base name)
    /// all receive distinct tables.
    #[test]
    fn unique_temp_tables_under_concurrency() {
        let db = Database::new(1).unwrap();
        db.create_table("iter_state", schema()).unwrap();

        let names: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let db = db.clone();
                    scope.spawn(move || {
                        (0..16)
                            .map(|_| db.create_unique_temp_table("iter_state", schema()).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut unique: std::collections::HashSet<&str> =
            names.iter().map(String::as_str).collect();
        assert_eq!(unique.len(), names.len(), "temp names must be distinct");
        unique.insert("iter_state");
        assert_eq!(unique.len(), names.len() + 1, "base name never reused");
        // Dropping the temps leaves the regular table untouched.
        assert_eq!(db.drop_temp_tables(), names.len());
        assert!(db.has_table("iter_state"));
    }

    use crate::aggregate::{Aggregate, CountAggregate, SumAggregate};
    use crate::executor::Executor;
    use crate::materialize::MaterializedAggregate;

    fn count_view(db: &Database) -> MaterializedAggregate<CountAggregate> {
        let _ = db;
        MaterializedAggregate::new(CountAggregate, &Executor::new())
    }

    fn finalize_count(db: &Database, view: &str) -> Result<u64> {
        db.refresh_view(view, |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<CountAggregate>>()
                .expect("count view")
                .finalize()
        })
    }

    fn sum_view() -> MaterializedAggregate<SumAggregate> {
        MaterializedAggregate::new(SumAggregate::new("v"), &Executor::new())
    }

    fn finalize_sum(db: &Database, view: &str) -> Result<f64> {
        db.refresh_view(view, |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<SumAggregate>>()
                .expect("sum view")
                .finalize()
        })
    }

    /// Dropping a table and recreating the same name with **at least as many
    /// chunks** used to make views fold the new table's suffix onto the old
    /// table's partial states: the watermark's chunk counts still "fit", so
    /// shrink detection alone cannot tell the incarnations apart (a count
    /// view would even return the right number by accident — the sum exposes
    /// the fold of new-suffix values onto old partial states).  The
    /// generation check must force a rebuild instead.
    #[test]
    fn view_rebuilds_after_drop_and_recreate_same_name() {
        let db = Database::new(1).unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (0..4).map(|i| row![i, i as f64]))
            .unwrap();
        db.register_view("v_sum", "events", Box::new(sum_view()))
            .unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 6.0);

        // Recreate under the same name with MORE rows (and thus ≥ chunks)
        // and different values.
        db.drop_table("events").unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (10..16).map(|i| row![i, i as f64]))
            .unwrap();
        assert_eq!(
            finalize_sum(&db, "v_sum").unwrap(),
            75.0,
            "view must rebuild against the new incarnation, not fold its \
             suffix onto the old table's partial sums"
        );
    }

    /// `replace_table` with equal or greater chunk counts is the same trap:
    /// the replacement's fresh generation must trigger a rebuild.
    #[test]
    fn view_rebuilds_after_replace_with_equal_or_more_chunks() {
        let db = Database::new(1).unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (0..4).map(|i| row![i, i as f64]))
            .unwrap();
        db.register_view("v_sum", "events", Box::new(sum_view()))
            .unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 6.0);

        // Equal chunk layout (same row count), different contents: nothing
        // sits past the watermark, so a stale view would keep the old sum.
        let mut equal = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(2)
            .unwrap();
        for i in 100..104 {
            equal.insert(row![i, i as f64]).unwrap();
        }
        db.replace_table("events", equal).unwrap();
        assert_eq!(
            finalize_sum(&db, "v_sum").unwrap(),
            406.0,
            "equal-layout replacement must rebuild, not keep the stale sum"
        );

        // Greater chunk count.
        let mut bigger = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(2)
            .unwrap();
        for i in 0..10 {
            bigger.insert(row![i, i as f64]).unwrap();
        }
        db.replace_table("events", bigger).unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 45.0);
    }

    /// `truncate_table` bumps the generation too.
    #[test]
    fn view_rebuilds_after_truncate_table() {
        let db = Database::new(2).unwrap();
        db.create_table("events", schema()).unwrap();
        db.append_rows("events", (0..5).map(|i| row![i as i64, i as f64]))
            .unwrap();
        db.register_view("n", "events", Box::new(count_view(&db)))
            .unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 5);
        db.truncate_table("events").unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 0);
        db.append_rows("events", (0..3).map(|i| row![i as i64, i as f64]))
            .unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 3);
    }

    /// A truncate-and-refill through `with_table_mut` is a new incarnation
    /// too, even with equal chunk counts (nothing sits past the watermark,
    /// so a stale view would keep the old sum): `Table::truncate` leaves the
    /// table unstamped and `with_table_mut` stamps it on the way out.
    #[test]
    fn view_rebuilds_after_refill_through_with_table_mut() {
        let db = Database::new(1).unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (0..4).map(|i| row![i, i as f64]))
            .unwrap();
        db.register_view("v_sum", "events", Box::new(sum_view()))
            .unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 6.0);
        let before = db.table("events").unwrap().generation();

        db.with_table_mut("events", |t| {
            t.truncate();
            t.insert_all((100..104).map(|i| row![i, i as f64]))
        })
        .unwrap();
        assert_ne!(db.table("events").unwrap().generation(), before);
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 406.0);

        // The stamp does not depend on what the closure returned.
        let before = db.table("events").unwrap().generation();
        db.with_table_mut("events", |t| -> Result<()> {
            t.truncate();
            Err(EngineError::invalid("gave up after truncating"))
        })
        .unwrap_err();
        assert_ne!(db.table("events").unwrap().generation(), before);
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 0.0);
        // A plain insert is not a new incarnation.
        let before = db.table("events").unwrap().generation();
        db.with_table_mut("events", |t| t.insert(row![7i64, 7.0]))
            .unwrap();
        assert_eq!(db.table("events").unwrap().generation(), before);
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 7.0);
    }

    /// A counting aggregate that refuses rows whose `v` equals the poison
    /// value — the deliberately failing view of the append-rows contract.
    #[derive(Clone)]
    struct PoisonAggregate;

    impl Aggregate for PoisonAggregate {
        type State = u64;
        type Output = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn transition(&self, state: &mut u64, row: &Row, schema: &Schema) -> Result<()> {
            let idx = schema.index_of("v")?;
            if row.get(idx) == &crate::value::Value::Double(13.0) {
                return Err(EngineError::invalid("poison row"));
            }
            *state += 1;
            Ok(())
        }

        fn transition_chunk(
            &self,
            state: &mut u64,
            chunk: &RowChunk,
            schema: &Schema,
        ) -> Result<()> {
            crate::aggregate::transition_chunk_by_rows(self, state, chunk, schema)
        }

        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }

        fn finalize(&self, state: u64) -> Result<u64> {
            Ok(state)
        }
    }

    /// When a view fails to absorb an append, the insert must stay
    /// committed, the *other* views must still absorb, the failing view must
    /// be marked for rebuild, and the typed error must name it.
    #[test]
    fn append_commits_despite_failing_view_and_names_it() {
        let db = Database::new(1).unwrap();
        db.create_table("events", schema()).unwrap();
        db.register_view(
            "flaky",
            "events",
            Box::new(MaterializedAggregate::new(
                PoisonAggregate,
                &Executor::new(),
            )),
        )
        .unwrap();
        db.register_view("solid", "events", Box::new(count_view(&db)))
            .unwrap();

        db.append_rows("events", [row![1i64, 1.0]]).unwrap();
        let err = db
            .append_rows("events", [row![2i64, 13.0], row![3i64, 3.0]])
            .unwrap_err();
        match &err {
            EngineError::ViewAbsorbFailed { table, failures } => {
                assert_eq!(table, "events");
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].0, "flaky");
            }
            other => panic!("expected ViewAbsorbFailed, got {other:?}"),
        }
        // The insert committed despite the view failure...
        assert_eq!(db.table("events").unwrap().row_count(), 3);
        // ...the healthy view absorbed the rows...
        assert_eq!(finalize_count(&db, "solid").unwrap(), 3);
        // ...and the failing view is flagged for rebuild.
        {
            let views = read_lock(&db.views);
            let guard = views["flaky"].state.lock().unwrap();
            let view = guard
                .as_any()
                .downcast_ref::<MaterializedAggregate<PoisonAggregate>>()
                .expect("poison view");
            assert!(view.needs_rebuild());
        }
        // Refreshing it restarts from scratch and hits the poison row again.
        db.refresh_view("flaky", |_| Ok(())).unwrap_err();
    }

    /// Counts rows, and panics once: on the first row whose `v` is 13 — a
    /// bug that strikes in the middle of an absorb.
    #[derive(Clone)]
    struct PanicOnce(Arc<std::sync::atomic::AtomicBool>);

    impl Aggregate for PanicOnce {
        type State = u64;
        type Output = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn transition(&self, state: &mut u64, row: &Row, schema: &Schema) -> Result<()> {
            let thirteen = row.get(schema.index_of("v")?) == &crate::value::Value::Double(13.0);
            if thirteen && !self.0.swap(true, Ordering::Relaxed) {
                panic!("a bug in the middle of an absorb");
            }
            *state += 1;
            Ok(())
        }

        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }

        fn finalize(&self, state: u64) -> Result<u64> {
            Ok(state)
        }
    }

    /// A view whose absorb panicked part way has folded rows in without
    /// moving its watermark: its next refresh must rebuild instead of
    /// folding them in a second time (it counted 4 rows of 3).
    #[test]
    fn a_view_whose_absorb_panicked_rebuilds() {
        let db = Database::new(1).unwrap();
        db.create_table("events", schema()).unwrap();
        let view = MaterializedAggregate::new(PanicOnce(Arc::default()), &Executor::new());
        db.register_view("n", "events", Box::new(view)).unwrap();
        db.append_rows("events", [row![1i64, 1.0]]).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.append_rows("events", [row![2i64, 2.0], row![3i64, 13.0]])
        }));
        assert!(unwound.is_err());
        let count = db.refresh_view("n", |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<PanicOnce>>()
                .expect("count view")
                .finalize()
        });
        assert_eq!(count.unwrap(), 3);
    }
}
