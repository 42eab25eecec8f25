//! Durable ingest: open → append → checkpoint → crash → recover, through
//! the facade.
//!
//! The paper's methods run "within a database engine", whose tables survive
//! the process.  This example drives that half: a database opened on a
//! directory, a linear regression kept fresh over appended batches
//! (`train_incremental` / `refresh`), a checkpoint in the middle of the
//! stream, a `register_table`d lookup table, and then a crash — a copy of
//! the directory that keeps of `wal.log` only the bytes the engine had
//! fsynced (`wal_durable_len`) plus the half-written frame a torn group
//! commit leaves behind.  `Database::recover` must hand back exactly the
//! acknowledged rows; the model re-registered over them must adopt the view
//! states the checkpoint persisted, absorbing only the rows appended after
//! it (the recovery report says so); and, refreshed, it must be the
//! pre-crash model bit for bit.  The example exits non-zero otherwise, so CI
//! running it guards the durable commit path end to end.

use madlib::engine::table::Distribution;
use madlib::engine::{row, Column, ColumnType, Database, Row, Schema, Table, ViewOutcome};
use madlib::methods::datasets::{labeled_point_schema, linear_regression_data};
use madlib::methods::regress::LinearRegression;
use madlib::methods::train::incremental_view_name;
use madlib::methods::Session;
use std::path::Path;

const BATCH: usize = 100;

fn main() {
    let root = std::env::temp_dir().join(format!("madlib_durable_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (live, crashed) = (root.join("live"), root.join("crashed"));
    let verdict = run(&live, &crashed);
    let _ = std::fs::remove_dir_all(&root);
    if let Err(what) = verdict {
        eprintln!("durable ingest lost data: {what}");
        std::process::exit(1);
    }
}

fn run(live: &Path, crashed: &Path) -> Result<(), String> {
    // 2 000 readings, y = <b, x> + noise over 6 variables, fed in batches.
    let feed: Vec<Row> = linear_regression_data(2_000, 6, 0.1, 1, 7)
        .expect("generator succeeds")
        .table
        .collect_rows();
    let estimator = LinearRegression::new("y", "x");

    let db = Database::open(live, 2).expect("fresh directory");
    // 64-row chunks, so the checkpoint below has sealed chunks to persist.
    db.create_table_with_chunk_capacity("readings", labeled_point_schema(), 64)
        .expect("fresh catalog");
    let session = Session::new(db.clone());
    let mut batches = feed.chunks(BATCH);
    let mut acknowledged = 0;
    let mut append = |batches: &mut std::slice::Chunks<'_, Row>, n: usize| {
        for batch in batches.take(n) {
            db.append_rows("readings", batch.iter().cloned())
                .expect("append commits");
            acknowledged += batch.len();
        }
    };

    append(&mut batches, 5);
    session
        .train_incremental(&estimator, "readings", "drift_model")
        .expect("initial fit");
    append(&mut batches, 5);
    let written = db.checkpoint().expect("checkpoint succeeds");
    let checkpointed = db.table("readings").expect("cataloged").row_count();

    // A populated table built outside the catalog: 3 segments (the database
    // has 2), hashed on the sensor id.  It is logged as it is stored.
    let sites = Schema::new(vec![
        Column::new("sensor", ColumnType::Int),
        Column::new("site", ColumnType::Text),
    ]);
    let mut lookup = Table::with_distribution(sites, 3, Distribution::HashColumn("sensor".into()))
        .expect("sensor is a column");
    for sensor in 0..40i64 {
        lookup
            .insert(row![sensor, format!("site-{}", sensor % 7)])
            .expect("row matches schema");
    }
    db.register_table("sensor_sites", lookup.clone())
        .expect("name is free");

    append(&mut batches, 10);
    let before = session
        .refresh(&estimator, "readings", "drift_model")
        .expect("refresh succeeds");
    println!(
        "pre-crash : {acknowledged} rows acknowledged, {written} chunks checkpointed, \
         model over {} rows, coef[0] = {:.6}",
        before.num_rows, before.coef[0]
    );

    // The crash: every file as it is, except that the log keeps only what
    // was fsynced, followed by a frame that promises 4 096 payload bytes and
    // stops after 32.
    let durable = db.wal_durable_len().expect("durable database") as usize;
    drop((session, db));
    std::fs::create_dir_all(crashed).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(live).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let mut bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        if entry.file_name() == "wal.log" {
            bytes.truncate(durable);
            bytes.extend_from_slice(&4096u32.to_le_bytes());
            bytes.extend_from_slice(&[0x5A; 40]);
        }
        std::fs::write(crashed.join(entry.file_name()), bytes).map_err(|e| e.to_string())?;
    }

    let recovered = Database::recover(crashed).map_err(|e| format!("recover: {e}"))?;
    let rows = recovered
        .table("readings")
        .map_err(|e| e.to_string())?
        .row_count();
    let sites = recovered.table("sensor_sites").map_err(|e| e.to_string())?;
    let session = Session::new(recovered.clone());
    session
        .train_incremental(&estimator, "readings", "drift_model")
        .map_err(|e| format!("re-register: {e}"))?;
    // The view the checkpoint persisted is adopted: re-registering the model
    // absorbed the rows the log replayed, not the table.
    let report = recovered.recovery_report().expect("durable database");
    let view = incremental_view_name("drift_model");
    let outcome = report.views.iter().find(|(name, _)| *name == view);
    println!(
        "recovery  : manifest epoch {:?}, {} chunks loaded from {} frame bytes, \
         {} log frames replayed, {} torn bytes discarded, view {outcome:?}",
        report.manifest_epoch,
        report.chunks_loaded,
        report.bytes_loaded,
        report.wal_frames_replayed,
        report.wal_bytes_discarded
    );
    let suffix_rows = (rows - checkpointed) as u64;
    if outcome.map(|(_, outcome)| *outcome) != Some(ViewOutcome::Adopted { suffix_rows }) {
        return Err(format!(
            "the drift model's view was not adopted with the {suffix_rows} rows appended \
             after its checkpoint: {outcome:?}"
        ));
    }
    let after = session
        .refresh(&estimator, "readings", "drift_model")
        .map_err(|e| format!("refresh: {e}"))?;
    println!(
        "recovered : {rows} rows, lookup table {} rows in {} segments, model over {} rows, \
         coef[0] = {:.6}",
        sites.row_count(),
        sites.num_segments(),
        after.num_rows,
        after.coef[0]
    );

    if rows != acknowledged {
        return Err(format!(
            "{acknowledged} rows were acknowledged, {rows} recovered"
        ));
    }
    if sites.num_segments() != lookup.num_segments()
        || sites.collect_rows() != lookup.collect_rows()
    {
        return Err("the registered lookup table did not come back as it was stored".into());
    }
    let bits = |coef: &[f64]| coef.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    if bits(&after.coef) != bits(&before.coef) {
        return Err(format!(
            "refreshed coefficients {:?} are not the pre-crash {:?}",
            after.coef, before.coef
        ));
    }
    println!("recovered == acknowledged, refreshed model == pre-crash model (bit for bit)");
    Ok(())
}
