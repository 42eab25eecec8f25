//! The model catalog: named, typed model storage inside the database.
//!
//! The paper's macro-thesis is that analytics state belongs *in* the
//! database, next to the data.  Training already deposits its inputs and
//! iteration state in [`crate::Database`] tables; the model catalog gives
//! the *outputs* the same home, so a model trained once can be looked up by
//! name and served by [`crate::Dataset::score`] without ever leaving the
//! engine:
//!
//! - [`ModelCatalog::register`] stores one model under a name (re-registering
//!   replaces it — the model-refresh idiom, mirroring `CREATE OR REPLACE`).
//! - [`ModelCatalog::register_grouped`] stores a `train_grouped` output, a
//!   [`GroupedModels`] registry, as it is: its keys were sorted and checked
//!   once, when it was built, and [`ModelCatalog::get_grouped`] hands the
//!   same registry back for [`crate::Dataset::score_per_group`].
//! - Lookups are typed: [`ModelCatalog::get`] downcasts to the requested
//!   model type and reports a wrong-type lookup as a
//!   [`EngineError::TypeMismatch`] naming both types, a missing name or
//!   group as a typed [`EngineError::ModelNotFound`].
//!
//! Models are stored as `Arc<dyn Any + Send + Sync>`, so the catalog holds
//! any `'static` model type without the engine depending on the method
//! library; the typed surface lives entirely in the lookup functions.

use crate::error::{EngineError, Result};
use crate::group::{GroupKey, GroupedModels};
use std::any::{type_name, Any};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A type-erased stored model: an `M`, or a grouped registry's
/// `GroupedModels<Arc<M>>`.
type StoredModel = Arc<dyn Any + Send + Sync>;

struct ModelEntry {
    /// The model type `M`, captured at registration time for typed-mismatch
    /// error messages.
    type_name: &'static str,
    /// Whether `model` is a grouped registry.
    grouped: bool,
    model: StoredModel,
}

/// A named, typed model store shared by all clones of a [`crate::Database`]
/// (lookups through any handle see models registered through any other,
/// exactly like tables).
#[derive(Clone, Default)]
pub struct ModelCatalog {
    inner: Arc<RwLock<HashMap<String, ModelEntry>>>,
}

impl fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (name, grouped) in self.list() {
            map.entry(&name, &if grouped { "grouped" } else { "single" });
        }
        map.finish()
    }
}

impl ModelCatalog {
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, ModelEntry>> {
        // Registrations cannot leave the map half-written, so recover from
        // poisoning instead of propagating the panic (same policy as the
        // table catalog).
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, ModelEntry>> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `model` under `name`, replacing any existing entry — the
    /// model-refresh idiom: retraining registers the new model under the
    /// same name and subsequent lookups serve it.
    pub fn register<M: Any + Send + Sync>(&self, name: &str, model: M) {
        self.write().insert(
            name.to_owned(),
            ModelEntry {
                type_name: type_name::<M>(),
                grouped: false,
                model: Arc::new(model),
            },
        );
    }

    /// Registers a per-group model registry (a `train_grouped` output) under
    /// `name`, replacing any existing entry.
    pub fn register_grouped<M: Any + Send + Sync>(&self, name: &str, models: GroupedModels<M>) {
        self.write().insert(
            name.to_owned(),
            ModelEntry {
                type_name: type_name::<M>(),
                grouped: true,
                model: Arc::new(models.map(Arc::new)),
            },
        );
    }

    /// Looks up the single model registered under `name` as type `M`.
    ///
    /// # Errors
    /// [`EngineError::ModelNotFound`] for an unknown name,
    /// [`EngineError::TypeMismatch`] when the stored model is not an `M`,
    /// [`EngineError::InvalidArgument`] when the entry is a grouped registry
    /// (use [`ModelCatalog::get_group`] / [`ModelCatalog::get_grouped`]).
    pub fn get<M: Any + Send + Sync>(&self, name: &str) -> Result<Arc<M>> {
        let catalog = self.read();
        let entry = lookup(&catalog, name)?;
        if entry.grouped {
            return Err(EngineError::invalid(format!(
                "model {name:?} is a grouped registry; use get_group or get_grouped"
            )));
        }
        downcast::<M, M>(entry)
    }

    /// Looks up the model for group `key` in the grouped registry under
    /// `name`, as type `M`.
    ///
    /// # Errors
    /// [`EngineError::ModelNotFound`] for an unknown name *or* a known
    /// registry with no model for `key` (the error carries the rendered
    /// key); [`EngineError::TypeMismatch`] on a type mismatch;
    /// [`EngineError::InvalidArgument`] when the entry is a single model.
    pub fn get_group<M: Any + Send + Sync>(&self, name: &str, key: &GroupKey) -> Result<Arc<M>> {
        Ok(Arc::clone(self.get_grouped::<M>(name)?.require(name, key)?))
    }

    /// The grouped registry under `name`, its models as type `M`: the
    /// registered keys in their order, each model behind an [`Arc`] shared
    /// with the catalog.
    ///
    /// # Errors
    /// [`EngineError::ModelNotFound`] for an unknown name,
    /// [`EngineError::TypeMismatch`] on a type mismatch,
    /// [`EngineError::InvalidArgument`] when the entry is a single model.
    pub fn get_grouped<M: Any + Send + Sync>(&self, name: &str) -> Result<GroupedModels<Arc<M>>> {
        let catalog = self.read();
        let entry = lookup(&catalog, name)?;
        if !entry.grouped {
            return Err(EngineError::invalid(format!(
                "model {name:?} is a single model, not a grouped registry; use get"
            )));
        }
        let models = downcast::<GroupedModels<Arc<M>>, M>(entry)?;
        Ok(GroupedModels::clone(&models))
    }

    /// Whether a model (single or grouped) is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Lists model names (sorted) with whether each entry is grouped.
    pub fn list(&self) -> Vec<(String, bool)> {
        let mut names: Vec<(String, bool)> = self
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.grouped))
            .collect();
        names.sort();
        names
    }

    /// Removes the entry under `name`.
    ///
    /// # Errors
    /// Returns [`EngineError::ModelNotFound`] for an unknown name.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| EngineError::ModelNotFound {
                name: name.to_owned(),
                group: None,
            })
    }
}

fn lookup<'a>(catalog: &'a HashMap<String, ModelEntry>, name: &str) -> Result<&'a ModelEntry> {
    catalog.get(name).ok_or_else(|| EngineError::ModelNotFound {
        name: name.to_owned(),
        group: None,
    })
}

/// The entry's model as a `T`; a mismatch names the model types, `M` and the
/// one registered.
fn downcast<T: Any + Send + Sync, M>(entry: &ModelEntry) -> Result<Arc<T>> {
    Arc::downcast::<T>(Arc::clone(&entry.model)).map_err(|_| EngineError::TypeMismatch {
        expected: type_name::<M>(),
        found: entry.type_name.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[derive(Debug, PartialEq)]
    struct Stub(u32);
    #[derive(Debug, PartialEq)]
    struct Other(&'static str);

    #[test]
    fn register_get_and_refresh() {
        let catalog = ModelCatalog::new();
        assert!(!catalog.contains("m"));
        catalog.register("m", Stub(1));
        assert!(catalog.contains("m"));
        assert_eq!(*catalog.get::<Stub>("m").unwrap(), Stub(1));
        // Re-registering replaces (model refresh).
        catalog.register("m", Stub(2));
        assert_eq!(*catalog.get::<Stub>("m").unwrap(), Stub(2));
        // Even across types.
        catalog.register("m", Other("x"));
        assert_eq!(*catalog.get::<Other>("m").unwrap(), Other("x"));
    }

    #[test]
    fn typed_errors() {
        let catalog = ModelCatalog::new();
        assert!(matches!(
            catalog.get::<Stub>("missing"),
            Err(EngineError::ModelNotFound { name, group: None }) if name == "missing"
        ));
        catalog.register("m", Stub(1));
        let err = catalog.get::<Other>("m").unwrap_err();
        match err {
            EngineError::TypeMismatch { expected, found } => {
                assert!(expected.contains("Other"));
                assert!(found.contains("Stub"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Single entries reject grouped lookups and vice versa.
        assert!(catalog
            .get_group::<Stub>("m", &GroupKey::from_value(&Value::Int(1)))
            .is_err());
        assert!(catalog.get_grouped::<Stub>("m").is_err());
        assert!(catalog.remove("missing").is_err());
        catalog.remove("m").unwrap();
        assert!(!catalog.contains("m"));
    }

    #[test]
    fn grouped_registry_routes_by_key() {
        let catalog = ModelCatalog::new();
        let key = |v: i64| GroupKey::from_value(&Value::Int(v));
        let models = GroupedModels::new(vec![(key(2), Stub(20)), (key(1), Stub(10))]).unwrap();
        catalog.register_grouped("per_region", models);
        assert_eq!(
            *catalog.get_group::<Stub>("per_region", &key(1)).unwrap(),
            Stub(10)
        );
        let all = catalog.get_grouped::<Stub>("per_region").unwrap();
        assert_eq!(all.len(), 2);
        // Sorted by key regardless of registration order.
        let (first_key, first) = all.iter().next().unwrap();
        assert_eq!(*first_key, key(1));
        assert_eq!(**first, Stub(10));
        // Missing group carries the rendered key.
        let err = catalog
            .get_group::<Stub>("per_region", &key(9))
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::ModelNotFound { group: Some(_), .. }
        ));
        // Grouped entries reject the single-model lookup.
        assert!(catalog.get::<Stub>("per_region").is_err());
        // Duplicate keys are rejected.
        assert!(GroupedModels::new(vec![(key(1), Stub(1)), (key(1), Stub(2))]).is_err());
        // The listing marks grouped entries.
        catalog.register("single", Stub(0));
        assert_eq!(
            catalog.list(),
            vec![
                ("per_region".to_owned(), true),
                ("single".to_owned(), false)
            ]
        );
    }

    #[test]
    fn clones_share_storage() {
        let catalog = ModelCatalog::new();
        let clone = catalog.clone();
        catalog.register("m", Stub(7));
        assert_eq!(*clone.get::<Stub>("m").unwrap(), Stub(7));
    }
}
