//! Model management (ModelDB-style): versioned registry with metadata,
//! search, and catalog export.
//!
//! "Since model training is a trial-and-error process that needs to
//! maintain many models and parameters that have been tried, it is
//! necessary to design a model management system to track, store and
//! search the ML models."
//!
//! Every `register` creates a new immutable version of the named model;
//! lookups default to the latest version; metadata (kind, features,
//! hyperparameters, training metric, logical timestamp) is searchable and
//! exportable as JSON.
//!
//! A version is shared, never copied: [`ModelRegistry::snapshot`] hands
//! out the `Arc` a statement predicts with, and that version stays alive
//! and unchanged for the statement however the registry moves on.

use std::collections::HashMap;
use std::sync::Arc;

use aimdb_common::json::Json;
use aimdb_common::{AimError, ColVec, Result, Value};
use aimdb_ml::bayes::GaussianNb;
use aimdb_ml::cluster::KMeans;
use aimdb_ml::linear::{LinearRegression, LogisticRegression};
use aimdb_ml::tree::DecisionTree;
use aimdb_sql::expr::BoundModel;

/// A trained model of any supported kind.
pub enum TrainedModel {
    Linear(LinearRegression),
    Logistic(LogisticRegression),
    Tree(DecisionTree),
    NaiveBayes(GaussianNb),
    KMeans(KMeans),
}

impl TrainedModel {
    /// Inference on raw feature values for every row of a column batch:
    /// `cols[j]` is feature `j`, `out[i]` receives row `i`'s prediction.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        match self {
            TrainedModel::Linear(m) => m.predict_batch(cols, out),
            TrainedModel::Logistic(m) => m.predict_batch(cols, out),
            TrainedModel::Tree(m) => m.predict_batch(cols, out),
            TrainedModel::NaiveBayes(m) => m.predict_batch(cols, out),
            TrainedModel::KMeans(m) => m.predict_batch(cols, out),
        }
    }

    pub fn kind_name(&self) -> &'static str {
        match self {
            TrainedModel::Linear(_) => "linear",
            TrainedModel::Logistic(_) => "logistic",
            TrainedModel::Tree(_) => "tree",
            TrainedModel::NaiveBayes(_) => "naive_bayes",
            TrainedModel::KMeans(_) => "kmeans",
        }
    }
}

/// Searchable metadata for one model version.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    pub name: String,
    pub version: u32,
    pub kind: String,
    pub table: String,
    pub features: Vec<String>,
    pub label: Option<String>,
    pub params: Vec<(String, String)>,
    /// Training metric (MSE for regressors, accuracy for classifiers,
    /// inertia for clustering).
    pub train_metric: f64,
    pub metric_name: String,
    /// Logical creation timestamp (registry-wide counter).
    pub created_at: u64,
}

/// One immutable version of a model: what a statement binds to.
pub struct ModelVersion {
    pub meta: ModelMeta,
    pub model: TrainedModel,
}

impl BoundModel for ModelVersion {
    fn name(&self) -> &str {
        &self.meta.name
    }

    fn version(&self) -> u32 {
        self.meta.version
    }

    fn kind(&self) -> &str {
        &self.meta.kind
    }

    fn arity(&self) -> usize {
        self.meta.features.len()
    }

    fn predict_batch(&self, cols: &[ColVec], out: &mut [f64]) -> Result<()> {
        let lanes = cols
            .iter()
            .map(ColVec::f64_lane)
            .collect::<Result<Vec<_>>>()?;
        let lanes: Vec<&[f64]> = lanes.iter().map(|l| &l[..]).collect();
        self.model.predict_batch(&lanes, out);
        Ok(())
    }
}

/// The registry: name → versions (ascending).
#[derive(Default)]
pub struct ModelRegistry {
    models: HashMap<String, Vec<Arc<ModelVersion>>>,
    clock: u64,
}

impl ModelRegistry {
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Register a new version of `meta.name`; returns the version number.
    pub fn register(&mut self, mut meta: ModelMeta, model: TrainedModel) -> u32 {
        self.clock += 1;
        meta.created_at = self.clock;
        let key = meta.name.to_ascii_lowercase();
        let versions = self.models.entry(key).or_default();
        meta.version = versions.len() as u32 + 1;
        let v = meta.version;
        versions.push(Arc::new(ModelVersion { meta, model }));
        v
    }

    /// Latest version of a model, shared.
    pub fn snapshot(&self, name: &str) -> Result<Arc<ModelVersion>> {
        self.models
            .get(&name.to_ascii_lowercase())
            .and_then(|v| v.last())
            .cloned()
            .ok_or_else(|| AimError::NotFound(format!("model {name}")))
    }

    /// Latest version of a model.
    pub fn latest(&self, name: &str) -> Result<(&ModelMeta, &TrainedModel)> {
        self.models
            .get(&name.to_ascii_lowercase())
            .and_then(|v| v.last())
            .map(|e| (&e.meta, &e.model))
            .ok_or_else(|| AimError::NotFound(format!("model {name}")))
    }

    /// A specific version.
    pub fn version(&self, name: &str, version: u32) -> Result<(&ModelMeta, &TrainedModel)> {
        self.models
            .get(&name.to_ascii_lowercase())
            .and_then(|v| v.get(version.checked_sub(1)? as usize))
            .map(|e| (&e.meta, &e.model))
            .ok_or_else(|| AimError::NotFound(format!("model {name} v{version}")))
    }

    /// Drop all versions of a model.
    pub fn drop_model(&mut self, name: &str) -> Result<usize> {
        self.models
            .remove(&name.to_ascii_lowercase())
            .map(|v| v.len())
            .ok_or_else(|| AimError::NotFound(format!("model {name}")))
    }

    /// All metadata, newest first.
    pub fn list(&self) -> Vec<&ModelMeta> {
        let mut all: Vec<&ModelMeta> = self
            .models
            .values()
            .flat_map(|v| v.iter().map(|e| &e.meta))
            .collect();
        all.sort_by_key(|m| std::cmp::Reverse(m.created_at));
        all
    }

    /// Search by substring over name/kind/table and an optional metric
    /// bound (`metric <= max_metric` for losses).
    pub fn search(&self, query: &str, max_metric: Option<f64>) -> Vec<&ModelMeta> {
        let q = query.to_ascii_lowercase();
        self.list()
            .into_iter()
            .filter(|m| {
                (m.name.to_ascii_lowercase().contains(&q)
                    || m.kind.to_ascii_lowercase().contains(&q)
                    || m.table.to_ascii_lowercase().contains(&q))
                    && max_metric.is_none_or(|mm| m.train_metric <= mm)
            })
            .collect()
    }

    /// Best version of a model by its training metric (lower is better
    /// for loss metrics; callers with accuracy metrics should negate).
    pub fn best_version(&self, name: &str) -> Result<&ModelMeta> {
        self.models
            .get(&name.to_ascii_lowercase())
            .and_then(|v| {
                v.iter()
                    .min_by(|a, b| a.meta.train_metric.total_cmp(&b.meta.train_metric))
            })
            .map(|e| &e.meta)
            .ok_or_else(|| AimError::NotFound(format!("model {name}")))
    }

    /// Export the catalog (metadata of every version) as JSON.
    pub fn export_catalog(&self) -> Result<String> {
        let metas = Json::Arr(self.list().into_iter().map(meta_to_json).collect());
        Ok(metas.to_string_pretty())
    }

    /// Import a catalog export (metadata only — weights are not shipped,
    /// as in ModelDB's lightweight mode). Returns the parsed entries.
    pub fn parse_catalog(json: &str) -> Result<Vec<ModelMeta>> {
        let decode = |json: &str| -> Result<Vec<ModelMeta>> {
            Json::parse(json)?
                .as_arr()?
                .iter()
                .map(meta_from_json)
                .collect()
        };
        decode(json).map_err(|e| AimError::InvalidInput(format!("bad catalog JSON: {e}")))
    }

    pub fn len(&self) -> usize {
        self.models.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn meta_to_json(m: &ModelMeta) -> Json {
    Json::obj(vec![
        ("name", Json::Str(m.name.clone())),
        ("version", Json::Num(m.version as f64)),
        ("kind", Json::Str(m.kind.clone())),
        ("table", Json::Str(m.table.clone())),
        (
            "features",
            Json::Arr(m.features.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("label", m.label.clone().map_or(Json::Null, Json::Str)),
        (
            "params",
            Json::Arr(
                m.params
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ),
        ("train_metric", Json::Num(m.train_metric)),
        ("metric_name", Json::Str(m.metric_name.clone())),
        ("created_at", Json::Num(m.created_at as f64)),
    ])
}

fn meta_from_json(v: &Json) -> Result<ModelMeta> {
    let label = match v.field("label")? {
        Json::Null => None,
        other => Some(other.as_str()?.to_string()),
    };
    let params = v
        .field("params")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let kv = pair.as_arr()?;
            match kv {
                [k, val] => Ok((k.as_str()?.to_string(), val.as_str()?.to_string())),
                _ => Err(AimError::InvalidInput(
                    "json: param entry is not a [key, value] pair".into(),
                )),
            }
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ModelMeta {
        name: v.field("name")?.as_str()?.to_string(),
        version: v.field("version")?.as_u64()? as u32,
        kind: v.field("kind")?.as_str()?.to_string(),
        table: v.field("table")?.as_str()?.to_string(),
        features: v
            .field("features")?
            .as_arr()?
            .iter()
            .map(|f| Ok(f.as_str()?.to_string()))
            .collect::<Result<Vec<_>>>()?,
        label,
        params,
        train_metric: v.field("train_metric")?.as_f64()?,
        metric_name: v.field("metric_name")?.as_str()?.to_string(),
        created_at: v.field("created_at")?.as_u64()?,
    })
}

/// Convert model params from SQL values to display strings for metadata.
pub fn params_to_meta(params: &[(String, Value)]) -> Vec<(String, String)> {
    params
        .iter()
        .map(|(k, v)| (k.clone(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_meta(name: &str, metric: f64) -> ModelMeta {
        ModelMeta {
            name: name.into(),
            version: 0,
            kind: "linear".into(),
            table: "t".into(),
            features: vec!["a".into()],
            label: Some("y".into()),
            params: vec![],
            train_metric: metric,
            metric_name: "mse".into(),
            created_at: 0,
        }
    }

    fn predict(model: &TrainedModel, x: f64) -> f64 {
        let mut out = [0.0];
        model.predict_batch(&[&[x]], &mut out);
        out[0]
    }

    fn dummy_model(w: f64) -> TrainedModel {
        TrainedModel::Linear(LinearRegression::from_weights(vec![w], 0.0))
    }

    #[test]
    fn versioning_is_monotone() {
        let mut reg = ModelRegistry::new();
        assert_eq!(reg.register(dummy_meta("m", 1.0), dummy_model(1.0)), 1);
        assert_eq!(reg.register(dummy_meta("M", 0.5), dummy_model(2.0)), 2);
        let (meta, model) = reg.latest("m").unwrap();
        assert_eq!(meta.version, 2);
        assert_eq!(predict(model, 3.0), 6.0);
        let (v1, m1) = reg.version("m", 1).unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(predict(m1, 3.0), 3.0);
        assert!(reg.version("m", 9).is_err());
    }

    #[test]
    fn best_version_by_metric() {
        let mut reg = ModelRegistry::new();
        reg.register(dummy_meta("m", 1.0), dummy_model(1.0));
        reg.register(dummy_meta("m", 0.2), dummy_model(2.0));
        reg.register(dummy_meta("m", 0.7), dummy_model(3.0));
        assert_eq!(reg.best_version("m").unwrap().version, 2);
    }

    #[test]
    fn search_filters() {
        let mut reg = ModelRegistry::new();
        reg.register(dummy_meta("churn_predictor", 0.3), dummy_model(1.0));
        reg.register(dummy_meta("fraud_detector", 0.1), dummy_model(1.0));
        assert_eq!(reg.search("churn", None).len(), 1);
        assert_eq!(reg.search("linear", None).len(), 2);
        assert_eq!(reg.search("linear", Some(0.2)).len(), 1);
        assert_eq!(reg.search("nothing", None).len(), 0);
    }

    #[test]
    fn drop_and_missing() {
        let mut reg = ModelRegistry::new();
        reg.register(dummy_meta("m", 1.0), dummy_model(1.0));
        reg.register(dummy_meta("m", 1.0), dummy_model(1.0));
        assert_eq!(reg.drop_model("m").unwrap(), 2);
        assert!(reg.latest("m").is_err());
        assert!(reg.drop_model("m").is_err());
    }

    #[test]
    fn catalog_roundtrip() {
        let mut reg = ModelRegistry::new();
        reg.register(dummy_meta("a", 1.0), dummy_model(1.0));
        reg.register(dummy_meta("b", 2.0), dummy_model(1.0));
        let json = reg.export_catalog().unwrap();
        let parsed = ModelRegistry::parse_catalog(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed.iter().any(|m| m.name == "a"));
        assert!(ModelRegistry::parse_catalog("not json").is_err());
    }
}
