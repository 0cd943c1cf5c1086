//! A deterministic stand-in for the model runtime, so the engine's test
//! suites can exercise `PREDICT` without any ML in the dependency graph.
#![allow(dead_code)]

use std::sync::Arc;

use aimdb_common::{AimError, ColVec, Result, Value};
use aimdb_engine::{Database, ModelHook};
use aimdb_sql::ast::ModelKind;
use aimdb_sql::expr::{BoundModel, BuiltinFns, ScalarFns};

/// Closed-form stand-ins for trained models: `lin(x, y)` = x/2 − y/4 + 1
/// and `cls(x)` = 1 when x > 30, else 0.
pub struct StubModel {
    pub name: &'static str,
    pub arity: usize,
    pub f: fn(&[f64]) -> f64,
}

impl BoundModel for StubModel {
    fn name(&self) -> &str {
        self.name
    }
    fn version(&self) -> u32 {
        1
    }
    fn kind(&self) -> &str {
        "stub"
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn predict_batch(&self, cols: &[ColVec], out: &mut [f64]) -> Result<()> {
        let lanes = cols
            .iter()
            .map(ColVec::f64_lane)
            .collect::<Result<Vec<_>>>()?;
        for (i, o) in out.iter_mut().enumerate() {
            let x: Vec<f64> = lanes.iter().map(|l| l[i]).collect();
            *o = (self.f)(&x);
        }
        Ok(())
    }
}

pub struct StubModels;

impl ModelHook for StubModels {
    fn create_model(
        &self,
        _: &Database,
        _: &str,
        _: ModelKind,
        _: &str,
        _: &[String],
        _: Option<&str>,
        _: &[(String, Value)],
    ) -> Result<String> {
        Err(AimError::Model("the stub trains nothing".into()))
    }

    fn drop_model(&self, name: &str) -> Result<()> {
        Err(AimError::NotFound(format!("model {name}")))
    }

    fn bind(&self, name: &str, arity: usize) -> Result<Arc<dyn BoundModel>> {
        let model = match name {
            "lin" => StubModel {
                name: "lin",
                arity: 2,
                f: |x| 0.5 * x[0] - 0.25 * x[1] + 1.0,
            },
            "cls" => StubModel {
                name: "cls",
                arity: 1,
                f: |x| f64::from(x[0] > 30.0),
            },
            _ => return Err(AimError::NotFound(format!("model {name}"))),
        };
        if arity != model.arity {
            return Err(AimError::Model(format!(
                "model {name} expects {} inputs, got {arity}",
                model.arity
            )));
        }
        Ok(Arc::new(model))
    }
}

/// The row executor's function registry: `PREDICT` by name, one row per
/// call, everything else built in.
pub struct ByName(pub StubModels);

impl ScalarFns for ByName {
    fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        if name.eq_ignore_ascii_case("PREDICT") {
            let model = self.0.bind(args[0].as_str()?, args.len() - 1)?;
            return model.predict_row(&args[1..]);
        }
        BuiltinFns.call(name, args)
    }
}
