//! Abstract syntax tree for the aimdb SQL dialect, including the AISQL
//! extensions (`CREATE MODEL`, `PREDICT`, `SET`, `ANALYZE`, `EXPLAIN`).

use aimdb_common::{DataType, Value};

use crate::expr::Expr;

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression, optionally aliased with AS.
    Expr { expr: Expr, alias: Option<String> },
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An explicit `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: TableRef,
    pub on: Expr,
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub items: Vec<SelectItem>,
    /// First table plus any comma-joined tables.
    pub from: Vec<TableRef>,
    /// Explicit JOIN clauses applied after `from`.
    pub joins: Vec<JoinClause>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
}

/// Model kinds for `CREATE MODEL` (AISQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Linear regression (least squares via gradient descent).
    Linear,
    /// Logistic regression (binary classifier).
    Logistic,
    /// Decision-tree classifier.
    Tree,
    /// Gaussian naive Bayes classifier.
    NaiveBayes,
    /// K-means clustering (unsupervised; LABEL clause omitted).
    KMeans,
}

impl ModelKind {
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.to_ascii_uppercase().as_str() {
            "LINEAR" | "LR" | "REGRESSION" => Some(ModelKind::Linear),
            "LOGISTIC" | "LOGREG" | "CLASSIFIER" => Some(ModelKind::Logistic),
            "TREE" | "DECISION_TREE" => Some(ModelKind::Tree),
            "NAIVE_BAYES" | "NB" => Some(ModelKind::NaiveBayes),
            "KMEANS" | "K_MEANS" => Some(ModelKind::KMeans),
            _ => None,
        }
    }
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    DropTable {
        name: String,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    DropIndex {
        name: String,
    },
    Insert {
        table: String,
        /// Column list if written; full schema order otherwise.
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Select(Select),
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Begin,
    Commit,
    Rollback,
    /// `EXPLAIN <select>` — returns the chosen physical plan as text rows.
    Explain(Box<Statement>),
    /// `EXPLAIN ANALYZE <select>` — execute the statement under a trace
    /// and return the plan annotated with actual rows/time/cost per node.
    ExplainAnalyze(Box<Statement>),
    /// `ANALYZE [table]` — (re)build optimizer statistics.
    Analyze {
        table: Option<String>,
    },
    /// `SET knob = value` — live knob update (E1's tuning surface).
    Set {
        knob: String,
        value: Value,
    },
    /// `SHOW knob` — read a knob's live value.
    Show {
        knob: String,
    },
    /// AISQL: `CREATE MODEL name KIND k ON table (f1, f2) [LABEL col]
    /// [WITH (param = value, ...)]`
    CreateModel {
        name: String,
        kind: ModelKind,
        table: String,
        features: Vec<String>,
        label: Option<String>,
        params: Vec<(String, Value)>,
    },
    DropModel {
        name: String,
    },
    /// AISQL: `PREDICT model GIVEN (v1, v2, ...)`
    Predict {
        model: String,
        inputs: Vec<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_parse_roundtrip() {
        for (s, f) in [
            ("count", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("Avg", AggFunc::Avg),
            ("MIN", AggFunc::Min),
            ("max", AggFunc::Max),
        ] {
            assert_eq!(AggFunc::parse(s), Some(f));
            assert_eq!(AggFunc::parse(f.name()), Some(f));
        }
        assert_eq!(AggFunc::parse("median"), None);
    }

    #[test]
    fn model_kind_aliases() {
        assert_eq!(ModelKind::parse("lr"), Some(ModelKind::Linear));
        assert_eq!(ModelKind::parse("LOGREG"), Some(ModelKind::Logistic));
        assert_eq!(ModelKind::parse("kmeans"), Some(ModelKind::KMeans));
        assert_eq!(ModelKind::parse("svm"), None);
    }

    #[test]
    fn table_ref_effective_name() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.effective_name(), "o");
        let t = TableRef {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t.effective_name(), "orders");
    }
}
