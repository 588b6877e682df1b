//! Abstract syntax for the SQL subset.

use mltrace_store::Value;

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`: deduplicate output rows.
    pub distinct: bool,
    /// Projected items.
    pub select: Vec<SelectItem>,
    /// Leftmost source table (resolved by the executor).
    pub from: TableRef,
    /// Joined tables, in join order (left-deep).
    pub joins: Vec<Join>,
    /// Row filter.
    pub where_clause: Option<Expr>,
    /// Grouping columns.
    pub group_by: Vec<String>,
    /// Post-aggregation filter.
    pub having: Option<Expr>,
    /// Sort keys with direction (`true` = descending).
    pub order_by: Vec<(Expr, bool)>,
    /// Row cap.
    pub limit: Option<usize>,
}

impl Query {
    /// True when the statement aggregates: a GROUP BY, or an aggregate
    /// function anywhere in the select list.
    pub fn is_grouped(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .select
                .iter()
                .any(|s| matches!(s, SelectItem::Expr { expr, .. } if expr.has_aggregate()))
    }
}

/// A table in `FROM`/`JOIN`, with an optional alias. Columns of this
/// source can be qualified by the alias (or the table name when no alias
/// was given): `r.component`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// The table name as written.
    pub name: String,
    /// `AS` alias (or bare alias).
    pub alias: Option<String>,
}

impl TableRef {
    /// A reference with no alias.
    pub fn named(name: impl Into<String>) -> TableRef {
        TableRef {
            name: name.into(),
            alias: None,
        }
    }

    /// The label columns of this source are qualified by: the alias if
    /// one was given, else the table name.
    pub fn label(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`: keep matching row pairs only.
    Inner,
    /// `LEFT [OUTER] JOIN`: keep every left row, null-padding the right
    /// columns when nothing matches.
    Left,
}

/// One `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Inner or left outer.
    pub kind: JoinKind,
    /// The joined (right-side) table.
    pub table: TableRef,
    /// The `ON` predicate.
    pub on: Expr,
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS` alias.
        alias: Option<String>,
    },
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `ABS(x)` — absolute value of a numeric.
    Abs,
    /// `LENGTH(s)` — string length (list length for lists).
    Length,
    /// `COALESCE(a, b, ...)` — first non-null argument.
    Coalesce,
    /// `LOWER(s)` / `UPPER(s)` — case folding.
    Lower,
    /// Uppercase.
    Upper,
    /// `ROUND(x)` — nearest integer.
    Round,
}

impl ScalarFunc {
    /// Parse a (case-insensitive) scalar function name.
    pub fn parse(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_uppercase().as_str() {
            "ABS" => Some(ScalarFunc::Abs),
            "LENGTH" => Some(ScalarFunc::Length),
            "COALESCE" => Some(ScalarFunc::Coalesce),
            "LOWER" => Some(ScalarFunc::Lower),
            "UPPER" => Some(ScalarFunc::Upper),
            "ROUND" => Some(ScalarFunc::Round),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "abs",
            ScalarFunc::Length => "length",
            ScalarFunc::Coalesce => "coalesce",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Round => "round",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)` (non-null count).
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// Parse a (case-insensitive) function name.
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

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (`NOT expr`).
    Not(Box<Expr>),
    /// Arithmetic negation (`-expr`).
    Neg(Box<Expr>),
    /// `expr LIKE 'pattern'` (with `%`/`_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: String,
        /// Negated form.
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    In {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// Aggregate call. `arg` is `None` for `COUNT(*)`.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument expression.
        arg: Option<Box<Expr>>,
    },
    /// Scalar function call.
    Scalar {
        /// Function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `expr [NOT] BETWEEN lo AND hi` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `?` — positional parameter of a prepared statement, numbered
    /// left-to-right from 0 in source order. Binding replaces it with a
    /// `Literal` before planning, so a bound query plans exactly like its
    /// literal-SQL equivalent.
    Placeholder(usize),
}

impl Expr {
    /// True when the expression (transitively) contains an aggregate.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column(_) | Expr::Literal(_) | Expr::Placeholder(_) => false,
            Expr::Binary { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::Not(e) | Expr::Neg(e) => e.has_aggregate(),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.has_aggregate(),
            Expr::In { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(Expr::has_aggregate)
            }
            Expr::Scalar { args, .. } => args.iter().any(Expr::has_aggregate),
            Expr::Between { expr, lo, hi, .. } => {
                expr.has_aggregate() || lo.has_aggregate() || hi.has_aggregate()
            }
        }
    }

    /// Split a predicate into its top-level `AND` conjuncts, in
    /// left-to-right evaluation order. A non-`AND` expression is a single
    /// conjunct. The pushdown planner consumes this: each conjunct can be
    /// absorbed into a scan filter or retained as a residual independently.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    /// AND `conjuncts` back together, preserving order — the inverse of
    /// [`Self::conjuncts`]. `None` for an empty list.
    pub fn conjoin(conjuncts: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        conjuncts.into_iter().reduce(|left, right| Expr::Binary {
            op: BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                left.collect_conjuncts(out);
                right.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    /// Default output name for an unaliased projection.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(c) => c.clone(),
            Expr::Agg { func, arg } => match arg {
                Some(a) => format!("{}({})", func.name(), a.default_name()),
                None => format!("{}(*)", func.name()),
            },
            Expr::Scalar { func, args } => format!(
                "{}({})",
                func.name(),
                args.iter()
                    .map(Expr::default_name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            _ => "expr".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_parse_and_names() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("median"), None);
        assert_eq!(AggFunc::Sum.name(), "sum");
    }

    #[test]
    fn has_aggregate_traverses() {
        let plain = Expr::Column("a".into());
        assert!(!plain.has_aggregate());
        let agg = Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(Expr::Agg {
                func: AggFunc::Count,
                arg: None,
            }),
            right: Box::new(Expr::Literal(Value::Int(5))),
        };
        assert!(agg.has_aggregate());
        let nested = Expr::Not(Box::new(agg));
        assert!(nested.has_aggregate());
    }

    #[test]
    fn default_names() {
        assert_eq!(Expr::Column("status".into()).default_name(), "status");
        assert_eq!(
            Expr::Agg {
                func: AggFunc::Count,
                arg: None
            }
            .default_name(),
            "count(*)"
        );
        assert_eq!(
            Expr::Agg {
                func: AggFunc::Avg,
                arg: Some(Box::new(Expr::Column("value".into())))
            }
            .default_name(),
            "avg(value)"
        );
    }
}
