//! The SPARQL subset: lexer, AST, parser, planner and evaluators.

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
mod plan;
mod stream;

pub use ast::{
    Aggregate, Expr, GroupPattern, Operation, Order, Projection, ProjectionItem, SelectQuery,
    TermPattern, TriplePattern, Update,
};
pub use eval::{
    answer_prepared, answer_prepared_profiled, cmp_terms, evaluate_prepared,
    evaluate_prepared_profiled, evaluate_select, evaluate_select_materialised, execute,
    execute_update, execute_update_checked, order_key, prepare_select, prepare_select_inferring,
    query, query_with_stats, sort_by_order_keys, ExecOutcome, OpProfile, OpTiming, OrderKey,
    PreparedQuery, QueryResult, Solutions, UpdateStats,
};
pub use parser::{parse, parse_select, Parser};
pub use plan::{InferredObjects, ObjectsFn};
pub use stream::ExecStats;
