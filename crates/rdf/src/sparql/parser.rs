//! Recursive-descent parser for the SPARQL subset.
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! Op        := Prologue (Select | Update)
//! Prologue  := ("PREFIX" PNAME ":"? IRI)*
//! Select    := "SELECT" "DISTINCT"? Projection Where Solution*
//! Projection:= "*" | (Var | "(" Agg "AS" Var ")")+
//! Agg       := "COUNT" "(" ("*" | "DISTINCT"? Var) ")"
//! Where     := "WHERE"? "{" Group "}"
//! Group     := (Triple | Filter | Optional | "{" Select "}")*
//! Triple    := Node Verb Node ("." )?
//! Filter    := "FILTER" "(" Expr ")"
//! Optional  := "OPTIONAL" "{" Group "}"
//! Solution  := "ORDER" "BY" (("ASC"|"DESC") "(" Var ")" | Var)+
//!            | "LIMIT" INT | "OFFSET" INT
//! Update    := "INSERT" "DATA" QuadData
//!            | "DELETE" "DATA" QuadData
//!            | "DELETE" Template "INSERT" Template Where
//!            | "DELETE" Template Where
//!            | "DELETE" "WHERE" Template
//!            | "INSERT" Template Where
//! ```

use rustc_hash::FxHashMap;

use crate::error::SparqlError;
use crate::sparql::ast::*;
use crate::sparql::lexer::{tokenize, Token};
use crate::term::{Term, RDF_TYPE};

/// Parse one SPARQL operation (query or update).
pub fn parse(input: &str) -> Result<Operation, SparqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, prefixes: FxHashMap::default() };
    p.parse_operation()
}

/// Parse a SELECT query, rejecting updates.
pub fn parse_select(input: &str) -> Result<SelectQuery, SparqlError> {
    match parse(input)? {
        Operation::Select(q) => Ok(q),
        Operation::Update(_) => Err(SparqlError::parse("expected SELECT, found update")),
    }
}

/// Parser state. Exposed to the SPARQL-ML crate so it can extend the
/// grammar with the same token stream and prefix handling.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: FxHashMap<String, String>,
}

impl Parser {
    /// Build a parser over pre-lexed tokens.
    pub fn from_tokens(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, prefixes: FxHashMap::default() }
    }

    /// Construct directly from a query string.
    pub fn from_query(input: &str) -> Result<Self, SparqlError> {
        Ok(Self::from_tokens(tokenize(input)?))
    }

    /// Registered prefixes (after the prologue is parsed).
    pub fn prefixes(&self) -> &FxHashMap<String, String> {
        &self.prefixes
    }

    /// Current token.
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// Consume and return the current token.
    pub fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// True (and consumes) when the current token is the given word,
    /// case-insensitively.
    pub fn eat_word(&mut self, word: &str) -> bool {
        if let Token::Word(w) = self.peek() {
            if w.eq_ignore_ascii_case(word) {
                self.bump();
                return true;
            }
        }
        false
    }

    /// Check whether the current token is the given word without consuming.
    pub fn at_word(&self, word: &str) -> bool {
        matches!(self.peek(), Token::Word(w) if w.eq_ignore_ascii_case(word))
    }

    /// Require a specific token.
    pub fn expect(&mut self, token: &Token) -> Result<(), SparqlError> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            Err(SparqlError::parse(format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    /// Require a keyword.
    pub fn expect_word(&mut self, word: &str) -> Result<(), SparqlError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(SparqlError::parse(format!("expected '{word}', found {:?}", self.peek())))
        }
    }

    /// Parse the full operation with prologue.
    pub fn parse_operation(&mut self) -> Result<Operation, SparqlError> {
        self.parse_prologue()?;
        if self.at_word("SELECT") {
            Ok(Operation::Select(self.parse_select()?))
        } else if self.at_word("INSERT") || self.at_word("DELETE") {
            Ok(Operation::Update(self.parse_update()?))
        } else {
            Err(SparqlError::parse(format!(
                "expected SELECT/INSERT/DELETE, found {:?}",
                self.peek()
            )))
        }
    }

    /// Parse `PREFIX` declarations.
    pub fn parse_prologue(&mut self) -> Result<(), SparqlError> {
        while self.eat_word("PREFIX") {
            let (prefix, local) = match self.bump() {
                Token::PName(p, l) => (p, l),
                Token::Word(w) => (w, String::new()),
                other => {
                    return Err(SparqlError::parse(format!("expected prefix name, got {other:?}")))
                }
            };
            if !local.is_empty() {
                return Err(SparqlError::parse("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                Token::Iri(i) => i,
                other => {
                    return Err(SparqlError::parse(format!("expected prefix IRI, got {other:?}")))
                }
            };
            self.prefixes.insert(prefix, iri);
        }
        Ok(())
    }

    fn expand_pname(&self, prefix: &str, local: &str) -> Result<String, SparqlError> {
        let base = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| SparqlError::parse(format!("unknown prefix '{prefix}:'")))?;
        Ok(format!("{base}{local}"))
    }

    /// Parse a term pattern (variable or ground term).
    pub fn parse_term_pattern(&mut self) -> Result<TermPattern, SparqlError> {
        match self.bump() {
            Token::Var(v) => Ok(TermPattern::Var(v)),
            Token::Iri(i) => Ok(TermPattern::Ground(Term::Iri(i))),
            Token::PName(p, l) => Ok(TermPattern::Ground(Term::Iri(self.expand_pname(&p, &l)?))),
            Token::Word(w) if w == "a" => Ok(TermPattern::Ground(Term::iri(RDF_TYPE))),
            Token::Literal { value, datatype, lang } => {
                let datatype = match datatype {
                    None => None,
                    Some(Ok(iri)) => Some(iri),
                    Some(Err((p, l))) => Some(self.expand_pname(&p, &l)?),
                };
                Ok(TermPattern::Ground(Term::Literal { lexical: value, datatype, lang }))
            }
            Token::Integer(v) => Ok(TermPattern::Ground(Term::int(v))),
            Token::Double(v) => Ok(TermPattern::Ground(Term::double(v))),
            other => Err(SparqlError::parse(format!("expected term, got {other:?}"))),
        }
    }

    /// Parse a SELECT query body (after prologue).
    pub fn parse_select(&mut self) -> Result<SelectQuery, SparqlError> {
        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT");
        let projection = self.parse_projection()?;
        // WHERE is optional per the grammar.
        let _ = self.eat_word("WHERE");
        self.expect(&Token::LBrace)?;
        let pattern = self.parse_group()?;
        self.expect(&Token::RBrace)?;
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_word("ORDER") {
                self.expect_word("BY")?;
                loop {
                    match self.peek().clone() {
                        Token::Var(v) => {
                            self.bump();
                            order_by.push((v, Order::Asc));
                        }
                        Token::Word(w)
                            if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                        {
                            self.bump();
                            let dir = if w.eq_ignore_ascii_case("ASC") {
                                Order::Asc
                            } else {
                                Order::Desc
                            };
                            self.expect(&Token::LParen)?;
                            let v = match self.bump() {
                                Token::Var(v) => v,
                                other => {
                                    return Err(SparqlError::parse(format!(
                                        "expected variable in ORDER BY, got {other:?}"
                                    )))
                                }
                            };
                            self.expect(&Token::RParen)?;
                            order_by.push((v, dir));
                        }
                        _ => break,
                    }
                }
            } else if self.eat_word("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if self.eat_word("OFFSET") {
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }
        Ok(SelectQuery { distinct, projection, pattern, order_by, limit, offset })
    }

    fn parse_usize(&mut self) -> Result<usize, SparqlError> {
        match self.bump() {
            Token::Integer(v) if v >= 0 => Ok(v as usize),
            other => Err(SparqlError::parse(format!("expected non-negative int, got {other:?}"))),
        }
    }

    fn parse_projection(&mut self) -> Result<Projection, SparqlError> {
        if self.peek() == &Token::Star {
            self.bump();
            return Ok(Projection::All);
        }
        let mut items = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Var(v) => {
                    self.bump();
                    items.push(ProjectionItem::Var(v));
                }
                Token::LParen => {
                    self.bump();
                    let agg = self.parse_aggregate()?;
                    self.expect_word("AS")?;
                    let alias = match self.bump() {
                        Token::Var(v) => v,
                        other => {
                            return Err(SparqlError::parse(format!(
                                "expected alias variable, got {other:?}"
                            )))
                        }
                    };
                    self.expect(&Token::RParen)?;
                    items.push(ProjectionItem::Agg { agg, alias });
                }
                _ => break,
            }
        }
        if items.is_empty() {
            return Err(SparqlError::parse("empty SELECT projection"));
        }
        Ok(Projection::Items(items))
    }

    fn parse_aggregate(&mut self) -> Result<Aggregate, SparqlError> {
        self.expect_word("COUNT")?;
        self.expect(&Token::LParen)?;
        let agg = if self.peek() == &Token::Star {
            self.bump();
            Aggregate::CountAll
        } else {
            let distinct = self.eat_word("DISTINCT");
            match self.bump() {
                Token::Var(v) => Aggregate::CountVar { var: v, distinct },
                other => {
                    return Err(SparqlError::parse(format!(
                        "expected variable in COUNT, got {other:?}"
                    )))
                }
            }
        };
        self.expect(&Token::RParen)?;
        Ok(agg)
    }

    /// Parse a group graph pattern (between braces).
    pub fn parse_group(&mut self) -> Result<GroupPattern, SparqlError> {
        let mut group = GroupPattern::default();
        loop {
            match self.peek() {
                Token::RBrace | Token::Eof => break,
                Token::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    self.expect(&Token::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    group.filters.push(expr);
                    let _ = self.eat_dot();
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    self.expect(&Token::LBrace)?;
                    let inner = self.parse_group()?;
                    self.expect(&Token::RBrace)?;
                    group.optionals.push(inner);
                    let _ = self.eat_dot();
                }
                Token::LBrace => {
                    self.bump();
                    // Nested sub-select: `{ SELECT ... }`.
                    if self.at_word("SELECT") {
                        let sub = self.parse_select()?;
                        self.expect(&Token::RBrace)?;
                        group.subselects.push(sub);
                    } else {
                        // Plain nested group: merge.
                        let inner = self.parse_group()?;
                        self.expect(&Token::RBrace)?;
                        group.triples.extend(inner.triples);
                        group.filters.extend(inner.filters);
                        group.optionals.extend(inner.optionals);
                        group.subselects.extend(inner.subselects);
                    }
                    let _ = self.eat_dot();
                }
                _ => {
                    let s = self.parse_term_pattern()?;
                    let p = self.parse_term_pattern()?;
                    let o = self.parse_term_pattern()?;
                    group.triples.push(TriplePattern::new(s.clone(), p, o));
                    // Predicate-object lists with `;`, object lists with `,`.
                    loop {
                        if self.peek() == &Token::Semicolon {
                            self.bump();
                            if matches!(self.peek(), Token::RBrace | Token::Dot) {
                                break;
                            }
                            let p2 = self.parse_term_pattern()?;
                            let o2 = self.parse_term_pattern()?;
                            group.triples.push(TriplePattern::new(s.clone(), p2, o2));
                        } else if self.peek() == &Token::Comma {
                            self.bump();
                            let last =
                                group.triples.last().expect("object list follows a triple").clone();
                            let o2 = self.parse_term_pattern()?;
                            group.triples.push(TriplePattern::new(last.s, last.p, o2));
                        } else {
                            break;
                        }
                    }
                    let _ = self.eat_dot();
                }
            }
        }
        Ok(group)
    }

    fn eat_dot(&mut self) -> bool {
        if self.peek() == &Token::Dot {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Parse a filter expression with `||` (lowest), `&&`, comparisons.
    pub fn parse_expr(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_and()?;
        while self.peek() == &Token::OrOr {
            self.bump();
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_cmp()?;
        while self.peek() == &Token::AndAnd {
            self.bump();
            let right = self.parse_cmp()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_cmp(&mut self) -> Result<Expr, SparqlError> {
        let left = self.parse_primary()?;
        let op = match self.peek() {
            Token::Eq => Expr::Eq as fn(_, _) -> _,
            Token::Ne => Expr::Ne,
            Token::Lt => Expr::Lt,
            Token::Le => Expr::Le,
            Token::Gt => Expr::Gt,
            Token::Ge => Expr::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_primary()?;
        Ok(op(Box::new(left), Box::new(right)))
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlError> {
        match self.peek().clone() {
            Token::Bang => {
                self.bump();
                let inner = self.parse_primary()?;
                Ok(Expr::Not(Box::new(inner)))
            }
            Token::LParen => {
                self.bump();
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Word(w) if w.eq_ignore_ascii_case("BOUND") => {
                self.bump();
                self.expect(&Token::LParen)?;
                let v = match self.bump() {
                    Token::Var(v) => v,
                    other => {
                        return Err(SparqlError::parse(format!(
                            "expected variable in BOUND, got {other:?}"
                        )))
                    }
                };
                self.expect(&Token::RParen)?;
                Ok(Expr::Bound(v))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("CONTAINS") => {
                self.bump();
                self.expect(&Token::LParen)?;
                let inner = self.parse_expr()?;
                self.expect(&Token::Comma)?;
                let needle = match self.bump() {
                    Token::Literal { value, .. } => value,
                    other => {
                        return Err(SparqlError::parse(format!(
                            "expected string in CONTAINS, got {other:?}"
                        )))
                    }
                };
                self.expect(&Token::RParen)?;
                Ok(Expr::Contains(Box::new(inner), needle))
            }
            Token::Var(v) => {
                self.bump();
                Ok(Expr::Var(v))
            }
            _ => {
                let tp = self.parse_term_pattern()?;
                match tp {
                    TermPattern::Var(v) => Ok(Expr::Var(v)),
                    TermPattern::Ground(t) => Ok(Expr::Const(t)),
                }
            }
        }
    }

    /// Parse a template `{ triples }` used by updates.
    pub fn parse_template(&mut self) -> Result<Vec<TriplePattern>, SparqlError> {
        self.expect(&Token::LBrace)?;
        let group = self.parse_group()?;
        self.expect(&Token::RBrace)?;
        if !group.filters.is_empty() || !group.optionals.is_empty() || !group.subselects.is_empty()
        {
            return Err(SparqlError::parse("templates may only contain triples"));
        }
        Ok(group.triples)
    }

    /// Parse an update operation.
    pub fn parse_update(&mut self) -> Result<Update, SparqlError> {
        if self.eat_word("INSERT") {
            if self.eat_word("DATA") {
                let triples = self.parse_template()?;
                return Ok(Update::InsertData(triples));
            }
            let insert = self.parse_template()?;
            self.expect_word("WHERE")?;
            self.expect(&Token::LBrace)?;
            let pattern = self.parse_group()?;
            self.expect(&Token::RBrace)?;
            return Ok(Update::Modify { delete: vec![], insert, pattern });
        }
        self.expect_word("DELETE")?;
        if self.eat_word("DATA") {
            let triples = self.parse_template()?;
            return Ok(Update::DeleteData(triples));
        }
        if self.eat_word("WHERE") {
            let triples = self.parse_template()?;
            return Ok(Update::DeleteWhere(triples));
        }
        let delete = self.parse_template()?;
        if self.eat_word("INSERT") {
            let insert = self.parse_template()?;
            self.expect_word("WHERE")?;
            self.expect(&Token::LBrace)?;
            let pattern = self.parse_group()?;
            self.expect(&Token::RBrace)?;
            Ok(Update::Modify { delete, insert, pattern })
        } else {
            self.expect_word("WHERE")?;
            self.expect(&Token::LBrace)?;
            let pattern = self.parse_group()?;
            self.expect(&Token::RBrace)?;
            Ok(Update::Modify { delete, insert: vec![], pattern })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_with_prefixes() {
        let q = parse_select(
            "PREFIX dblp: <https://www.dblp.org/>\n\
             SELECT ?title ?venue WHERE {\n\
               ?paper a dblp:Publication .\n\
               ?paper dblp:title ?title .\n\
             } LIMIT 10",
        )
        .unwrap();
        assert!(!q.distinct);
        assert_eq!(q.output_vars(), vec!["title", "venue"]);
        assert_eq!(q.pattern.triples.len(), 2);
        assert_eq!(q.limit, Some(10));
        assert_eq!(
            q.pattern.triples[0].o.as_ground().unwrap().as_iri(),
            Some("https://www.dblp.org/Publication")
        );
    }

    #[test]
    fn parses_select_star_distinct() {
        let q = parse_select("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.distinct);
        assert_eq!(q.projection, Projection::All);
        assert_eq!(q.output_vars(), vec!["s", "p", "o"]);
    }

    #[test]
    fn parses_count_aggregate() {
        let q = parse_select("SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ?p ?o }").unwrap();
        match &q.projection {
            Projection::Items(items) => match &items[0] {
                ProjectionItem::Agg { agg, alias } => {
                    assert_eq!(alias, "n");
                    assert_eq!(agg, &Aggregate::CountVar { var: "x".into(), distinct: true });
                }
                other => panic!("unexpected projection {other:?}"),
            },
            other => panic!("unexpected projection {other:?}"),
        }
    }

    #[test]
    fn parses_filters() {
        let q =
            parse_select("SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a >= 18 && ?a < 65) }")
                .unwrap();
        assert_eq!(q.pattern.filters.len(), 1);
        match &q.pattern.filters[0] {
            Expr::And(l, _) => assert!(matches!(**l, Expr::Ge(_, _))),
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parses_optional_and_subselect() {
        let q = parse_select(
            "SELECT ?s WHERE {\n\
               ?s a <http://x/T> .\n\
               OPTIONAL { ?s <http://x/name> ?n . }\n\
               { SELECT ?s WHERE { ?s <http://x/q> ?z } }\n\
             }",
        )
        .unwrap();
        assert_eq!(q.pattern.optionals.len(), 1);
        assert_eq!(q.pattern.subselects.len(), 1);
    }

    #[test]
    fn parses_predicate_object_lists() {
        let q =
            parse_select("SELECT ?s WHERE { ?s a <http://x/T> ; <http://x/p> ?v , ?w . }").unwrap();
        assert_eq!(q.pattern.triples.len(), 3);
        assert_eq!(q.pattern.triples[2].o.as_var(), Some("w"));
    }

    #[test]
    fn parses_order_limit_offset() {
        let q = parse_select("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 5 OFFSET 2")
            .unwrap();
        assert_eq!(q.order_by, vec![("s".into(), Order::Desc)]);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn parses_insert_data() {
        let op =
            parse("PREFIX x: <http://x/>\nINSERT DATA { x:a x:p x:b . x:a x:q \"lit\" }").unwrap();
        match op {
            Operation::Update(Update::InsertData(ts)) => assert_eq!(ts.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_where() {
        let op = parse("DELETE WHERE { ?m a <http://kgnet/NodeClassifier> . ?m ?p ?o }").unwrap();
        match op {
            Operation::Update(Update::DeleteWhere(ts)) => assert_eq!(ts.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_template_where() {
        let op =
            parse("DELETE { ?m ?p ?o } WHERE { ?m a <http://kgnet/NodeClassifier> . ?m ?p ?o }")
                .unwrap();
        match op {
            Operation::Update(Update::Modify { delete, insert, pattern }) => {
                assert_eq!(delete.len(), 1);
                assert!(insert.is_empty());
                assert_eq!(pattern.triples.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_error() {
        assert!(parse_select("SELECT ?s WHERE { ?s a foo:T }").is_err());
    }

    #[test]
    fn a_keyword_expands_to_rdf_type() {
        let q = parse_select("SELECT ?s WHERE { ?s a <http://x/T> }").unwrap();
        assert_eq!(q.pattern.triples[0].p.as_ground().unwrap().as_iri(), Some(RDF_TYPE));
    }
}
