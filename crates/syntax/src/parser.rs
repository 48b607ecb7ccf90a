//! Parser for the concrete syntax of Sequence Datalog programs.
//!
//! The accepted grammar is described in the crate-level documentation.  The parser
//! is a plain hand-written recursive-descent parser over a small token stream; it
//! reports byte offsets in errors and round-trips with the `Display`
//! implementations of the AST (see the `parse_print_roundtrip` tests).
//!
//! The lexer walks the input by byte offset and its tokens borrow names from the
//! input, so lexing allocates only the token vector.  Instance files take a
//! shorter route: a [`FactReader`] scans each ground fact line straight into
//! interned paths, with no tokens or syntax tree, and only a line it does not
//! accept goes through [`parse_rule`] (which then reports the error, or reads
//! a rare spelling such as `R(a) <- .`).

use crate::ast::{Atom, Equation, Literal, Predicate, Program, Rule, Stratum};
use crate::error::SyntaxError;
use crate::term::{PathExpr, Term, Var};
use seqdl_core::{AtomId, Path, RelName, Value};
use std::borrow::Cow;

/// Parse a complete program (one or more strata separated by `---` lines).
pub fn parse_program(input: &str) -> Result<Program, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    parser.program()
}

/// Parse a single rule, e.g. `S($x) <- R($x), a·$x = $x·a.`
pub fn parse_rule(input: &str) -> Result<Rule, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    let rule = parser.rule()?;
    parser.expect_end()?;
    Ok(rule)
}

/// Parse a single path expression, e.g. `a·<$x·@y>·$z`.
pub fn parse_expr(input: &str) -> Result<PathExpr, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    parser.expect_end()?;
    Ok(expr)
}

/// A token.  Names borrow from the input; only a quoted atom containing an
/// escape owns its (unescaped) text.
#[derive(Debug, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Quoted(Cow<'a, str>),
    AtomVar(&'a str),
    PathVar(&'a str),
    LParen,
    RParen,
    LAngle,
    RAngle,
    Comma,
    RuleEnd,
    Concat,
    Arrow,
    Eq,
    Neq,
    Not,
    StratumSep,
    Eps,
}

#[derive(Debug)]
struct Spanned<'a> {
    tok: Tok<'a>,
    offset: usize,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Can `c` start a term?  A `.` immediately followed by such a character is
/// concatenation; any other `.` ends a rule.
fn starts_term(c: char) -> bool {
    is_ident_char(c) || matches!(c, '@' | '$' | '<' | '\'' | '⟨')
}

/// The byte length of the identifier at the start of `text` (identifier
/// characters are ASCII, so bytes and characters coincide).
fn ident_len(text: &str) -> usize {
    text.bytes()
        .take_while(|&b| is_ident_char(char::from(b)))
        .count()
}

/// The body of a quoted atom whose opening `'` precedes `text`, and the bytes
/// consumed including the closing `'`; `None` if the quote is never closed.
/// `\'` stands for a quote and `\\` for one backslash; any other backslash
/// is literal.
fn quoted_atom(text: &str) -> Option<(Cow<'_, str>, usize)> {
    let bytes = text.as_bytes();
    let mut unescaped: Option<String> = None;
    let mut run_start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if matches!(bytes.get(i + 1), Some(b'\'' | b'\\')) => {
                let owned = unescaped.get_or_insert_with(String::new);
                owned.push_str(&text[run_start..i]);
                owned.push(char::from(bytes[i + 1]));
                i += 2;
                run_start = i;
            }
            b'\'' => {
                let name = match unescaped {
                    Some(mut owned) => {
                        owned.push_str(&text[run_start..i]);
                        Cow::Owned(owned)
                    }
                    None => Cow::Borrowed(&text[..i]),
                };
                return Some((name, i + 1));
            }
            _ => i += 1,
        }
    }
    None
}

/// The characters the lexer skips between tokens.
const SPACE: [char; 4] = [' ', '\t', '\r', '\n'];

/// Split `input` into tokens, walking it by byte offset.
fn lex(input: &str) -> Result<Vec<Spanned<'_>>, SyntaxError> {
    // Sized for about one token per two bytes, so a fact line never regrows.
    let mut out = Vec::with_capacity(input.len() / 2 + 1);
    let mut i = 0usize;
    while let Some(c) = input[i..].chars().next() {
        let offset = i;
        let width = c.len_utf8();
        let rest = &input[i + width..];
        let (tok, len) = match c {
            c if SPACE.contains(&c) => {
                i += 1;
                continue;
            }
            '%' | '#' => {
                i += input[i..].find('\n').unwrap_or(input.len() - i);
                continue;
            }
            '/' if rest.starts_with('/') => {
                i += input[i..].find('\n').unwrap_or(input.len() - i);
                continue;
            }
            '-' if rest.starts_with("--") => {
                let dashes = input[i..].bytes().take_while(|&b| b == b'-').count();
                (Tok::StratumSep, dashes)
            }
            '(' => (Tok::LParen, width),
            ')' => (Tok::RParen, width),
            ',' | '∧' => (Tok::Comma, width),
            '<' if rest.starts_with('-') => (Tok::Arrow, 2),
            '<' | '⟨' => (Tok::LAngle, width),
            '>' | '⟩' => (Tok::RAngle, width),
            '←' => (Tok::Arrow, width),
            ':' if rest.starts_with('-') => (Tok::Arrow, 2),
            '·' | '*' => (Tok::Concat, width),
            '.' => {
                // A dot immediately followed by something that can start a term is
                // concatenation; otherwise it ends a rule.
                let is_concat = rest.chars().next().is_some_and(starts_term);
                (if is_concat { Tok::Concat } else { Tok::RuleEnd }, width)
            }
            '=' => (Tok::Eq, width),
            '≠' => (Tok::Neq, width),
            '!' if rest.starts_with('=') => (Tok::Neq, 2),
            '!' | '~' | '¬' => (Tok::Not, width),
            '@' | '$' => {
                let name = &rest[..ident_len(rest)];
                if name.is_empty() {
                    return Err(SyntaxError::Lex {
                        offset,
                        message: format!("expected a variable name after `{c}`"),
                    });
                }
                let tok = if c == '@' {
                    Tok::AtomVar(name)
                } else {
                    Tok::PathVar(name)
                };
                (tok, width + name.len())
            }
            '\'' => match quoted_atom(rest) {
                Some((name, consumed)) => (Tok::Quoted(name), width + consumed),
                None => {
                    return Err(SyntaxError::Lex {
                        offset,
                        message: "unterminated quoted atom".into(),
                    })
                }
            },
            c if is_ident_char(c) => {
                let name = &input[i..i + ident_len(&input[i..])];
                let tok = if name == "eps" {
                    Tok::Eps
                } else {
                    Tok::Ident(name)
                };
                (tok, name.len())
            }
            'ε' => (Tok::Eps, width),
            other => {
                return Err(SyntaxError::Lex {
                    offset,
                    message: format!("unexpected character `{other}`"),
                })
            }
        };
        out.push(Spanned { tok, offset });
        i += len;
    }
    Ok(out)
}

/// Reads ground fact lines, such as `R(a·<b·'it\'s'>, eps).`, straight into
/// interned paths: no token vector and no syntax tree.  The grammar is the
/// ground part of the rule grammar: bare and quoted atoms, `eps`/`ε`,
/// `<…>`/`⟨…⟩` packing, `·`/`*`/`.` concatenation, spaces between tokens, a
/// trailing `%`/`#`/`//` comment, and the nullary `R.` and `R().`.
///
/// [`FactReader::read`] accepts a line only where [`parse_rule`] reads it as
/// a bodiless ground rule, and then returns the same fact.  It declines
/// everything else, well-formed or not (`R(a) <- .`, `R(a ∧ b).`, `R($x).`),
/// so that the caller can hand the line to the rule parser for its reading or
/// its error.  A declined line may already have interned a prefix of its
/// atoms and paths.
#[derive(Debug, Default)]
pub struct FactReader {
    /// The values of the paths being read, the innermost packed one last;
    /// reused from line to line.
    values: Vec<Value>,
    /// The row of the last fact read; reused from line to line.
    row: Vec<Path>,
    /// The text and the interned name of the last relation read, so a run of
    /// lines naming one relation interns its name once.
    last_name: String,
    last_relation: Option<RelName>,
}

impl FactReader {
    /// A reader with an empty value buffer.
    pub fn new() -> FactReader {
        FactReader::default()
    }

    /// Read `line` as one ground fact `relation(row)`, or `None` if the line
    /// is not one in the grammar above.  The row borrows a buffer that the
    /// next line reuses, so a fact is read with no row of its own.
    pub fn read(&mut self, line: &str) -> Option<(RelName, &[Path])> {
        self.values.clear();
        self.row.clear();
        let mut cur = line.trim_start_matches(SPACE);
        let name = &cur[..ident_len(cur)];
        if name.is_empty() || name == "eps" {
            return None;
        }
        let relation = match self.last_relation {
            Some(relation) if self.last_name == name => relation,
            _ => {
                let relation = RelName::new(name);
                self.last_name.clear();
                self.last_name.push_str(name);
                self.last_relation = Some(relation);
                relation
            }
        };
        cur = cur[name.len()..].trim_start_matches(SPACE);
        if let Some(rest) = cur.strip_prefix('(') {
            cur = rest.trim_start_matches(SPACE);
            if !cur.starts_with(')') {
                loop {
                    let path = self.expr(&mut cur)?;
                    self.row.push(path);
                    let Some(rest) = cur.strip_prefix(',') else {
                        break;
                    };
                    cur = rest.trim_start_matches(SPACE);
                }
            }
            cur = cur.strip_prefix(')')?;
        }
        let rest = cur
            .trim_start_matches(SPACE)
            .strip_prefix('.')?
            .trim_start_matches(SPACE);
        let ends = rest.is_empty() || rest.starts_with(['%', '#']) || rest.starts_with("//");
        ends.then_some((relation, &self.row))
    }

    /// Read a nonempty `·`-separated run of items at the start of `cur` and
    /// intern it; `cur` is left after the spaces that follow it.
    fn expr(&mut self, cur: &mut &str) -> Option<Path> {
        let start = self.values.len();
        loop {
            self.item(cur)?;
            *cur = cur.trim_start_matches(SPACE);
            let concat = cur
                .strip_prefix(['·', '*'])
                .or_else(|| cur.strip_prefix('.').filter(|r| r.starts_with(starts_term)));
            match concat {
                Some(rest) => *cur = rest.trim_start_matches(SPACE),
                None => break,
            }
        }
        let path = Path::from_slice(&self.values[start..]);
        self.values.truncate(start);
        Some(path)
    }

    /// Read one item at the start of `cur` — an atom, `eps`, or a packed
    /// path — pushing its value, if any, onto `values`.
    fn item(&mut self, cur: &mut &str) -> Option<()> {
        let len = ident_len(cur);
        if len > 0 {
            let name = &cur[..len];
            if name != "eps" {
                self.values.push(Value::Atom(AtomId::new(name)));
            }
            *cur = &cur[len..];
        } else if let Some(rest) = cur.strip_prefix('\'') {
            let (name, consumed) = quoted_atom(rest)?;
            self.values.push(Value::Atom(AtomId::new(&name)));
            *cur = &rest[consumed..];
        } else if let Some(rest) = cur.strip_prefix('ε') {
            *cur = rest;
        } else {
            let rest = cur.strip_prefix(['<', '⟨'])?;
            *cur = rest.trim_start_matches(SPACE);
            let inner = if cur.starts_with(['>', '⟩']) {
                Path::empty()
            } else {
                self.expr(cur)?
            };
            *cur = cur.strip_prefix(['>', '⟩'])?;
            self.values.push(Value::Packed(inner));
        }
        Some(())
    }
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Spanned<'a>>) -> Parser<'a> {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos + n).map(|s| &s.tok)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0))
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, SyntaxError> {
        Err(SyntaxError::Parse {
            offset: self.offset(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok<'a>, what: &str) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(t) if *t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => self.error(format!("expected {what}, found {t:?}")),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    fn expect_end(&self) -> Result<(), SyntaxError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.error("unexpected trailing input")
        }
    }

    fn program(&mut self) -> Result<Program, SyntaxError> {
        let mut strata = Vec::new();
        let mut current = Vec::new();
        // Leading separators are harmless.
        while self.peek() == Some(&Tok::StratumSep) {
            self.pos += 1;
        }
        while self.peek().is_some() {
            if self.peek() == Some(&Tok::StratumSep) {
                self.pos += 1;
                strata.push(Stratum::new(std::mem::take(&mut current)));
                continue;
            }
            current.push(self.rule()?);
        }
        strata.push(Stratum::new(current));
        Ok(Program::new(strata))
    }

    fn rule(&mut self) -> Result<Rule, SyntaxError> {
        let head = self.predicate()?;
        let body = if self.peek() == Some(&Tok::Arrow) {
            self.pos += 1;
            if self.peek() == Some(&Tok::RuleEnd) {
                Vec::new()
            } else {
                let mut body = vec![self.literal()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    body.push(self.literal()?);
                }
                body
            }
        } else {
            Vec::new()
        };
        self.expect(Tok::RuleEnd, "`.` at the end of the rule")?;
        Ok(Rule::new(head, body))
    }

    /// Is the current position the start of `Ident (`, i.e. a predicate application?
    fn looks_like_predicate(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(_))) && self.peek_at(1) == Some(&Tok::LParen)
    }

    fn atom(&mut self) -> Result<Atom, SyntaxError> {
        if self.looks_like_predicate() {
            return Ok(Atom::Pred(self.predicate()?));
        }
        // Otherwise parse a path expression; an `=`/`!=` makes it an equation, a bare
        // single identifier is a nullary predicate.
        let start_pos = self.pos;
        let lhs = self.expr()?;
        match self.peek() {
            Some(Tok::Eq) => {
                self.pos += 1;
                let rhs = self.expr()?;
                Ok(Atom::Eq(Equation::new(lhs, rhs)))
            }
            Some(Tok::Neq) => {
                // A nonequality is a negated-equation *literal*, not an atom; rewind
                // and let `literal` re-parse it with the right polarity.
                self.pos = start_pos;
                self.nonequality_marker()?;
                unreachable!("nonequality_marker always errors");
            }
            _ => {
                if lhs.terms().len() == 1 {
                    if let Term::Const(a) = &lhs.terms()[0] {
                        return Ok(Atom::Pred(Predicate::nullary(RelName::new(&a.name()))));
                    }
                }
                self.error("expected `=`, `!=`, or a predicate")
            }
        }
    }

    /// Helper used by [`Parser::atom`] to signal to [`Parser::literal`] that the
    /// upcoming atom is a nonequality; never returns `Ok`.
    fn nonequality_marker(&self) -> Result<(), SyntaxError> {
        Err(SyntaxError::Parse {
            offset: usize::MAX,
            message: "__nonequality__".into(),
        })
    }

    fn predicate(&mut self) -> Result<Predicate, SyntaxError> {
        let relation = match self.peek() {
            Some(&Tok::Ident(name)) => RelName::new(name),
            Some(other) => {
                // The offending token is consumed, so the error points past it.
                let message = format!("expected a relation name, found {other:?}");
                self.pos += 1;
                return self.error(message);
            }
            None => return self.error("expected a relation name, found end of input"),
        };
        self.pos += 1;
        if self.peek() != Some(&Tok::LParen) {
            return Ok(Predicate::nullary(relation));
        }
        self.pos += 1;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(Predicate::new(relation, args));
        }
        args.push(self.expr()?);
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            args.push(self.expr()?);
        }
        self.expect(Tok::RParen, "`)` closing the predicate")?;
        Ok(Predicate::new(relation, args))
    }

    fn expr(&mut self) -> Result<PathExpr, SyntaxError> {
        let mut terms = Vec::new();
        self.expr_item(&mut terms)?;
        while self.peek() == Some(&Tok::Concat) {
            self.pos += 1;
            self.expr_item(&mut terms)?;
        }
        Ok(PathExpr::from_terms(terms))
    }

    fn expr_item(&mut self, terms: &mut Vec<Term>) -> Result<(), SyntaxError> {
        let term = match self.peek() {
            Some(&Tok::Ident(name)) => Term::Const(AtomId::new(name)),
            Some(Tok::Quoted(name)) => Term::Const(AtomId::new(name)),
            Some(&Tok::AtomVar(name)) => Term::Var(Var::atom(name)),
            Some(&Tok::PathVar(name)) => Term::Var(Var::path(name)),
            Some(Tok::Eps) => {
                self.pos += 1;
                // ε contributes no terms: a·eps·b is a·b, and a lone eps is the
                // empty expression.
                return Ok(());
            }
            Some(Tok::LAngle) => {
                self.pos += 1;
                let inner = if self.peek() == Some(&Tok::RAngle) {
                    PathExpr::empty()
                } else {
                    self.expr()?
                };
                self.expect(Tok::RAngle, "`>` closing the packed expression")?;
                terms.push(Term::Packed(inner));
                return Ok(());
            }
            Some(other) => {
                return self.error(format!("expected a path-expression item, found {other:?}"))
            }
            None => return self.error("expected a path-expression item, found end of input"),
        };
        self.pos += 1;
        terms.push(term);
        Ok(())
    }
}

// The `atom` method signals nonequalities with a sentinel error; intercept it in
// `literal` by re-parsing.  To keep that logic local we implement it as a free
// function extension here.
impl Parser<'_> {
    fn literal(&mut self) -> Result<Literal, SyntaxError> {
        let start = self.pos;
        match self.literal_inner() {
            Ok(l) => Ok(l),
            Err(SyntaxError::Parse { offset, message })
                if offset == usize::MAX && message == "__nonequality__" =>
            {
                self.pos = start;
                let lhs = self.expr()?;
                self.expect(Tok::Neq, "`!=`")?;
                let rhs = self.expr()?;
                Ok(Literal::neq(lhs, rhs))
            }
            Err(e) => Err(e),
        }
    }

    fn literal_inner(&mut self) -> Result<Literal, SyntaxError> {
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            if self.peek() == Some(&Tok::LParen) && !self.looks_like_predicate() {
                self.pos += 1;
                let lhs = self.expr()?;
                self.expect(Tok::Eq, "`=` inside negated equation")?;
                let rhs = self.expr()?;
                self.expect(Tok::RParen, "`)` after negated equation")?;
                return Ok(Literal::neq(lhs, rhs));
            }
            let atom = self.atom()?;
            return Ok(Literal::negative(atom));
        }
        let atom = self.atom()?;
        Ok(Literal::positive(atom))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::term::VarKind;

    #[test]
    fn parses_example_3_1_only_as() {
        let p = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(p.rule_count(), 1);
        let rule = p.rules().next().unwrap();
        assert_eq!(rule.head.relation.name(), "S");
        assert_eq!(rule.positive_body_equations().len(), 1);
        assert_eq!(rule.to_string(), "S($x) <- R($x), a·$x = $x·a.");
    }

    #[test]
    fn parses_ascii_dot_concatenation() {
        let p = parse_program("S($x) <- R($x), a.$x = $x.a.").unwrap();
        assert_eq!(
            p.rules().next().unwrap().to_string(),
            "S($x) <- R($x), a·$x = $x·a."
        );
    }

    #[test]
    fn parses_example_2_1_nfa_program() {
        let text = "
            S(@q·$x, eps) <- R($x), N(@q).
            S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).
            A($x) <- S(@q, $x), F(@q).
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.rule_count(), 3);
        let arities = p.relation_arities().unwrap();
        assert_eq!(arities[&RelName::new("D")], 3);
        assert_eq!(arities[&RelName::new("S")], 2);
        assert_eq!(arities[&RelName::new("A")], 1);
    }

    #[test]
    fn parses_example_2_2_packing_and_nonequalities() {
        let text = "
            T($u·<$s>·$v) <- R($u·$s·$v), S($s).
            A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.rule_count(), 2);
        let rules: Vec<_> = p.rules().collect();
        assert!(rules[0].has_packing());
        assert_eq!(rules[1].negative_body_equations().len(), 3);
        assert_eq!(rules[1].head.arity(), 0);
    }

    #[test]
    fn parses_negated_predicates_and_parenthesised_nonequalities() {
        let text = "
            W(@x) <- R(@x·@y), !B(@y).
            S(@x) <- R(@x·@y), ¬W(@x).
            U($x, $y) <- U($x, @a·$y·@b), ¬(@a=@b).
        ";
        let p = parse_program(text).unwrap();
        let rules: Vec<_> = p.rules().collect();
        assert_eq!(rules[0].negative_body_predicates().len(), 1);
        assert_eq!(rules[1].negative_body_predicates().len(), 1);
        assert_eq!(rules[2].negative_body_equations().len(), 1);
    }

    #[test]
    fn parses_strata_separated_by_dashes() {
        let text = "
            T($x) <- R($x).
            ---
            S($x) <- R($x), !T($x).
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.stratum_count(), 2);
        assert_eq!(p.strata[0].rules.len(), 1);
        assert_eq!(p.strata[1].rules.len(), 1);
    }

    #[test]
    fn parses_facts_and_nullary_heads() {
        let p = parse_program("T(a). A <- T($x).").unwrap();
        let rules: Vec<_> = p.rules().collect();
        assert!(rules[0].body.is_empty());
        assert_eq!(rules[1].head.arity(), 0);
    }

    #[test]
    fn parses_packed_and_nested_expressions() {
        let e = parse_expr("@a·<<$x·$y>·$z>·<eps>").unwrap();
        assert_eq!(e.to_string(), "@a·<<$x·$y>·$z>·<eps>");
        assert_eq!(e.packing_depth(), 2);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn eps_means_the_empty_expression() {
        assert!(parse_expr("eps").unwrap().is_empty());
        assert_eq!(parse_expr("a·eps·b").unwrap().to_string(), "a·b");
        let r = parse_rule("T($x, eps) <- R($x).").unwrap();
        assert!(r.head.args[1].is_empty());
    }

    #[test]
    fn quoted_atoms_allow_arbitrary_names() {
        let e = parse_expr("'complete order'·'receive payment'").unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.to_string(), "'complete order'·'receive payment'");
        // `\'` is an escaped quote and `\\` an escaped backslash; any other
        // backslash is literal.
        let e = parse_expr("'it\\'s'·'a\\b'·'a\\\\b'·'a\\\\'").unwrap();
        assert_eq!(e.terms()[0], Term::Const(AtomId::new("it's")));
        assert_eq!(e.terms()[1], Term::Const(AtomId::new("a\\b")));
        assert_eq!(e.terms()[2], Term::Const(AtomId::new("a\\b")));
        assert_eq!(e.terms()[3], Term::Const(AtomId::new("a\\")));
    }

    #[test]
    fn variables_have_kinds() {
        let e = parse_expr("@q·$x").unwrap();
        let vars = e.vars();
        assert_eq!(vars[0].kind, VarKind::Atom);
        assert_eq!(vars[1].kind, VarKind::Path);
    }

    #[test]
    fn comments_are_ignored() {
        let text = "
            % a comment
            # another comment
            // yet another
            S($x) <- R($x). % trailing comment
        ";
        assert_eq!(parse_program(text).unwrap().rule_count(), 1);
    }

    #[test]
    fn alternative_arrows_are_accepted() {
        assert!(parse_rule("S($x) :- R($x).").is_ok());
        assert!(parse_rule("S($x) ← R($x).").is_ok());
    }

    /// The error kind and byte offset of a failed parse.
    fn error_at<T: std::fmt::Debug>(result: Result<T, SyntaxError>) -> (&'static str, usize) {
        match result.unwrap_err() {
            SyntaxError::Lex { offset, .. } => ("lex", offset),
            SyntaxError::Parse { offset, .. } => ("parse", offset),
            other => panic!("expected a lex or parse error, got {other:?}"),
        }
    }

    #[test]
    fn lex_and_parse_errors_are_reported_with_offsets() {
        // Offsets are in bytes: `·` and `ε` are two bytes, `⟨` and `⟩` three.
        assert_eq!(error_at(parse_program("S($x) <- R($x)")), ("parse", 14));
        assert_eq!(error_at(parse_program("S(&x) <- R($x).")), ("lex", 2));
        assert_eq!(error_at(parse_expr("'unterminated")), ("lex", 0));
        assert_eq!(error_at(parse_expr("a =")), ("parse", 2));

        assert_eq!(error_at(parse_program("S(a·b, &x).")), ("lex", 8));
        assert_eq!(error_at(parse_program("S(ε·?).")), ("lex", 6));
        assert_eq!(error_at(parse_program("S(⟨a⟩·$).")), ("lex", 11));
        assert_eq!(error_at(parse_program("S('x·y', 'oops).")), ("lex", 10));
        assert_eq!(error_at(parse_program("S('it\\'s'·&).")), ("lex", 11));

        assert_eq!(
            error_at(parse_program("S(a·b) <- R(⟨a⟩·ε) R(b).")),
            ("parse", 26)
        );
        assert_eq!(error_at(parse_program("S('a·b' ·).")), ("parse", 11));
        assert_eq!(error_at(parse_program("S('ε') <- R(ε)")), ("parse", 16));
        assert_eq!(error_at(parse_rule("⟨a⟩(b).")), ("parse", 3));
    }

    #[test]
    fn parse_print_roundtrip_on_paper_programs() {
        let sources = [
            "S($x) <- R($x), a·$x = $x·a.",
            "T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).",
            "T($x·a·a·$x·b) <- R($x).\nS($x) <- T(a·$x·a·b·$x).",
            "W(@x) <- R(@x·@y), !B(@y).\nS(@x) <- R(@x·@y), !W(@x).",
        ];
        for src in sources {
            let p1 = parse_program(src).unwrap();
            let printed = p1.to_string();
            let p2 = parse_program(&printed).unwrap();
            assert_eq!(p1, p2, "round-trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn empty_strata_are_allowed() {
        let p = parse_program("---\nS($x) <- R($x).").unwrap();
        assert_eq!(p.stratum_count(), 1);
        let p = parse_program("S($x) <- R($x).\n---\n").unwrap();
        assert_eq!(p.stratum_count(), 2);
        assert!(p.strata[1].rules.is_empty());
    }
}
