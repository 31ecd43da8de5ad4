//! A hand-rolled parser for classical Horn-clause syntax.
//!
//! Grammar (ASCII, `%` line comments):
//!
//! ```text
//! program  := clause*
//! clause   := term ( ":-" terms )? "."
//! terms    := term ("," term)*
//! term     := var | int | atom ( "(" terms ")" )? | list
//! list     := "[" (terms ("|" term)?)? "]"
//! atom     := lowercase ident        var := uppercase/underscore ident
//! ```

use std::fmt;

use super::db::Clause;
use super::term::Term;

/// Parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.src.len() && self.src[self.pos] == b'%' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", expected as char))
        }
    }

    fn eat_str(&mut self, expected: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(expected.as_bytes()) {
            self.pos += expected.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'[') => self.list(),
            Some(c) if c.is_ascii_digit() => {
                let id = self.ident();
                id.parse::<i64>()
                    .map(Term::Int)
                    .or_else(|_| self.err(format!("bad integer {id:?}")))
            }
            Some(b'-') => {
                self.pos += 1;
                let id = self.ident();
                id.parse::<i64>()
                    .map(|v| Term::Int(-v))
                    .or_else(|_| self.err(format!("bad integer -{id:?}")))
            }
            Some(c) if c.is_ascii_uppercase() || c == b'_' => {
                let name = self.ident();
                Ok(Term::Var(name))
            }
            Some(c) if c.is_ascii_lowercase() => {
                let name = self.ident();
                if self.peek() == Some(b'(') {
                    self.eat(b'(')?;
                    let args = self.terms()?;
                    self.eat(b')')?;
                    if args.is_empty() {
                        return self.err("empty argument list");
                    }
                    Ok(Term::Compound(name, args))
                } else {
                    Ok(Term::Atom(name))
                }
            }
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn terms(&mut self) -> Result<Vec<Term>, ParseError> {
        let mut out = vec![self.term()?];
        while self.peek() == Some(b',') {
            self.eat(b',')?;
            out.push(self.term()?);
        }
        Ok(out)
    }

    fn list(&mut self) -> Result<Term, ParseError> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.eat(b']')?;
            return Ok(Term::atom("[]"));
        }
        let items = self.terms()?;
        let tail = if self.peek() == Some(b'|') {
            self.eat(b'|')?;
            self.term()?
        } else {
            Term::atom("[]")
        };
        self.eat(b']')?;
        let mut t = tail;
        for item in items.into_iter().rev() {
            t = Term::Compound(".".into(), vec![item, t]);
        }
        Ok(t)
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        let head = self.term()?;
        if head.functor().is_none() {
            return self.err("clause head must be an atom or compound term");
        }
        let body = if self.eat_str(":-") {
            self.terms()?
        } else {
            Vec::new()
        };
        self.eat(b'.')?;
        Ok(Clause { head, body })
    }
}

/// Parse a whole program (a sequence of clauses).
pub fn parse_program(src: &str) -> Result<Vec<Clause>, ParseError> {
    let mut p = Parser::new(src);
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.clause()?);
    }
    Ok(out)
}

/// Parse a query: a comma-separated goal list (no trailing dot required).
pub fn parse_query(src: &str) -> Result<Vec<Term>, ParseError> {
    let mut p = Parser::new(src);
    let goals = p.terms()?;
    if p.peek() == Some(b'.') {
        p.eat(b'.')?;
    }
    if let Some(c) = p.peek() {
        return p.err(format!("trailing input starting at '{}'", c as char));
    }
    for g in &goals {
        if g.functor().is_none() {
            return Err(ParseError {
                at: 0,
                msg: format!("goal {g} is not callable"),
            });
        }
    }
    Ok(goals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_and_rules() {
        let prog = parse_program(
            "parent(tom, bob).\n\
             parent(bob, ann).\n\
             grand(X, Z) :- parent(X, Y), parent(Y, Z).",
        )
        .unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(prog[0].body.len(), 0);
        assert_eq!(prog[2].body.len(), 2);
        assert_eq!(prog[2].head.to_string(), "grand(X,Z)");
    }

    #[test]
    fn comments_and_whitespace() {
        let prog = parse_program("% a comment\n  a.  % trailing\nb(1).").unwrap();
        assert_eq!(prog.len(), 2);
        assert_eq!(prog[1].head.to_string(), "b(1)");
    }

    #[test]
    fn integers_including_negative() {
        let q = parse_query("f(3, -7)").unwrap();
        assert_eq!(q[0], Term::compound("f", vec![Term::Int(3), Term::Int(-7)]));
    }

    #[test]
    fn lists_sugar() {
        let q = parse_query("f([1,2,3], [], [H|T])").unwrap();
        assert_eq!(q[0].to_string(), "f([1,2,3],[],[H|T])");
    }

    #[test]
    fn variables_and_underscore() {
        let q = parse_query("f(X, _gap, Who)").unwrap();
        assert_eq!(q[0].vars(), vec!["X", "_gap", "Who"]);
    }

    #[test]
    fn query_with_conjunction() {
        let q = parse_query("parent(X, Y), parent(Y, Z).").unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn error_positions() {
        let e = parse_program("parent(tom bob).").unwrap_err();
        assert!(e.at > 0);
        assert!(e.to_string().contains("expected"));
        assert!(parse_program("f(").is_err());
        assert!(parse_query("3").is_err(), "a bare integer is not callable");
        assert!(parse_query("f(x) extra").is_err());
    }

    #[test]
    fn deep_nesting() {
        let q = parse_query("f(g(h(i(1))))").unwrap();
        assert_eq!(q[0].to_string(), "f(g(h(i(1))))");
    }
}
