//! Parser for the ASCII SPL syntax produced by `Display`.
//!
//! Grammar (whitespace-insensitive):
//! ```text
//! expr    := tensor ('*' tensor)*                 -- composition
//! tensor  := atom (tensop atom)*                  -- left-associative
//! tensop  := '@' | '@||' | '@bar'
//! atom    := 'I_' NUM | 'F_2' | 'DFT_' NUM
//!          | 'L^' NUM '_' NUM
//!          | 'T^' NUM '_' NUM ('[' NUM '..' NUM ']')?
//!          | 'dsum' '||'? '(' expr (',' expr)* ')'
//!          | 'smp' '(' NUM ',' NUM ')' '[' expr ']'
//!          | 'diag' '(' FLOAT ',' FLOAT (';' FLOAT ',' FLOAT)* ')'
//!          | '(' expr ')'
//! ```
//! `A @|| B` requires `A = I_p` (tagged parallel tensor); `A @bar I_µ`
//! requires `A` to denote a permutation.

use crate::ast::Spl;
use crate::builder;
use crate::cplx::Cplx;
use crate::diag::DiagSpec;
use std::sync::Arc;

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse an SPL formula from its ASCII syntax.
pub fn parse(input: &str) -> Result<Spl, ParseError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn eat_str(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn num(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| self.err(format!("bad number: {e}")))
    }

    fn float(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.pos < self.s.len() && (self.s[self.pos] == b'-' || self.s[self.pos] == b'+') {
            self.pos += 1;
        }
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_digit()
                || self.s[self.pos] == b'.'
                || self.s[self.pos] == b'e'
                || self.s[self.pos] == b'E'
                || (self.pos > start
                    && (self.s[self.pos] == b'-' || self.s[self.pos] == b'+')
                    && matches!(self.s[self.pos - 1], b'e' | b'E')))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected float"));
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| self.err(format!("bad float: {e}")))
    }

    fn ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.s[start..self.pos]).into_owned()
    }

    fn expr(&mut self) -> Result<Spl, ParseError> {
        let mut parts = vec![self.tensor()?];
        while self.eat(b'*') {
            parts.push(self.tensor()?);
        }
        Ok(builder::compose(parts))
    }

    fn tensor(&mut self) -> Result<Spl, ParseError> {
        let mut left = self.atom()?;
        loop {
            self.skip_ws();
            if !self.s[self.pos..].starts_with(b"@") {
                break;
            }
            self.pos += 1;
            if self.s[self.pos..].starts_with(b"||") {
                self.pos += 2;
                let right = self.atom()?;
                let p = match left {
                    Spl::I(p) => p,
                    other => {
                        return Err(self.err(format!("@|| requires I_p on the left, got {other}")))
                    }
                };
                left = builder::tensor_par(p, right);
            } else if self.s[self.pos..].starts_with(b"bar") {
                self.pos += 3;
                let right = self.atom()?;
                let mu = match right {
                    Spl::I(mu) => mu,
                    other => {
                        return Err(self.err(format!("@bar requires I_µ on the right, got {other}")))
                    }
                };
                let perm = left.as_perm().ok_or_else(|| {
                    self.err(format!(
                        "@bar requires a permutation on the left, got {left}"
                    ))
                })?;
                left = builder::perm_bar(perm, mu);
            } else {
                let right = self.atom()?;
                left = builder::tensor(left, right);
            }
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Spl, ParseError> {
        self.skip_ws();
        if self.eat(b'(') {
            let e = self.expr()?;
            self.expect(b')')?;
            return Ok(e);
        }
        let id = self.ident();
        match id.as_str() {
            "I" => {
                self.expect(b'_')?;
                Ok(Spl::I(self.num()?))
            }
            "F" => {
                self.expect(b'_')?;
                let n = self.num()?;
                if n != 2 {
                    return Err(self.err("only F_2 is a primitive"));
                }
                Ok(Spl::F2)
            }
            "DFT" => {
                self.expect(b'_')?;
                Ok(Spl::Dft(self.num()?))
            }
            "L" => {
                self.expect(b'^')?;
                let mn = self.num()?;
                self.expect(b'_')?;
                let m = self.num()?;
                if m == 0 || mn % m != 0 {
                    return Err(self.err(format!("L^{mn}_{m}: m must divide mn")));
                }
                Ok(builder::stride(mn, m))
            }
            "T" => {
                self.expect(b'^')?;
                let mn = self.num()?;
                self.expect(b'_')?;
                let n = self.num()?;
                if n == 0 || mn % n != 0 {
                    return Err(self.err(format!("T^{mn}_{n}: n must divide mn")));
                }
                let m = mn / n;
                if self.eat(b'[') {
                    let off = self.num()?;
                    if !self.eat_str("..") {
                        return Err(self.err("expected '..' in twiddle segment"));
                    }
                    let end = self.num()?;
                    self.expect(b']')?;
                    if end < off || end > mn {
                        return Err(self.err("bad twiddle segment range"));
                    }
                    Ok(Spl::Diag(DiagSpec::Twiddle {
                        m,
                        n,
                        off,
                        len: end - off,
                    }))
                } else {
                    Ok(builder::twiddle(m, n))
                }
            }
            "dsum" => {
                let par = self.eat_str("||");
                self.expect(b'(')?;
                let mut parts = vec![self.expr()?];
                while self.eat(b',') {
                    parts.push(self.expr()?);
                }
                self.expect(b')')?;
                Ok(if par {
                    builder::dsum_par(parts)
                } else {
                    builder::dsum(parts)
                })
            }
            "smp" => {
                self.expect(b'(')?;
                let p = self.num()?;
                self.expect(b',')?;
                let mu = self.num()?;
                self.expect(b')')?;
                self.expect(b'[')?;
                let e = self.expr()?;
                self.expect(b']')?;
                Ok(builder::smp(p, mu, e))
            }
            "vec" => {
                self.expect(b'(')?;
                let nu = self.num()?;
                self.expect(b')')?;
                self.expect(b'[')?;
                let e = self.expr()?;
                self.expect(b']')?;
                Ok(builder::vec_tag(nu, e))
            }
            "diag" => {
                self.expect(b'(')?;
                let mut entries = Vec::new();
                loop {
                    let re = self.float()?;
                    self.expect(b',')?;
                    let im = self.float()?;
                    entries.push(Cplx::new(re, im));
                    if !self.eat(b';') {
                        break;
                    }
                }
                self.expect(b')')?;
                Ok(Spl::Diag(DiagSpec::Explicit(Arc::new(entries))))
            }
            "" => Err(self.err("expected formula atom")),
            other => Err(self.err(format!("unknown atom '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::matrix::assert_formula_eq;

    fn roundtrip(f: &Spl) {
        let s = f.to_string();
        let g = parse(&s).unwrap_or_else(|e| panic!("cannot reparse `{s}`: {e}"));
        // Structures may differ (e.g. Perm nodes vs Tensor-of-perm), so
        // compare semantics.
        if f.dim() <= 64 {
            assert_formula_eq(f, &g, 1e-9);
        } else {
            assert_eq!(f.dim(), g.dim());
        }
    }

    #[test]
    fn parse_primitives() {
        assert_eq!(parse("I_4").unwrap(), i(4));
        assert_eq!(parse("F_2").unwrap(), f2());
        assert_eq!(parse("DFT_16").unwrap(), dft(16));
        assert_eq!(parse("T^8_4").unwrap(), twiddle(2, 4));
        assert_eq!(parse("L^8_2").unwrap(), stride(8, 2));
    }

    #[test]
    fn parse_compose_and_tensor() {
        let f = parse("(DFT_2 @ I_4) * T^8_4 * (I_2 @ DFT_4) * L^8_2").unwrap();
        assert_formula_eq(&f, &cooley_tukey(2, 4), 1e-9);
    }

    #[test]
    fn parse_parallel_constructs() {
        let f = parse("I_2 @|| DFT_4").unwrap();
        assert_eq!(f, tensor_par(2, dft(4)));
        let g = parse("smp(2,4)[DFT_8]").unwrap();
        assert_eq!(g, smp(2, 4, dft(8)));
        let h = parse("L^4_2 @bar I_4").unwrap();
        assert_eq!(h, perm_bar(crate::perm::Perm::stride(4, 2), 4));
        let d = parse("dsum||(DFT_2, DFT_2)").unwrap();
        assert_eq!(d, dsum_par(vec![dft(2), dft(2)]));
    }

    #[test]
    fn parse_twiddle_segment() {
        let f = parse("T^8_4[4..8]").unwrap();
        assert_eq!(
            f,
            Spl::Diag(crate::diag::DiagSpec::Twiddle {
                m: 2,
                n: 4,
                off: 4,
                len: 4
            })
        );
    }

    #[test]
    fn parse_explicit_diag() {
        let f = parse("diag(1,0;0,-1.5)").unwrap();
        match f {
            Spl::Diag(crate::diag::DiagSpec::Explicit(v)) => {
                assert_eq!(v.len(), 2);
                assert!(v[1].approx_eq(Cplx::new(0.0, -1.5), 0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrip_various() {
        roundtrip(&cooley_tukey(2, 4));
        roundtrip(&six_step(4, 4));
        roundtrip(&tensor_par(2, tensor(i(2), dft(4))));
        roundtrip(&smp(2, 4, dft(32)));
        roundtrip(&dsum(vec![dft(2), f2(), i(3)]));
        roundtrip(&perm_bar(crate::perm::Perm::stride(8, 2), 4));
        roundtrip(&diag(vec![Cplx::new(1.0, 2.0), Cplx::new(-0.5, 0.0)]));
    }

    #[test]
    fn errors_reported_with_position() {
        assert!(parse("").is_err());
        assert!(parse("I_").is_err());
        assert!(parse("DFT_4 extra").is_err());
        assert!(parse("F_3").is_err());
        assert!(parse("L^8_3").is_err()); // 3 does not divide 8
        assert!(parse("DFT_2 @|| DFT_2").is_err()); // @|| needs I_p left
        assert!(parse("DFT_2 @bar I_4").is_err()); // @bar needs perm left
        assert!(parse("L^4_2 @bar DFT_4").is_err()); // @bar needs I right
        assert!(parse("bogus_3").is_err());
        // The retired multi-process tag is an unknown atom now.
        let err = parse("dist(2)[DFT_2 @ I_2]").unwrap_err();
        assert!(err.to_string().contains("unknown atom 'dist'"), "{err}");
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse("(DFT_2@I_4)*T^8_4*(I_2@DFT_4)*L^8_2").unwrap();
        let b = parse("  ( DFT_2 @ I_4 )\n * T^8_4 * ( I_2 @ DFT_4 ) * L^8_2  ").unwrap();
        assert_eq!(a, b);
    }
}
