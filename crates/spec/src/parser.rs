//! Recursive-descent parser for the Sekitei specification language.
//!
//! Grammar (brace-based rendering of the paper's Figures 2/6):
//!
//! ```text
//! spec      := item*
//! item      := resource | interface | component | network | problem
//! resource  := "resource" ("node"|"link") IDENT
//!              ("levels" "[" NUM ("," NUM)* "]")?
//!              ("degradable"|"upgradable"|"rigid")? ("static")? ";"
//! interface := "interface" IDENT "{"
//!                ("property" IDENT ("," IDENT)* ";")*
//!                ("degradable" ";" | "rigid" ";")?
//!                ("levels" IDENT "[" NUM ("," NUM)* "]" ";")*
//!                ("cross" "{" ("when" condblock)? ("effect" effblock)?
//!                             ("cost" expr ";")? "}")?
//!              "}"
//! component := "component" IDENT "{"
//!                ("requires" IDENT ("," IDENT)* ";")?
//!                ("implements" IDENT ("," IDENT)* ";")?
//!                ("when" condblock)? ("effect" effblock)?
//!                ("cost" expr ";")? ("only" "on" IDENT ("," IDENT)* ";")?
//!              "}"
//! network   := "network" "{" (node | link)* "}"
//! node      := "node" IDENT "{" (IDENT NUM ";")* "}"
//! link      := "link" IDENT "--" IDENT ("lan"|"wan")? "{" (IDENT NUM ";")* "}"
//! problem   := "problem" "{"
//!                ("source" IDENT "at" IDENT "{"
//!                    (IDENT "up" "to" NUM ";" | IDENT "in" "[" NUM "," NUM "]" ";")* "}")*
//!                ("placed" IDENT "at" IDENT ";")*
//!                ("goal" IDENT "at" IDENT ";")*
//!              "}"
//! condblock := "{" (expr CMP expr ";")* "}"
//! effblock  := "{" (lval (":="|"-="|"+=") expr ";")* "}"
//! expr      := term (("+"|"-") term)*     — usual precedence
//! factor    := NUM | "-" factor | "(" expr ")"
//!            | ("min"|"max") "(" expr "," expr ")" | lval
//! lval      := IDENT "." IDENT            — `node.`/`link.` are resources
//! ```

use crate::error::SpecError;
use crate::lexer::{lex, Spanned, Tok};
use crate::MAX_EXPR_DEPTH;
use sekitei_model::resource::{Elasticity, Locus};
use sekitei_model::{
    AssignOp, CmpOp, ComponentSpec, Cond, CppProblem, Effect, Expr, Goal, InterfaceSpec, Interval,
    LevelSpec, LinkClass, Network, Placement, PrePlacement, ResourceDef, SEffect, SExpr, SpecVar,
    StreamSource,
};
use std::collections::BTreeMap;

/// Parse a complete specification into a validated [`CppProblem`].
pub fn parse_problem(src: &str) -> Result<CppProblem, SpecError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, nest: 0 };
    let problem = p.spec()?;
    problem.validate()?;
    Ok(problem)
}

/// Parse a standalone expression (the formula sub-language of `cost`,
/// `when` and `effect` clauses). The whole input must be consumed.
pub fn parse_expr(src: &str) -> Result<SExpr, SpecError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, nest: 0 };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(SpecError::parse(p.line(), "trailing input after expression"));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Parentheses, unary minus and `min`/`max` calls open around the
    /// formula being parsed; with its own tree depth, bounded by
    /// [`MAX_EXPR_DEPTH`].
    nest: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).map(|s| s.line).unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), SpecError> {
        let line = self.line();
        match self.next() {
            Some(got) if got == *t => Ok(()),
            Some(got) => Err(SpecError::parse(line, format!("expected `{t}`, found `{got}`"))),
            None => Err(SpecError::parse(0, format!("expected `{t}`"))),
        }
    }

    fn ident(&mut self) -> Result<String, SpecError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(got) => Err(SpecError::parse(line, format!("expected identifier, found `{got}`"))),
            None => Err(SpecError::parse(0, "expected identifier")),
        }
    }

    fn num(&mut self) -> Result<f64, SpecError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            Some(got) => Err(SpecError::parse(line, format!("expected number, found `{got}`"))),
            None => Err(SpecError::parse(0, "expected number")),
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SpecError> {
        let line = self.line();
        if self.eat_ident(kw) {
            Ok(())
        } else {
            Err(SpecError::parse(line, format!("expected `{kw}`")))
        }
    }

    // ----------------------------------------------------------- top level

    fn spec(&mut self) -> Result<CppProblem, SpecError> {
        let mut problem = CppProblem {
            network: Network::new(),
            resources: Vec::new(),
            interfaces: Vec::new(),
            components: Vec::new(),
            sources: Vec::new(),
            pre_placed: Vec::new(),
            goals: Vec::new(),
        };
        while let Some(tok) = self.peek() {
            let line = self.line();
            match tok {
                Tok::Ident(kw) => match kw.as_str() {
                    "resource" => {
                        self.pos += 1;
                        let r = self.resource()?;
                        problem.resources.push(r);
                    }
                    "interface" => {
                        self.pos += 1;
                        let i = self.interface()?;
                        problem.interfaces.push(i);
                    }
                    "component" => {
                        self.pos += 1;
                        let c = self.component()?;
                        problem.components.push(c);
                    }
                    "network" => {
                        self.pos += 1;
                        self.network(&mut problem.network)?;
                    }
                    "problem" => {
                        self.pos += 1;
                        self.problem_block(&mut problem)?;
                    }
                    other => {
                        return Err(SpecError::parse(
                            line,
                            format!("expected a top-level item, found `{other}`"),
                        ))
                    }
                },
                other => {
                    return Err(SpecError::parse(
                        line,
                        format!("expected a top-level item, found `{other}`"),
                    ))
                }
            }
        }
        Ok(problem)
    }

    fn levels_list(&mut self) -> Result<LevelSpec, SpecError> {
        let line = self.line();
        self.expect(&Tok::LBracket)?;
        let mut cuts = Vec::new();
        if self.peek() != Some(&Tok::RBracket) {
            loop {
                cuts.push(self.num()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        LevelSpec::new(cuts).map_err(|e| SpecError::parse(line, e.to_string()))
    }

    fn resource(&mut self) -> Result<ResourceDef, SpecError> {
        let line = self.line();
        let locus = match self.ident()?.as_str() {
            "node" => Locus::Node,
            "link" => Locus::Link,
            other => {
                return Err(SpecError::parse(
                    line,
                    format!("expected `node` or `link`, found `{other}`"),
                ))
            }
        };
        let name = self.ident()?;
        let mut def = ResourceDef {
            name,
            locus,
            consumable: true,
            levels: LevelSpec::trivial(),
            elasticity: Elasticity::Degradable,
        };
        loop {
            if self.eat_ident("levels") {
                def.levels = self.levels_list()?;
            } else if self.eat_ident("degradable") {
                def.elasticity = Elasticity::Degradable;
            } else if self.eat_ident("upgradable") {
                def.elasticity = Elasticity::Upgradable;
            } else if self.eat_ident("rigid") {
                def.elasticity = Elasticity::Rigid;
            } else if self.eat_ident("static") {
                def.consumable = false;
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(def)
    }

    fn interface(&mut self) -> Result<InterfaceSpec, SpecError> {
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut spec = InterfaceSpec {
            name,
            properties: Vec::new(),
            degradable: true,
            cross_conditions: Vec::new(),
            cross_effects: Vec::new(),
            cross_cost: Expr::c(1.0),
            levels: BTreeMap::new(),
        };
        while self.peek() != Some(&Tok::RBrace) {
            let line = self.line();
            if self.eat_ident("property") {
                loop {
                    spec.properties.push(self.ident()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("degradable") {
                spec.degradable = true;
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("rigid") {
                spec.degradable = false;
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("levels") {
                let prop = self.ident()?;
                let ls = self.levels_list()?;
                spec.levels.insert(prop, ls);
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("cross") {
                self.expect(&Tok::LBrace)?;
                while self.peek() != Some(&Tok::RBrace) {
                    if self.eat_ident("when") {
                        spec.cross_conditions.extend(self.cond_block()?);
                    } else if self.eat_ident("effect") {
                        spec.cross_effects.extend(self.eff_block()?);
                    } else if self.eat_ident("cost") {
                        spec.cross_cost = self.expr()?;
                        self.expect(&Tok::Semi)?;
                    } else {
                        return Err(SpecError::parse(
                            self.line(),
                            "expected `when`, `effect` or `cost` in cross block",
                        ));
                    }
                }
                self.expect(&Tok::RBrace)?;
            } else {
                return Err(SpecError::parse(line, "unexpected item in interface block"));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(spec)
    }

    fn component(&mut self) -> Result<ComponentSpec, SpecError> {
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut spec = ComponentSpec::new(name);
        while self.peek() != Some(&Tok::RBrace) {
            let line = self.line();
            if self.eat_ident("requires") {
                loop {
                    let i = self.ident()?;
                    spec.requires.push(i);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("implements") {
                loop {
                    let i = self.ident()?;
                    spec.implements.push(i);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("when") {
                spec.conditions.extend(self.cond_block()?);
            } else if self.eat_ident("effect") {
                spec.effects.extend(self.eff_block()?);
            } else if self.eat_ident("cost") {
                spec.cost = self.expr()?;
                self.expect(&Tok::Semi)?;
            } else if self.eat_ident("only") {
                self.expect_kw("on")?;
                let mut nodes = Vec::new();
                loop {
                    nodes.push(self.ident()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
                spec.placement = Placement::Only(nodes);
            } else {
                return Err(SpecError::parse(line, "unexpected item in component block"));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(spec)
    }

    fn network(&mut self, net: &mut Network) -> Result<(), SpecError> {
        self.expect(&Tok::LBrace)?;
        while self.peek() != Some(&Tok::RBrace) {
            let line = self.line();
            if self.eat_ident("node") {
                let name = self.ident()?;
                let res = self.res_block()?;
                net.add_node(name, res);
            } else if self.eat_ident("link") {
                let a = self.ident()?;
                self.expect(&Tok::DashDash)?;
                let b = self.ident()?;
                let class = if self.eat_ident("lan") {
                    LinkClass::Lan
                } else if self.eat_ident("wan") {
                    LinkClass::Wan
                } else {
                    LinkClass::Other
                };
                let res = self.res_block()?;
                let na = net
                    .node_by_name(&a)
                    .ok_or_else(|| SpecError::parse(line, format!("unknown node `{a}`")))?;
                let nb = net
                    .node_by_name(&b)
                    .ok_or_else(|| SpecError::parse(line, format!("unknown node `{b}`")))?;
                if na == nb {
                    return Err(SpecError::parse(
                        line,
                        format!("link `{a} -- {b}` joins a node to itself"),
                    ));
                }
                net.add_link(na, nb, class, res);
            } else {
                return Err(SpecError::parse(line, "expected `node` or `link`"));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    fn res_block(&mut self) -> Result<Vec<(String, f64)>, SpecError> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            let name = self.ident()?;
            let val = self.num()?;
            self.expect(&Tok::Semi)?;
            out.push((name, val));
        }
        self.expect(&Tok::RBrace)?;
        Ok(out)
    }

    fn problem_block(&mut self, problem: &mut CppProblem) -> Result<(), SpecError> {
        self.expect(&Tok::LBrace)?;
        while self.peek() != Some(&Tok::RBrace) {
            let line = self.line();
            if self.eat_ident("source") {
                let iface = self.ident()?;
                self.expect_kw("at")?;
                let node_name = self.ident()?;
                let node = problem
                    .network
                    .node_by_name(&node_name)
                    .ok_or_else(|| SpecError::parse(line, format!("unknown node `{node_name}`")))?;
                self.expect(&Tok::LBrace)?;
                let mut properties = BTreeMap::new();
                while self.peek() != Some(&Tok::RBrace) {
                    let prop = self.ident()?;
                    if self.eat_ident("up") {
                        self.expect_kw("to")?;
                        let max = self.num()?;
                        properties.insert(prop, Interval::new(0.0, max));
                    } else if self.eat_ident("in") {
                        self.expect(&Tok::LBracket)?;
                        let lo = self.num()?;
                        self.expect(&Tok::Comma)?;
                        let hi = self.num()?;
                        self.expect(&Tok::RBracket)?;
                        properties.insert(prop, Interval::new(lo, hi));
                    } else {
                        return Err(SpecError::parse(self.line(), "expected `up to` or `in`"));
                    }
                    self.expect(&Tok::Semi)?;
                }
                self.expect(&Tok::RBrace)?;
                problem.sources.push(StreamSource { iface, node, properties });
            } else if self.eat_ident("placed") {
                let component = self.ident()?;
                self.expect_kw("at")?;
                let node_name = self.ident()?;
                let node = problem
                    .network
                    .node_by_name(&node_name)
                    .ok_or_else(|| SpecError::parse(line, format!("unknown node `{node_name}`")))?;
                self.expect(&Tok::Semi)?;
                problem.pre_placed.push(PrePlacement { component, node });
            } else if self.eat_ident("goal") {
                let component = self.ident()?;
                self.expect_kw("at")?;
                let node_name = self.ident()?;
                let node = problem
                    .network
                    .node_by_name(&node_name)
                    .ok_or_else(|| SpecError::parse(line, format!("unknown node `{node_name}`")))?;
                self.expect(&Tok::Semi)?;
                problem.goals.push(Goal { component, node });
            } else {
                return Err(SpecError::parse(line, "expected `source`, `placed` or `goal`"));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    // --------------------------------------------------------- expressions

    fn cond_block(&mut self) -> Result<Vec<Cond<SpecVar>>, SpecError> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            let lhs = self.expr()?;
            let line = self.line();
            let op = match self.next() {
                Some(Tok::Le) => CmpOp::Le,
                Some(Tok::Lt) => CmpOp::Lt,
                Some(Tok::Ge) => CmpOp::Ge,
                Some(Tok::Gt) => CmpOp::Gt,
                Some(Tok::EqEq) => CmpOp::Eq,
                other => {
                    return Err(SpecError::parse(
                        line,
                        format!("expected comparison operator, found `{:?}`", other),
                    ))
                }
            };
            let rhs = self.expr()?;
            self.expect(&Tok::Semi)?;
            out.push(Cond::new(lhs, op, rhs));
        }
        self.expect(&Tok::RBrace)?;
        Ok(out)
    }

    fn eff_block(&mut self) -> Result<Vec<SEffect>, SpecError> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            let target = self.lval()?;
            let line = self.line();
            let op = match self.next() {
                Some(Tok::Assign) => AssignOp::Set,
                Some(Tok::SubAssign) => AssignOp::Sub,
                Some(Tok::AddAssign) => AssignOp::Add,
                other => {
                    return Err(SpecError::parse(
                        line,
                        format!("expected `:=`, `-=` or `+=`, found `{:?}`", other),
                    ))
                }
            };
            let value = self.expr()?;
            self.expect(&Tok::Semi)?;
            out.push(Effect::new(target, op, value));
        }
        self.expect(&Tok::RBrace)?;
        Ok(out)
    }

    fn lval(&mut self) -> Result<SpecVar, SpecError> {
        let owner = self.ident()?;
        self.expect(&Tok::Dot)?;
        let field = self.ident()?;
        Ok(match owner.as_str() {
            "node" => SpecVar::node(field),
            "link" => SpecVar::link(field),
            _ => SpecVar::iface(owner, field),
        })
    }

    fn expr(&mut self) -> Result<SExpr, SpecError> {
        Ok(self.sum()?.0)
    }

    /// `product (('+' | '-') product)*`, left-associative, and its tree
    /// depth.
    fn sum(&mut self) -> Result<(SExpr, usize), SpecError> {
        let (mut lhs, mut depth) = self.product()?;
        loop {
            let plus = match self.peek() {
                Some(Tok::Plus) => true,
                Some(Tok::Minus) => false,
                _ => break,
            };
            self.pos += 1;
            let (rhs, d) = self.product()?;
            depth = self.fits(depth.max(d) + 1)?;
            lhs = if plus { lhs + rhs } else { lhs - rhs };
        }
        Ok((lhs, depth))
    }

    /// `factor (('*' | '/') factor)*`, left-associative, and its tree
    /// depth.
    fn product(&mut self) -> Result<(SExpr, usize), SpecError> {
        let (mut lhs, mut depth) = self.factor()?;
        loop {
            let times = match self.peek() {
                Some(Tok::Star) => true,
                Some(Tok::Slash) => false,
                _ => break,
            };
            self.pos += 1;
            let (rhs, d) = self.factor()?;
            depth = self.fits(depth.max(d) + 1)?;
            lhs = if times { lhs * rhs } else { lhs / rhs };
        }
        Ok((lhs, depth))
    }

    fn factor(&mut self) -> Result<(SExpr, usize), SpecError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.pos += 1;
                Ok((Expr::c(n), 1))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                let (e, d) = self.nested(Self::factor)?;
                Ok((Expr::Neg(Box::new(e)), self.fits(d + 1)?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::sum)?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) if name == "min" || name == "max" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let (a, da) = self.nested(Self::sum)?;
                self.expect(&Tok::Comma)?;
                let (b, db) = self.nested(Self::sum)?;
                self.expect(&Tok::RParen)?;
                let depth = self.fits(da.max(db) + 1)?;
                Ok((if name == "min" { a.min_e(b) } else { a.max_e(b) }, depth))
            }
            Some(Tok::Ident(_)) => Ok((Expr::var(self.lval()?), 1)),
            other => Err(SpecError::parse(line, format!("expected expression, found `{other:?}`"))),
        }
    }

    /// Parse with one more group open, refusing to descend past
    /// [`MAX_EXPR_DEPTH`] so a hostile formula cannot exhaust the stack.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Parser) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        self.nest += 1;
        self.fits(1)?;
        let e = parse(self);
        self.nest -= 1;
        e
    }

    /// `depth`, the tree depth of a formula parsed inside the open
    /// groups, or a parse error when the two together exceed
    /// [`MAX_EXPR_DEPTH`].
    fn fits(&self, depth: usize) -> Result<usize, SpecError> {
        if self.nest + depth > MAX_EXPR_DEPTH {
            return Err(SpecError::parse(
                self.line(),
                format!("formula nests deeper than {MAX_EXPR_DEPTH} levels"),
            ));
        }
        Ok(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MERGER: &str = r#"
        resource node cpu;
        resource link lbw;
        interface T { property ibw; }
        interface I { property ibw; }
        interface M {
            property ibw;
            degradable;
            levels ibw [30, 70, 90, 100];
            cross {
                effect {
                    link.lbw -= min(M.ibw, link.lbw);
                    M.ibw := min(M.ibw, link.lbw);
                }
                cost 1 + M.ibw / 10;
            }
        }
        component Merger {
            requires T, I;
            implements M;
            when {
                node.cpu >= (T.ibw + I.ibw) / 5;
                T.ibw * 3 == I.ibw * 7;
            }
            effect {
                M.ibw := T.ibw + I.ibw;
                node.cpu -= (T.ibw + I.ibw) / 5;
            }
            cost 1 + (T.ibw + I.ibw) / 10;
        }
        component Client {
            requires M;
            when { M.ibw >= 90; }
            cost 1 + M.ibw / 10;
        }
        network {
            node n0 { cpu 30; }
            node n1 { cpu 30; }
            link n0 -- n1 wan { lbw 70; }
        }
        problem {
            source M at n0 { ibw up to 200; }
            goal Client at n1;
        }
    "#;

    #[test]
    fn parses_figure2_style_spec() {
        let p = parse_problem(MERGER).unwrap();
        assert_eq!(p.components.len(), 2);
        assert_eq!(p.interfaces.len(), 3);
        let merger = &p.components[0];
        assert_eq!(merger.name, "Merger");
        assert_eq!(merger.requires, vec!["T", "I"]);
        assert_eq!(merger.conditions.len(), 2);
        assert_eq!(merger.effects.len(), 2);
        let m = p.interfaces.iter().find(|i| i.name == "M").unwrap();
        assert_eq!(m.levels_of("ibw").cutpoints(), &[30.0, 70.0, 90.0, 100.0]);
        assert_eq!(p.network.num_nodes(), 2);
        assert_eq!(p.sources.len(), 1);
        assert_eq!(p.goals.len(), 1);
    }

    #[test]
    fn parsed_formulas_evaluate_like_figure2() {
        let p = parse_problem(MERGER).unwrap();
        let merger = &p.components[0];
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { iface, .. } if iface == "T" => 63.0,
            SpecVar::Iface { iface, .. } if iface == "I" => 27.0,
            SpecVar::Node { .. } => 30.0,
            _ => 0.0,
        };
        assert!(merger.conditions.iter().all(|c| c.holds(&mut env)));
        assert_eq!(merger.cost.eval(&mut env), 10.0);
    }

    #[test]
    fn parsed_problem_plans() {
        let p = parse_problem(MERGER).unwrap();
        // no splitter in this domain, so the 70-unit link makes it
        // unsolvable — the planner must terminate cleanly
        let o = sekitei_planner::Planner::default().plan(&p).unwrap();
        assert!(o.plan.is_none());
    }

    #[test]
    fn precedence_and_unary() {
        let src = r#"
            resource node cpu;
            resource link lbw;
            interface X { property v; }
            component C {
                requires X;
                when { X.v >= 1 + 2 * 3; }
                cost -X.v + 2 * (3 - 1);
            }
            network { node a { cpu 1; } }
            problem { source X at a { v up to 5; } goal C at a; }
        "#;
        let p = parse_problem(src).unwrap();
        let c = &p.components[0];
        // 1 + 2*3 = 7
        let mut env = |_: &SpecVar| 10.0;
        assert!(c.conditions[0].holds(&mut env));
        assert_eq!(c.cost.eval(&mut env), -10.0 + 4.0);
    }

    #[test]
    fn formulas_deeper_than_the_cap_are_parse_errors() {
        let too_deep = |src: &str| matches!(parse_expr(src), Err(SpecError::Parse { msg, .. }) if msg.contains("nests deeper"));
        let chain = |n: usize, op: &str| format!("1{}", format!(" {op} 1").repeat(n));
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let minuses = |n: usize| format!("{}1", "- ".repeat(n));
        let mins = |n: usize| format!("{}1{}", "min(1, ".repeat(n), ")".repeat(n));
        // exactly MAX_EXPR_DEPTH deep: accepted
        let at_cap = MAX_EXPR_DEPTH - 1;
        for src in [chain(at_cap, "+"), chain(at_cap, "/"), parens(at_cap), minuses(at_cap)] {
            assert!(parse_expr(&src).is_ok(), "{src}");
        }
        // one level past the cap, and the stack-exhausting sizes
        for n in [MAX_EXPR_DEPTH, 100_000] {
            for src in [chain(n, "+"), chain(n, "*"), parens(n), minuses(n), mins(n)] {
                assert!(too_deep(&src), "{n} levels of {}", &src[..12]);
            }
        }
        // a problem carrying one reports the line
        let deep =
            MERGER.replace("cost 1 + (T.ibw + I.ibw) / 10;", &format!("cost {};", parens(99)));
        let err = parse_problem(&deep).unwrap_err();
        assert!(matches!(err, SpecError::Parse { line, .. } if line > 0), "{err}");
    }

    #[test]
    fn error_reporting_has_lines() {
        let err = parse_problem("component {").unwrap_err();
        match err {
            SpecError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("{other:?}"),
        }
        assert!(parse_problem("network { link a -- b { } }").is_err());
        assert!(parse_problem("problem { goal C at nowhere; }").is_err());
        assert!(parse_problem("bogus").is_err());
    }

    #[test]
    fn self_link_is_a_parse_error() {
        let looped = MERGER.replace("link n0 -- n1 wan", "link n1 -- n1 wan");
        let err = parse_problem(&looped).unwrap_err();
        assert!(
            matches!(&err, SpecError::Parse { line, msg } if *line > 0 && msg.contains("itself")),
            "{err}"
        );
    }

    #[test]
    fn validation_errors_surface() {
        // goal references unknown component
        let src = r#"
            resource node cpu;
            network { node a { cpu 1; } }
            problem { goal Ghost at a; }
        "#;
        assert!(matches!(parse_problem(src), Err(SpecError::Model(_))));
    }

    #[test]
    fn only_on_placement() {
        let src = r#"
            resource node cpu;
            interface X { property v; }
            component C { requires X; only on a; }
            network { node a { cpu 1; } node b { cpu 1; } }
            problem { source X at a { v up to 5; } goal C at a; }
        "#;
        let p = parse_problem(src).unwrap();
        assert_eq!(p.components[0].placement, Placement::Only(vec!["a".into()]));
    }

    #[test]
    fn source_interval_form() {
        let src = r#"
            resource node cpu;
            interface X { property v; }
            component C { requires X; }
            network { node a { cpu 1; } }
            problem { source X at a { v in [3, 9]; } goal C at a; }
        "#;
        let p = parse_problem(src).unwrap();
        assert_eq!(p.sources[0].properties["v"], Interval::new(3.0, 9.0));
    }

    #[test]
    fn resource_options() {
        let src = r#"
            resource node cpu static rigid;
            resource link lbw levels [31, 62] degradable;
            network { node a { cpu 1; } }
            interface X { property v; }
            component C { requires X; }
            problem { source X at a { v up to 5; } goal C at a; }
        "#;
        let p = parse_problem(src).unwrap();
        let cpu = p.resource("cpu").unwrap();
        assert!(!cpu.consumable);
        assert_eq!(cpu.elasticity, Elasticity::Rigid);
        let lbw = p.resource("lbw").unwrap();
        assert_eq!(lbw.levels.cutpoints(), &[31.0, 62.0]);
    }
}
