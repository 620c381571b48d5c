//! SSA construction and lowering to the precedence-graph IR.
//!
//! Variables are renamed on every assignment (SSA); `if`/`else` bodies
//! are lowered *speculatively* into the same DFG (superblock style) and
//! their final variable versions merge at the join through a `Phi`
//! operation fed by the branch condition and both versions — the φ the
//! paper's Section 1 points at: whether it becomes a register move or
//! nothing is known only after register allocation.

use crate::ast::{Block, Expr, Program, Stmt};
use crate::LangError;
use hls_ir::{DelayModel, OpId, OpKind, PrecedenceGraph};
use std::collections::BTreeMap;

/// A value an expression can evaluate to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// The result of an operation in the DFG.
    Op(OpId),
    /// A primary input (free; no vertex).
    Input(String),
    /// A compile-time constant (free; no vertex).
    Const(i64),
}

/// The result of lowering a program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The dataflow precedence graph.
    pub graph: PrecedenceGraph,
    /// Input names, in declaration order.
    pub inputs: Vec<String>,
    /// `(name, value)` for every declared output.
    pub outputs: Vec<(String, Value)>,
    /// All φ operations inserted at joins (candidates for
    /// `threaded_sched::ThreadedScheduler::retype_ops`).
    pub phis: Vec<OpId>,
}

struct Lowerer<'d> {
    g: PrecedenceGraph,
    delays: &'d DelayModel,
    env: BTreeMap<String, Value>,
    inputs: Vec<String>,
    phis: Vec<OpId>,
    tmp: usize,
}

/// Lowers a parsed [`Program`] to a DFG.
///
/// # Errors
///
/// Returns the semantic [`LangError`]s: undefined reads, assignments to
/// inputs, duplicate declarations, and never-assigned outputs.
pub fn lower(program: &Program, delays: &DelayModel) -> Result<Compiled, LangError> {
    let mut seen: Vec<&String> = Vec::new();
    for name in program.inputs.iter().chain(&program.outputs) {
        if seen.contains(&name) {
            return Err(LangError::DuplicateDecl(name.clone()));
        }
        seen.push(name);
    }
    let mut lw = Lowerer {
        g: PrecedenceGraph::new(),
        delays,
        env: program
            .inputs
            .iter()
            .map(|n| (n.clone(), Value::Input(n.clone())))
            .collect(),
        inputs: program.inputs.clone(),
        phis: Vec::new(),
        tmp: 0,
    };
    lw.block(&program.body)?;
    let mut outputs = Vec::new();
    for name in &program.outputs {
        match lw.env.get(name) {
            Some(v) => outputs.push((name.clone(), v.clone())),
            None => return Err(LangError::OutputNeverAssigned(name.clone())),
        }
    }
    Ok(Compiled {
        graph: lw.g,
        inputs: lw.inputs,
        outputs,
        phis: lw.phis,
    })
}

impl Lowerer<'_> {
    fn block(&mut self, block: &Block) -> Result<(), LangError> {
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Assign { name, value } => {
                if self.inputs.contains(name) {
                    return Err(LangError::AssignToInput(name.clone()));
                }
                let v = self.expr(value, name)?;
                self.env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let cond_v = self.expr(cond, "cond")?;
                let before = self.env.clone();
                self.block(then_blk)?;
                let then_env = std::mem::replace(&mut self.env, before.clone());
                self.block(else_blk)?;
                let else_env = std::mem::replace(&mut self.env, before.clone());
                // Merge: variables whose versions differ get a phi.
                let mut names: Vec<&String> =
                    then_env.keys().chain(else_env.keys()).collect();
                names.sort();
                names.dedup();
                for name in names {
                    let t = then_env.get(name);
                    let e = else_env.get(name);
                    match (t, e) {
                        (Some(tv), Some(ev)) if tv == ev => {
                            self.env.insert(name.clone(), tv.clone());
                        }
                        (Some(tv), Some(ev)) => {
                            let phi = self.g.add_op(
                                OpKind::Phi,
                                self.delays.delay_of(OpKind::Phi),
                                format!("phi_{name}"),
                            );
                            self.dep(&cond_v, phi)?;
                            self.dep(tv, phi)?;
                            self.dep(ev, phi)?;
                            self.g.set_operands(
                                phi,
                                vec![operand(&cond_v), operand(tv), operand(ev)],
                            );
                            self.phis.push(phi);
                            self.env.insert(name.clone(), Value::Op(phi));
                        }
                        // Defined on one side only: visible after the join
                        // only if it was defined before the branch (then
                        // the unchanged side carried `before`'s version,
                        // handled above). A one-sided fresh definition
                        // does not escape.
                        _ => {}
                    }
                }
                Ok(())
            }
        }
    }

    fn expr(&mut self, expr: &Expr, hint: &str) -> Result<Value, LangError> {
        match expr {
            Expr::Int(v) => Ok(Value::Const(*v)),
            Expr::Ident(name) => self
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| LangError::Undefined(name.clone())),
            Expr::Bin { op, lhs, rhs } => {
                let lv = self.expr(lhs, hint)?;
                let rv = self.expr(rhs, hint)?;
                let kind = op.op_kind();
                self.tmp += 1;
                let id = self.g.add_op(
                    kind,
                    self.delays.delay_of(kind),
                    format!("{hint}_{}{}", kind.mnemonic(), self.tmp),
                );
                self.dep(&lv, id)?;
                self.dep(&rv, id)?;
                self.g.set_operands(id, vec![operand(&lv), operand(&rv)]);
                Ok(Value::Op(id))
            }
        }
    }

    // Lowering only ever emits forward edges, so a rejection here is a
    // front-end bug — reported, not unwrapped.
    fn dep(&mut self, value: &Value, consumer: OpId) -> Result<(), LangError> {
        if let Value::Op(producer) = value {
            self.g
                .add_edge(*producer, consumer)
                .map_err(|e| LangError::Internal(format!("lowering emitted a bad edge: {e}")))?;
        }
        Ok(())
    }
}

fn operand(value: &Value) -> hls_ir::Operand {
    match value {
        Value::Op(id) => hls_ir::Operand::Op(*id),
        Value::Input(name) => hls_ir::Operand::Input(name.clone()),
        Value::Const(v) => hls_ir::Operand::Const(*v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use hls_ir::algo;

    fn dm() -> DelayModel {
        DelayModel::classic()
    }

    #[test]
    fn straight_line_lowers_to_a_chain() {
        let c = compile("input a; output o; t = a * 3; o = t + 1;", &dm()).unwrap();
        assert_eq!(c.graph.len(), 2);
        assert_eq!(c.graph.edge_count(), 1);
        assert_eq!(algo::diameter(&c.graph), 3); // mul(2) + add(1)
        assert_eq!(c.outputs.len(), 1);
        assert!(matches!(c.outputs[0].1, Value::Op(_)));
    }

    #[test]
    fn hal_like_source_gets_the_right_op_mix() {
        let src = "
            input x, dx, u, y, a;
            output x1, y1, u1, c;
            t1 = 3 * x;  t2 = u * dx;  t3 = 3 * y;
            t4 = t1 * t2;
            t5 = t3 * dx;
            s1 = u - t4;
            u1 = s1 - t5;
            y1 = y + u * dx;
            x1 = x + dx;
            c = x1 < a;
        ";
        let c = compile(src, &dm()).unwrap();
        let muls = c
            .graph
            .op_ids()
            .filter(|&v| c.graph.kind(v) == OpKind::Mul)
            .count();
        assert_eq!(muls, 6);
        assert_eq!(algo::diameter(&c.graph), 6, "same critical path as HAL");
    }

    #[test]
    fn reassignment_shadows_ssa_style() {
        let c = compile("input a; output o; t = a + 1; t = t + 2; o = t + 3;", &dm()).unwrap();
        // Three adds chained.
        assert_eq!(c.graph.len(), 3);
        assert_eq!(algo::diameter(&c.graph), 3);
    }

    #[test]
    fn if_else_inserts_one_phi_per_divergent_variable() {
        let src = "
            input a, b; output o;
            if (a < b) { s = a + 1; t = a + 2; } else { s = b + 3; t = a + 2; }
            o = s * s;
        ";
        let c = compile(src, &dm()).unwrap();
        // `s` diverges (phi); `t` computes identical values on both sides
        // but through *different* vertices, so it also gets a phi — yet
        // nothing reads it after the join, so only `s`'s phi feeds `o`.
        assert!(!c.phis.is_empty());
        let phi_s = c
            .phis
            .iter()
            .find(|&&p| c.graph.label(p) == "phi_s")
            .copied()
            .unwrap();
        // cond + two versions feed the phi.
        assert_eq!(c.graph.preds(phi_s).len(), 3);
        let Value::Op(o) = c.outputs[0].1 else { panic!("output is computed") };
        assert!(c.graph.preds(o).contains(&phi_s));
    }

    #[test]
    fn unchanged_variable_needs_no_phi() {
        let src = "
            input a, b; output o;
            s = a + b;
            if (a < b) { u = s + 1; } else { u = s + 2; }
            o = s + 1;
        ";
        let c = compile(src, &dm()).unwrap();
        let phis_for_s = c.phis.iter().filter(|&&p| c.graph.label(p) == "phi_s").count();
        assert_eq!(phis_for_s, 0, "s is not assigned in the branches");
    }

    #[test]
    fn semantic_errors_are_reported() {
        assert_eq!(
            compile("input a; output o; o = z + 1;", &dm()).unwrap_err(),
            LangError::Undefined("z".into())
        );
        assert_eq!(
            compile("input a; output o; a = 1; o = a;", &dm()).unwrap_err(),
            LangError::AssignToInput("a".into())
        );
        assert_eq!(
            compile("input a, a; output o; o = a;", &dm()).unwrap_err(),
            LangError::DuplicateDecl("a".into())
        );
        assert_eq!(
            compile("input a; output o; t = a + 1;", &dm()).unwrap_err(),
            LangError::OutputNeverAssigned("o".into())
        );
    }

    #[test]
    fn output_may_be_a_plain_input_or_constant() {
        let c = compile("input a; output o, k; o = a; k = 42;", &dm()).unwrap();
        assert_eq!(c.outputs[0].1, Value::Input("a".into()));
        assert_eq!(c.outputs[1].1, Value::Const(42));
        assert!(c.graph.is_empty());
    }

    #[test]
    fn lowered_graphs_are_always_acyclic() {
        let src = "
            input a, b, c; output o;
            x = a * b; y = x + c;
            if (y < a) { x = y * 2; } else { x = y + 2; }
            o = x - a;
        ";
        let c = compile(src, &dm()).unwrap();
        assert!(c.graph.validate().is_ok());
        assert!(!c.phis.is_empty());
    }
}
