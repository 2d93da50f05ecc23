//! The compiled tap program of one event type: a shared predicate index
//! that makes selection cost follow the subscriptions an event *matches*,
//! not the subscriptions installed.
//!
//! Every subscription's predicate is split once, at install, at its
//! top-level `AND`s ([`Selection::split`]). A conjunct of the shape
//! `slot <cmp> literal` becomes an [`Atom`] in canonical form; everything
//! else stays a *residual* expression of that subscription. A conjunction
//! is true exactly when each conjunct evaluates to `Bool(true)`, and
//! evaluation has no side effects, so the conjuncts may be decided in any
//! order and by any means that agrees with the interpreter conjunct by
//! conjunct.
//!
//! [`TapProgram::build`] interns the atoms of all subscriptions of the
//! type — two queries asking `bid.country = 'de'` share one atom — into a
//! per-slot index: a hash table for equality, ordered thresholds for
//! ranges. [`TapProgram::probe`] reads each indexed slot of an event once,
//! marks the atoms that hold, and collects as *candidates* the
//! subscriptions hanging off a true atom. A subscription hangs off one of
//! its atoms (its trigger); its other atoms are looked up among the marks
//! and its residual is interpreted only when it is a candidate.
//! Subscriptions without an atom — pass-through and residual-only — are
//! candidates on every event.

use std::collections::HashMap;

use scrub_core::event::FieldSlot;
use scrub_core::expr::{BinOp, ResolvedExpr};
use scrub_core::value::Scalar;

/// `slot <cmp> literal`, canonicalised so equal tests of different
/// spellings (`5 < x`, `x > 5.0`) are one atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Atom {
    slot: FieldSlot,
    test: Test,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Test {
    StrEq(String),
    /// Numeric equality is `f64::total_cmp == Equal`: equality of bits.
    NumEq(u64),
    /// `field > bound` (`strict`) or `field >= bound`, on [`order_key`]s.
    Above {
        key: i64,
        strict: bool,
    },
    /// `field < bound` (`strict`) or `field <= bound`.
    Below {
        key: i64,
        strict: bool,
    },
}

/// Maps `f64` to `i64` so that integer order is `f64::total_cmp` order.
fn order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Atom {
    /// The atom a conjunct is, if it has the shape `slot <cmp> literal`
    /// (either way round) with a comparison the index can answer: `=` on
    /// strings, `= < <= > >=` on numerics. `!=`, string ranges and
    /// null/list/nested literals stay with the interpreter.
    fn of(conjunct: &ResolvedExpr, arity: usize) -> Option<Atom> {
        let ResolvedExpr::Binary { op, lhs, rhs } = conjunct else {
            return None;
        };
        let (slot, op, lit) = match (&**lhs, &**rhs) {
            (ResolvedExpr::Input(s), ResolvedExpr::Literal(v)) => (*s, *op, v),
            (ResolvedExpr::Literal(v), ResolvedExpr::Input(s)) => (*s, flip(*op)?, v),
            _ => return None,
        };
        let test = match (op, lit.scalar()) {
            (BinOp::Eq, Scalar::Str(s)) => Test::StrEq(s.to_owned()),
            (_, Scalar::Num(x)) => {
                let key = order_key(x);
                match op {
                    BinOp::Eq => Test::NumEq(x.to_bits()),
                    BinOp::Gt => Test::Above { key, strict: true },
                    BinOp::Ge => Test::Above { key, strict: false },
                    BinOp::Lt => Test::Below { key, strict: true },
                    BinOp::Le => Test::Below { key, strict: false },
                    _ => return None,
                }
            }
            _ => return None,
        };
        Some(Atom {
            slot: FieldSlot::of(slot, arity),
            test,
        })
    }
}

/// `literal <op> slot` as `slot <flipped op> literal`.
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// One subscription's predicate, split into what the index answers and
/// what the interpreter must.
#[derive(Debug, Default)]
pub(crate) struct Selection {
    pub(crate) atoms: Vec<Atom>,
    pub(crate) residual: Vec<ResolvedExpr>,
}

impl Selection {
    pub(crate) fn split(predicate: Option<&ResolvedExpr>, arity: usize) -> Self {
        fn walk(e: &ResolvedExpr, arity: usize, out: &mut Selection) {
            match e {
                ResolvedExpr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                } => {
                    walk(lhs, arity, out);
                    walk(rhs, arity, out);
                }
                e => match Atom::of(e, arity) {
                    Some(a) => out.atoms.push(a),
                    None => out.residual.push(e.clone()),
                },
            }
        }
        let mut out = Selection::default();
        if let Some(p) = predicate {
            walk(p, arity, &mut out);
        }
        out
    }
}

/// A range atom in a slot's ordered threshold list. `(key, flag)` pairs
/// order the bounds so that one `partition_point` against `(field key, 0)`
/// splits the atoms that hold from those that do not: `flag` is `strict`
/// for `Above` (holds iff `(key, flag) <= (field, 0)`, a prefix) and
/// `!strict` for `Below` (holds iff `(key, flag) > (field, 0)`, a suffix).
struct Bound {
    key: i64,
    flag: bool,
    atom: u32,
}

/// The atoms on one slot.
struct SlotIndex {
    slot: FieldSlot,
    str_eq: HashMap<String, u32>,
    num_eq: HashMap<u64, u32>,
    above: Vec<Bound>,
    below: Vec<Bound>,
}

#[derive(Default)]
pub(crate) struct TapProgram {
    slots: Vec<SlotIndex>,
    /// Per atom: the event (by the caller's tick) it last held for. An
    /// atom holds for the current event iff its mark equals the tick, so
    /// nothing is cleared between events.
    marks: Vec<u64>,
    /// Per atom: the subscriptions it triggers.
    triggers: Vec<Vec<u32>>,
    /// Per subscription: its atoms, all of which must hold.
    needs: Vec<Vec<u32>>,
    /// The candidate bitset, a word per 64 subscriptions.
    candidates: Vec<Candidates>,
}

/// One word of the candidate bitset.
#[derive(Clone, Copy, Default)]
struct Candidates {
    /// Subscriptions without an atom: candidates on every event.
    always: u64,
    /// Subscriptions a true atom triggered for the event being probed;
    /// drained by [`TapProgram::take_candidates`].
    triggered: u64,
}

impl TapProgram {
    /// Compile the program for subscriptions whose atoms are `atoms`, in
    /// install order.
    pub(crate) fn build<'a>(atoms: impl Iterator<Item = &'a [Atom]>) -> Self {
        let mut ids: HashMap<&'a Atom, u32> = HashMap::new();
        let mut program = TapProgram::default();
        for (sub, atoms) in atoms.enumerate() {
            if sub % 64 == 0 {
                program.candidates.push(Candidates::default());
            }
            let mut need = Vec::with_capacity(atoms.len());
            for atom in atoms {
                let next = ids.len() as u32;
                let id = *ids.entry(atom).or_insert_with(|| {
                    index_atom(&mut program.slots, atom, next);
                    program.triggers.push(Vec::new());
                    next
                });
                if !need.contains(&id) {
                    need.push(id);
                }
            }
            program.needs.push(need);
            // An equality says "no" more often than a range does: hang
            // the subscription off its first equality, else its first atom.
            let is_equality = |a: &&Atom| matches!(a.test, Test::StrEq(_) | Test::NumEq(_));
            match atoms.iter().find(is_equality).or(atoms.first()) {
                Some(trigger) => program.triggers[ids[trigger] as usize].push(sub as u32),
                None => program.candidates[sub >> 6].always |= 1 << (sub & 63),
            }
        }
        for ix in &mut program.slots {
            ix.above.sort_by_key(|b| (b.key, b.flag));
            ix.below.sort_by_key(|b| (b.key, b.flag));
        }
        program.marks = vec![0; ids.len()];
        program
    }

    /// Decide every atom for one event: read each indexed slot once
    /// through `read`, mark the atoms that hold with `tick` (non-zero,
    /// different for every event), and note the subscriptions they trigger.
    #[inline]
    pub(crate) fn probe<'v>(&mut self, tick: u64, read: impl Fn(FieldSlot) -> Scalar<'v>) {
        let TapProgram {
            slots,
            marks,
            triggers,
            candidates,
            ..
        } = self;
        let mut hold = |atom: u32| {
            marks[atom as usize] = tick;
            for &sub in &triggers[atom as usize] {
                candidates[(sub >> 6) as usize].triggered |= 1 << (sub & 63);
            }
        };
        for ix in slots.iter() {
            match read(ix.slot) {
                Scalar::Str(s) => {
                    if let Some(&atom) = ix.str_eq.get(s) {
                        hold(atom);
                    }
                }
                Scalar::Num(x) => {
                    if let Some(&atom) = ix.num_eq.get(&x.to_bits()) {
                        hold(atom);
                    }
                    let field = (order_key(x), false);
                    let n = ix.above.partition_point(|b| (b.key, b.flag) <= field);
                    ix.above[..n].iter().for_each(|b| hold(b.atom));
                    let n = ix.below.partition_point(|b| (b.key, b.flag) <= field);
                    ix.below[n..].iter().for_each(|b| hold(b.atom));
                }
                Scalar::Null | Scalar::Other(_) => {}
            }
        }
    }

    /// Number of 64-subscription words in the candidate bitset.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.candidates.len()
    }

    /// Word `w` of the candidates of the event last probed — subscription
    /// `64 * w + bit`, ascending bits being install order. Taking a word
    /// resets it for the next event.
    #[inline]
    pub(crate) fn take_candidates(&mut self, w: usize) -> u64 {
        let word = &mut self.candidates[w];
        word.always | std::mem::take(&mut word.triggered)
    }

    /// Do all atoms of subscription `sub` hold for the event probed with
    /// `tick`?
    #[inline]
    pub(crate) fn atoms_hold(&self, sub: usize, tick: u64) -> bool {
        self.needs[sub]
            .iter()
            .all(|&a| self.marks[a as usize] == tick)
    }

    /// Distinct atoms in the index (shared ones count once).
    #[cfg(test)]
    pub(crate) fn atom_count(&self) -> usize {
        self.marks.len()
    }
}

fn index_atom(slots: &mut Vec<SlotIndex>, atom: &Atom, id: u32) {
    let at = slots
        .iter()
        .position(|ix| ix.slot == atom.slot)
        .unwrap_or_else(|| {
            slots.push(SlotIndex {
                slot: atom.slot,
                str_eq: HashMap::new(),
                num_eq: HashMap::new(),
                above: Vec::new(),
                below: Vec::new(),
            });
            slots.len() - 1
        });
    let ix = &mut slots[at];
    match &atom.test {
        Test::StrEq(s) => {
            ix.str_eq.insert(s.clone(), id);
        }
        Test::NumEq(bits) => {
            ix.num_eq.insert(*bits, id);
        }
        Test::Above { key, strict } => ix.above.push(Bound {
            key: *key,
            flag: *strict,
            atom: id,
        }),
        Test::Below { key, strict } => ix.below.push(Bound {
            key: *key,
            flag: !*strict,
            atom: id,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::value::Value;

    fn cmp(op: BinOp, slot: usize, lit: Value) -> ResolvedExpr {
        ResolvedExpr::Binary {
            op,
            lhs: Box::new(ResolvedExpr::Input(slot)),
            rhs: Box::new(ResolvedExpr::Literal(lit)),
        }
    }

    fn and(l: ResolvedExpr, r: ResolvedExpr) -> ResolvedExpr {
        ResolvedExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn order_key_follows_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn split_separates_atoms_from_residuals() {
        let not_indexable = cmp(BinOp::Ne, 0, Value::Long(3));
        let string_range = cmp(BinOp::Lt, 1, Value::Str("m".into()));
        let pred = and(
            and(cmp(BinOp::Eq, 0, Value::Long(7)), not_indexable.clone()),
            and(cmp(BinOp::Ge, 3, Value::Double(1.5)), string_range.clone()),
        );
        let sel = Selection::split(Some(&pred), 2);
        assert_eq!(sel.residual, vec![not_indexable, string_range]);
        assert_eq!(sel.atoms.len(), 2);
        assert_eq!(sel.atoms[0].slot, FieldSlot::User(0));
        // slot 3 is past request id (arity) — the timestamp
        assert_eq!(sel.atoms[1].slot, FieldSlot::Timestamp);
        assert!(Selection::split(None, 2).atoms.is_empty());
    }

    #[test]
    fn spellings_of_one_test_are_one_atom() {
        let a = Atom::of(&cmp(BinOp::Gt, 0, Value::Int(5)), 1).unwrap();
        let flipped = ResolvedExpr::Binary {
            op: BinOp::Lt,
            lhs: Box::new(ResolvedExpr::Literal(Value::Double(5.0))),
            rhs: Box::new(ResolvedExpr::Input(0)),
        };
        assert_eq!(Atom::of(&flipped, 1).unwrap(), a);
    }

    #[test]
    fn probe_marks_true_atoms_and_triggers_their_subscriptions() {
        let sels = [
            Selection::split(Some(&cmp(BinOp::Eq, 0, Value::Str("de".into()))), 2),
            Selection::split(None, 2),
            Selection::split(
                Some(&and(
                    cmp(BinOp::Gt, 1, Value::Double(1.0)),
                    cmp(BinOp::Le, 1, Value::Double(2.0)),
                )),
                2,
            ),
            Selection::split(Some(&cmp(BinOp::Eq, 0, Value::Str("de".into()))), 2),
        ];
        let mut p = TapProgram::build(sels.iter().map(|s| &s.atoms[..]));
        assert_eq!(p.atom_count(), 3);
        assert_eq!(p.words(), 1);
        let run = |p: &mut TapProgram, tick: u64, country: &str, price: f64| -> Vec<usize> {
            p.probe(tick, |slot| match slot {
                FieldSlot::User(0) => Scalar::Str(country),
                FieldSlot::User(1) => Scalar::Num(price),
                _ => Scalar::Null,
            });
            let bits = p.take_candidates(0);
            (0..4)
                .filter(|&s| bits >> s & 1 == 1 && p.atoms_hold(s, tick))
                .collect()
        };
        assert_eq!(run(&mut p, 1, "de", 0.5), vec![0, 1, 3]);
        assert_eq!(run(&mut p, 2, "fr", 2.0), vec![1, 2]);
        assert_eq!(run(&mut p, 3, "fr", 1.0), vec![1]);
        assert_eq!(run(&mut p, 4, "fr", 2.5), vec![1]);
    }
}
