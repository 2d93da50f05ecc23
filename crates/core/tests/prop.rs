//! Property-based tests of scrub-core invariants: the wire codec, the
//! value ordering, the lexer/parser's totality, and planner determinism.

use proptest::prelude::*;

use scrub_core::columnar::{ColumnarBatch, ColumnarFrame};
use scrub_core::config::WireFormat;
use scrub_core::encode::{decode_batch, encode_batch, encode_batch_format, FORMAT_COLUMNAR};
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, QueryId};
use scrub_core::prelude::*;
use scrub_core::ql::lexer::lex;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f32>().prop_map(Value::Float),
        any::<f64>().prop_map(Value::Double),
        any::<i64>().prop_map(Value::DateTime),
        "[a-zA-Z0-9 _éü]{0,24}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..3).prop_map(Value::Nested),
        ]
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u32..32,
        any::<u64>(),
        any::<i64>(),
        prop::collection::vec(arb_value(), 0..6),
    )
        .prop_map(|(t, rid, ts, values)| Event::new(EventTypeId(t), RequestId(rid), ts, values))
}

proptest! {
    /// Any batch of events survives the wire codec unchanged.
    #[test]
    fn codec_round_trips(events in prop::collection::vec(arb_event(), 0..20)) {
        let frame = encode_batch(&events);
        let back = decode_batch(frame).unwrap();
        // NaN != NaN under PartialEq; compare via total order
        prop_assert_eq!(back.len(), events.len());
        for (a, b) in back.iter().zip(&events) {
            prop_assert_eq!(a.type_id, b.type_id);
            prop_assert_eq!(a.request_id, b.request_id);
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                prop_assert_eq!(x.group_key(), y.group_key());
            }
        }
    }

    /// Decoding arbitrary bytes never panics — it returns Ok or Err.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_batch(bytes::Bytes::from(bytes));
    }

    /// Columnar frames round-trip any batch: empty batches, null cells
    /// (validity bitmaps), and list/nested values (opaque row-encoded
    /// fallback columns) included.
    #[test]
    fn columnar_codec_round_trips(events in prop::collection::vec(arb_event(), 0..20)) {
        let frame = encode_batch_format(&events, WireFormat::Columnar);
        let back = decode_batch(frame).unwrap();
        prop_assert_eq!(back.len(), events.len());
        for (a, b) in back.iter().zip(&events) {
            prop_assert_eq!(a.type_id, b.type_id);
            prop_assert_eq!(a.request_id, b.request_id);
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                prop_assert_eq!(x.group_key(), y.group_key());
            }
        }
    }

    /// Row and columnar encodings of the same batch decode to the same
    /// events — the differential the central ingest path relies on.
    #[test]
    fn row_and_columnar_decodes_agree(events in prop::collection::vec(arb_event(), 0..20)) {
        let row = decode_batch(encode_batch_format(&events, WireFormat::Row)).unwrap();
        let col = decode_batch(encode_batch_format(&events, WireFormat::Columnar)).unwrap();
        prop_assert_eq!(row.len(), col.len());
        for (a, b) in row.iter().zip(&col) {
            prop_assert_eq!(a.type_id, b.type_id);
            prop_assert_eq!(a.request_id, b.request_id);
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                prop_assert_eq!(x.group_key(), y.group_key());
            }
        }
    }

    /// Column slices materialized without per-event allocation agree with
    /// the original rows cell-for-cell, chunks preserve event order, and
    /// the metadata iterator visits every (request id, timestamp) in
    /// sequence.
    #[test]
    fn columnar_slices_match_rows(events in prop::collection::vec(arb_event(), 0..20)) {
        let frame = ColumnarFrame::from_events(&events);
        prop_assert_eq!(frame.len(), events.len());
        let mut meta = Vec::new();
        frame.for_each_meta(|rid, ts| meta.push((rid, ts))).unwrap();
        let expect: Vec<(u64, i64)> =
            events.iter().map(|e| (e.request_id.0, e.timestamp)).collect();
        prop_assert_eq!(meta, expect);
        let batch = frame.decode().unwrap();
        prop_assert_eq!(batch.event_count(), events.len());
        let mut idx = 0;
        for chunk in &batch.chunks {
            for i in 0..chunk.len() {
                let ev = &events[idx];
                prop_assert_eq!(chunk.type_id, ev.type_id);
                prop_assert_eq!(chunk.request_ids[i], ev.request_id.0);
                prop_assert_eq!(chunk.timestamps[i], ev.timestamp);
                prop_assert_eq!(chunk.columns.len(), ev.values.len());
                for (j, col) in chunk.columns.iter().enumerate() {
                    prop_assert_eq!(
                        col.value_at(i).group_key(),
                        ev.values[j].group_key()
                    );
                }
                idx += 1;
            }
        }
        prop_assert_eq!(idx, events.len());
    }

    /// Transposing rows in memory gives the chunks the wire round trip
    /// gives: same runs, same column representation (typed, nullable,
    /// dictionary, all-null, per-row fallback), same placeholders at null
    /// rows.
    #[test]
    fn transposition_equals_encode_then_decode(
        kinds in [0u8..9, 0u8..9, 0u8..9],
        // few types and arities, so runs are longer than one event
        rows in prop::collection::vec((0u32..2, 0usize..4, [any::<u64>(), any::<u64>(), any::<u64>()]), 0..24),
    ) {
        // a column holds one variant plus nulls, unless its kind says mixed
        let cell = |kind: u8, seed: u64| match (if kind == 8 { seed % 7 } else { kind as u64 }, seed % 4) {
            (7, _) | (0..=6, 0) => Value::Null,
            (0, _) => Value::Bool(seed % 8 > 3),
            (1, _) => Value::Int(seed as i32),
            (2, _) => Value::Long(seed as i64),
            (3, _) => Value::Float(f32::from_bits(seed as u32)),
            (4, _) => Value::Double(f64::from_bits(seed)),
            (5, _) => Value::DateTime(seed as i64),
            _ => Value::Str(format!("s{}", seed % 3)),
        };
        let events: Vec<Event> = rows
            .iter()
            .enumerate()
            .map(|(i, (type_id, arity, seeds))| {
                let values = (0..*arity).map(|c| cell(kinds[c % 3], seeds[c % 3])).collect();
                Event::new(EventTypeId(*type_id), RequestId(seeds[0]), i as i64, values)
            })
            .collect();
        let direct = ColumnarBatch::from_events(&events);
        let decoded = ColumnarFrame::from_events(&events).decode().unwrap();
        prop_assert_eq!(direct.chunks.len(), decoded.chunks.len());
        for (a, b) in direct.chunks.iter().zip(&decoded.chunks) {
            // NaN != NaN under PartialEq: compare the rendering, then the
            // exact bits through the group keys
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            for (x, y) in a.columns.iter().zip(&b.columns) {
                for i in 0..a.len() {
                    prop_assert_eq!(x.value_ref(i).group_key(), y.value_at(i).group_key());
                }
            }
        }
    }

    /// The v2 columnar decoder is total: any byte soup behind a
    /// `[0x00, FORMAT_COLUMNAR]` header returns Ok or Err, never panics.
    #[test]
    fn columnar_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut framed = vec![0u8, FORMAT_COLUMNAR];
        framed.extend_from_slice(&bytes);
        let _ = decode_batch(bytes::Bytes::from(framed));
    }

    /// total_cmp is antisymmetric and transitive (a genuine total order).
    #[test]
    fn value_order_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    /// Equal group keys imply loose equality (keys never conflate values
    /// that compare unequal).
    #[test]
    fn group_key_consistent_with_eq(a in arb_value(), b in arb_value()) {
        if a.group_key() == b.group_key() {
            // NaN is the one value not loose-equal to itself by IEEE, but
            // total_cmp treats it consistently
            prop_assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Equal);
        }
    }

    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_is_total(src in "\\PC{0,200}") {
        let _ = lex(&src);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_is_total(src in "\\PC{0,200}") {
        let _ = parse_query(&src);
    }

    /// The parser never panics on query-shaped input either.
    #[test]
    fn parser_total_on_query_shaped(
        field in "[a-z]{1,6}",
        num in any::<i32>(),
        tail in "[a-z0-9 ()<>=%.,;*@\\[\\]]{0,60}",
    ) {
        let _ = parse_query(&format!("select {field} from bid where {field} > {num} {tail}"));
        let _ = parse_query(&format!("select COUNT(*) from {field} {tail}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planning is deterministic: same spec, same plan.
    #[test]
    fn planning_is_deterministic(
        pred_const in 0i64..100,
        window_s in 1i64..120,
    ) {
        let reg = SchemaRegistry::new();
        reg.register(EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("price", FieldType::Double),
            ],
        ).unwrap()).unwrap();
        let src = format!(
            "select bid.user_id, COUNT(*) from bid where bid.user_id < {pred_const} \
             group by bid.user_id window {window_s} s"
        );
        let spec = parse_query(&src).unwrap();
        let a = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
        let b = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Printer round-trip over generated expression ASTs
// ---------------------------------------------------------------------------

use scrub_core::expr::{BinOp, Expr, FieldRef, ScalarFn};
use scrub_core::ql::parser::parse_expr;
use scrub_core::ql::printer::print_expr;

/// Expressions restricted to the parse-producible space (e.g. literals the
/// grammar can spell: longs, doubles, strings, booleans).
fn arb_printable_expr() -> impl Strategy<Value = Expr> {
    let literal = prop_oneof![
        any::<i32>().prop_map(|v| Expr::Literal(Value::Long(v as i64))),
        (-1000i64..1000).prop_map(|v| Expr::Literal(Value::Double(v as f64 * 0.25))),
        "[a-z0-9 ]{0,10}".prop_map(|s| Expr::Literal(Value::Str(s))),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
    ];
    let field = prop_oneof![
        "[a-z][a-z0-9_]{0,6}".prop_map(|f| Expr::Field(FieldRef::bare(f))),
        ("[a-z][a-z0-9_]{0,5}", "[a-z][a-z0-9_]{0,5}")
            .prop_map(|(t, f)| Expr::Field(FieldRef::qualified(t, f))),
    ];
    let leaf = prop_oneof![literal, field];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::Binary {
                    op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (
                inner.clone(),
                prop::collection::vec(-50i64..50, 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list: list.into_iter().map(Value::Long).collect(),
                    negated,
                }),
            (
                prop::sample::select(vec![
                    ScalarFn::Abs,
                    ScalarFn::Log,
                    ScalarFn::Lower,
                    ScalarFn::Length,
                ]),
                inner.clone()
            )
                .prop_map(|(func, a)| Expr::Call {
                    func,
                    args: vec![a],
                }),
            (inner.clone(), inner).prop_map(|(h, n)| Expr::Call {
                func: ScalarFn::Contains,
                args: vec![h, n],
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse is the identity on expression ASTs: the canonical
    /// rendering parses back to exactly the same tree.
    #[test]
    fn printed_expressions_parse_back_identically(e in arb_printable_expr()) {
        let printed = print_expr(&e);
        let parsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("unparseable rendering {printed:?}: {err}"));
        prop_assert_eq!(parsed, e, "round trip changed the AST via {}", printed);
    }
}
