//! Property-based tests of scrub-core invariants: the wire codec, the
//! value ordering, the lexer/parser's totality, and planner determinism.

use std::cmp::Ordering;

use proptest::prelude::*;

use scrub_core::columnar::{ChunkBuilder, ColumnarFrame, FORMAT_COLUMNAR};
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, QueryId};
use scrub_core::prelude::*;
use scrub_core::ql::lexer::lex;
use scrub_core::value::Scalar;

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

/// Field-by-field equality that holds for NaN (through the total order).
fn assert_same_events(a: &[Event], b: &[Event]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.type_id, y.type_id);
        assert_eq!(x.request_id, y.request_id);
        assert_eq!(x.timestamp, y.timestamp);
        assert_eq!(x.values.len(), y.values.len());
        for (v, w) in x.values.iter().zip(&y.values) {
            assert_eq!(v.group_key(), w.group_key());
        }
    }
}

/// The same scalar, bit for bit (NaN included).
fn same_scalar(a: Scalar<'_>, b: Scalar<'_>) -> bool {
    match (a, b) {
        (Scalar::Null, Scalar::Null) => true,
        (Scalar::Num(x), Scalar::Num(y)) => x.to_bits() == y.to_bits(),
        (Scalar::Str(x), Scalar::Str(y)) => x == y,
        (Scalar::Other(x), Scalar::Other(y)) => x.group_key() == y.group_key(),
        _ => false,
    }
}

proptest! {
    /// Decoding arbitrary bytes as a frame never panics — it returns Ok
    /// or Err.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let frame = ColumnarFrame { bytes, ..ColumnarFrame::from_events(&[]) };
        let _ = frame.decode();
        let _ = frame.for_each_meta(|_, _| {});
    }

    /// Columnar frames round-trip any batch: empty batches, null cells
    /// (validity bitmaps), and list/nested values (tagged fallback
    /// columns) included — and are byte for byte the frames the row-major
    /// encoder the builder replaced wrote.
    #[test]
    fn columnar_codec_round_trips(events in prop::collection::vec(arb_event(), 0..20)) {
        let frame = ColumnarFrame::from_events(&events);
        prop_assert_eq!(&frame.bytes, &reference::frame(&events));
        assert_same_events(&frame.to_events().unwrap(), &events);
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
                    let v = col.value_ref(i);
                    prop_assert!(same_scalar(col.scalar(i), v.scalar()), "{:?}", v);
                }
                idx += 1;
            }
        }
        prop_assert_eq!(idx, events.len());
    }

    /// Frames pushed through the builder — a fresh one per batch, and one
    /// reused across every batch of the case, as a tap keeps it — are byte
    /// for byte what the row-major encoder the builder replaced wrote: the
    /// same runs, the same column representation (typed, nullable,
    /// dictionary, all-null, per-row fallback), the same bits.
    #[test]
    fn builder_frames_equal_the_row_major_reference(
        batches in prop::collection::vec((
            [0u8..10, 0u8..10, 0u8..10],
            // few types and arities, so runs are longer than one event
            prop::collection::vec((0u32..2, 0usize..4, [any::<u64>(), any::<u64>(), any::<u64>()]), 0..24),
        ), 1..4),
    ) {
        // a column holds one variant plus nulls, unless its kind says
        // mixed (8) or nested (9)
        let cell = |kind: u8, seed: u64| match (if kind >= 8 { seed % (kind as u64 + 1) } else { kind as u64 }, seed % 4) {
            (7, _) | (0..=6, 0) => Value::Null,
            (0, _) => Value::Bool(seed % 8 > 3),
            (1, _) => Value::Int(seed as i32),
            (2, _) => Value::Long(seed as i64),
            (3, _) => Value::Float(f32::from_bits(seed as u32)),
            (4, _) => Value::Double(f64::from_bits(seed)),
            (5, _) => Value::DateTime(seed as i64),
            (8, _) => Value::List(vec![Value::Int(seed as i32), Value::Null]),
            (9, _) => Value::Nested(vec![("k".into(), Value::Double(f64::from_bits(seed)))]),
            _ => Value::Str(format!("s{}", seed % 3)),
        };
        let mut reused = ChunkBuilder::new(EventTypeId(1), 2);
        for (kinds, rows) in &batches {
            let events: Vec<Event> = rows
                .iter()
                .enumerate()
                .map(|(i, (type_id, arity, seeds))| {
                    let values = (0..*arity).map(|c| cell(kinds[c % 3], seeds[c % 3])).collect();
                    Event::new(EventTypeId(*type_id), RequestId(seeds[0]), i as i64, values)
                })
                .collect();
            let want = reference::frame(&events);
            prop_assert_eq!(&ColumnarFrame::from_events(&events).bytes, &want);
            // the tap's shape: one type, one arity, one builder for life
            let tapped: Vec<Event> = events
                .into_iter()
                .map(|mut e| {
                    e.type_id = EventTypeId(1);
                    e.values.resize(2, Value::Null);
                    e
                })
                .collect();
            for e in &tapped {
                reused.push_row(e.request_id.0, e.timestamp, &e.values);
            }
            prop_assert_eq!(reused.take_frame().bytes, reference::frame(&tapped));
        }
    }

    /// The columnar decoder is total: any byte soup behind a
    /// `[0x00, FORMAT_COLUMNAR]` header returns Ok or Err, never panics.
    #[test]
    fn columnar_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut framed = vec![0u8, FORMAT_COLUMNAR];
        framed.extend_from_slice(&bytes);
        let frame = ColumnarFrame { bytes: framed, ..ColumnarFrame::from_events(&[]) };
        let _ = frame.decode();
        let _ = frame.for_each_meta(|_, _| {});
    }

    /// total_cmp is antisymmetric and transitive (a genuine total order).
    #[test]
    fn value_order_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
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
            prop_assert_eq!(a.total_cmp(&b), Ordering::Equal);
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

    /// The front end never panics on query-shaped input either: parse,
    /// then compile whatever parses.
    #[test]
    fn parser_total_on_query_shaped(
        field in "[a-z]{1,6}",
        num in any::<i32>(),
        tail in "[a-z0-9 ()<>=%.,;*@\\[\\]]{0,60}",
    ) {
        let reg = three_types();
        for src in [
            format!("select {field} from bid where {field} > {num} {tail}"),
            format!("select COUNT(*) from {field} {tail}"),
        ] {
            if let Ok(q) = parse_query(&src) {
                let _ = compile(&q, &reg, &ScrubConfig::default(), QueryId(1));
            }
        }
    }
}

proptest! {
    // a pair of one kind is rare in arbitrary values: draw many
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Scalar::compare`, the one comparability and order rule, is
    /// antisymmetric, orders as the total order wherever it answers, and
    /// answers exactly when neither value is null and both are of one
    /// kind: numbers, strings, or lists or nested objects of one type.
    #[test]
    fn scalar_compare_is_the_total_order_within_a_kind(a in arb_value(), b in arb_value()) {
        let ab = a.scalar().compare(b.scalar());
        prop_assert_eq!(ab, b.scalar().compare(a.scalar()).map(Ordering::reverse));
        if let Some(o) = ab {
            prop_assert_eq!(o, a.total_cmp(&b));
        }
        let kind = |v: &Value| match v {
            Value::Null => None,
            v if v.as_f64().is_some() => Some("number"),
            v => Some(v.type_name()),
        };
        prop_assert_eq!(ab.is_some(), kind(&a).is_some() && kind(&a) == kind(&b));
    }
}

/// The schema the front-end properties compile against.
fn three_types() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    let types: [(&str, &[(&str, FieldType)]); 3] = [
        (
            "bid",
            &[
                ("user_id", FieldType::Long),
                ("exchange_id", FieldType::Long),
                ("bid_price", FieldType::Double),
                ("city", FieldType::Str),
            ],
        ),
        (
            "impression",
            &[
                ("line_item_id", FieldType::Long),
                ("exchange_id", FieldType::Long),
                ("cost", FieldType::Double),
            ],
        ),
        (
            "exclusion",
            &[
                ("line_item_id", FieldType::Long),
                ("reason", FieldType::Str),
                ("flag", FieldType::Bool),
            ],
        ),
    ];
    for (name, fields) in types {
        let fields = fields
            .iter()
            .map(|(f, t)| FieldDef::new(*f, t.clone()))
            .collect();
        reg.register(EventSchema::new(name, fields).unwrap())
            .unwrap();
    }
    reg
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
use scrub_core::ql::printer::{print_expr, print_query};

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

// ---------------------------------------------------------------------------
// Token-level mutations of valid queries through the whole front end
// ---------------------------------------------------------------------------

/// The valid queries the mutations start from: the paper's Figures 9, 11
/// and 13, the join the CLI's `explain` test shows, and the printer's
/// full-feature query.
const SEED_QUERIES: [&str; 5] = [
    "Select bid.user_id, COUNT(*) from bid \
     @[Service in BidServers and Server = host1] group by bid.user_id;",
    "select COUNT(*) from impression @[Service in PresentationServers and DC = DC1] \
     sample hosts 10% events 10% window 10 s group by impression.exchange_id",
    "Select 1000*AVG(impression.cost) from impression \
     where impression.line_item_id = 42 @[Servers in (h1, h2, h3)];",
    "select COUNT(*) from bid, exclusion where bid.exchange_id = 1 group by exclusion.reason",
    "select e.a, COUNT(*), SUM(e.b), TOP(5, e.c), COUNT_DISTINCT(e.d) as cd \
     from e where (e.a > 3 and e.b in (1, -2.5, 'x')) or not e.flag \
     @[not (DC = DC2) or Service in (A, B)] \
     group by e.a window 90 s slide 30 s \
     sample hosts 25% events 10% start in 5 m duration 1 h",
];

/// Replacement tokens beyond the seeds' own, whitespace-separated: raw
/// and quoted NUL and multi-byte UTF-8, escapes, operators, an
/// out-of-range integer, and keywords from every clause.
const EXTRA_TOKENS: &str =
    "\0 é 日本 '\0agg:sum' 'é' 'it\\'s' 'a\\\\b' \"q\" - + / % != <= 0 -1 2.5 \
     1e3 99999999999999999999 abs MIN MAX distinct is null between in as join on having order \
     slide start at now ms d bid exclusion";

/// A seed query's tokens, as source text.
fn seed_tokens(src: &str) -> Vec<String> {
    let toks = lex(src).unwrap();
    toks.windows(2)
        .map(|w| src[w[0].pos..w[1].pos].trim().to_string())
        .collect()
}

/// A seed query with one or two tokens deleted, duplicated, swapped or
/// replaced.
fn arb_mutated_query() -> impl Strategy<Value = String> {
    let seeds: Vec<Vec<String>> = SEED_QUERIES.iter().map(|q| seed_tokens(q)).collect();
    let mut pool: Vec<String> = seeds.concat();
    pool.extend(EXTRA_TOKENS.split_whitespace().map(String::from));
    pool.sort();
    pool.dedup();
    let edit = (
        0u8..4,
        any::<usize>(),
        any::<usize>(),
        prop::sample::select(pool),
    );
    (
        prop::sample::select(seeds),
        prop::collection::vec(edit, 1..3),
    )
        .prop_map(|(mut toks, edits)| {
            for (op, at, other, with) in edits {
                let (i, j) = (at % toks.len(), other % toks.len());
                match op {
                    0 => drop(toks.remove(i)),
                    1 => toks.insert(i, toks[i].clone()),
                    2 => toks.swap(i, j),
                    _ => toks[i] = with,
                }
            }
            toks.join(" ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Mutated queries go through lex → parse → compile without a panic,
    /// and every one that parses prints to text that parses back to the
    /// same `QuerySpec`.
    #[test]
    fn mutated_queries_are_total_and_round_trip(src in arb_mutated_query()) {
        if let Ok(q) = parse_query(&src) {
            let _ = compile(&q, &three_types(), &ScrubConfig::default(), QueryId(1));
            let printed = print_query(&q);
            let back = parse_query(&printed);
            prop_assert_eq!(back.as_ref().ok(), Some(&q), "{:?} printed as {:?}", src, printed);
        }
    }
}

// ---------------------------------------------------------------------------
// Frames pinned to the bytes the encoder wrote before the tap built columns
// ---------------------------------------------------------------------------

/// Typed columns of every kind (nulls, NaN bits, -0.0, a dictionary, an
/// all-null column), and a mixed batch (Int/Long, list, nested, a type
/// change between runs).
fn golden_fixtures() -> Vec<(&'static str, Vec<Event>)> {
    let ev = |t: u32, rid: u64, ts: i64, values: Vec<Value>| {
        Event::new(EventTypeId(t), RequestId(rid), ts, values)
    };
    let typed = (0..4u64)
        .map(|i| {
            let pick = |vs: [Value; 4]| vs[i as usize].clone();
            ev(
                3,
                1_000 + i * 77,
                1_700_000_000_000 + i as i64 * 250,
                vec![
                    pick([
                        Value::Long(7),
                        Value::Null,
                        Value::Long(-300),
                        Value::Long(1 << 40),
                    ]),
                    pick([
                        Value::Double(0.5),
                        Value::Double(f64::from_bits(0x7ff8_0000_0000_0001)),
                        Value::Double(-0.0),
                        Value::Double(1e9),
                    ]),
                    pick([
                        Value::Str("de".into()),
                        Value::Str("fr".into()),
                        Value::Str("de".into()),
                        Value::Null,
                    ]),
                    pick([
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Null,
                        Value::Bool(true),
                    ]),
                    pick([
                        Value::Int(-1),
                        Value::Int(2),
                        Value::Int(3),
                        Value::Int(i32::MIN),
                    ]),
                    pick([
                        Value::DateTime(1_700_000_000_000),
                        Value::DateTime(-5),
                        Value::DateTime(0),
                        Value::DateTime(86_400_000),
                    ]),
                    Value::Null,
                    pick([
                        Value::Float(1.5),
                        Value::Float(-2.25),
                        Value::Null,
                        Value::Float(f32::from_bits(0x7fc0_0001)),
                    ]),
                ],
            )
        })
        .collect();
    let mixed = vec![
        ev(
            1,
            1,
            5,
            vec![Value::Int(1), Value::List(vec![Value::Long(2)])],
        ),
        ev(
            1,
            2,
            6,
            vec![
                Value::Long(9),
                Value::Nested(vec![("k".into(), Value::Str("v".into()))]),
            ],
        ),
        ev(2, 3, -7, vec![]),
        ev(1, 4, 8, vec![Value::Str("x".into()), Value::Null]),
    ];
    vec![("empty", vec![]), ("typed", typed), ("mixed", mixed)]
}

/// Captured at the commit before the column builders, from its
/// `ColumnarFrame::from_events`.
const GOLDEN_FRAMES: [(&str, &str); 3] = [
    ("empty", "000200"),
    (
        "typed",
        "000204030804e807b5088209cf0980a0abfef962f4a3abfef962e8a7abfef962dcab\
         abfef962830a0d0ed70480808080804005203fe00000000000007ff8000000000001\
         800000000000000041cdcd6500000000870b070202646502667200010081020b0502\
         08010406ffffffff0f060c80a0abfef962090080f0b2520000840d0b3fc00000c010\
         00007fc00001",
    ),
    (
        "mixed",
        "00020401020201020a0c080403020412080b090104040a01016b080176020001030d\
         01020104100704010178000000",
    ),
];

#[test]
fn frames_match_the_bytes_captured_before_the_builders() {
    for ((name, events), (golden_name, hex)) in golden_fixtures().into_iter().zip(GOLDEN_FRAMES) {
        assert_eq!(name, golden_name);
        let frame = ColumnarFrame::from_events(&events);
        let got: String = frame.bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "{name}");
        let mut builder = ChunkBuilder::new(EventTypeId(3), 8);
        if name == "typed" {
            for e in &events {
                builder.push_row(e.request_id.0, e.timestamp, &e.values);
            }
            assert_eq!(
                builder.take_frame(),
                frame,
                "the tap's builder writes it too"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The row-major columnar encoder the tap's column builders replaced, kept
// as the reference the frames on the wire are pinned to
// ---------------------------------------------------------------------------

mod reference {
    use std::collections::HashMap;

    use bytes::BufMut;
    use scrub_core::columnar::FORMAT_COLUMNAR;
    use scrub_core::event::Event;
    use scrub_core::value::Value;

    const COL_NULL: u8 = 0;
    const COL_BOOL: u8 = 1;
    const COL_INT: u8 = 2;
    const COL_LONG: u8 = 3;
    const COL_FLOAT: u8 = 4;
    const COL_DOUBLE: u8 = 5;
    const COL_DATETIME: u8 = 6;
    const COL_STR: u8 = 7;
    const COL_MIXED: u8 = 8;
    const COL_NULLABLE: u8 = 0x80;

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.put_u8(byte);
                return;
            }
            buf.put_u8(byte | 0x80);
        }
    }

    /// The event codec's tagged value encoding.
    fn put_value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => buf.put_u8(0),
            Value::Bool(false) => buf.put_u8(1),
            Value::Bool(true) => buf.put_u8(2),
            Value::Int(x) => {
                buf.put_u8(3);
                put_varint(buf, zigzag(*x as i64));
            }
            Value::Long(x) => {
                buf.put_u8(4);
                put_varint(buf, zigzag(*x));
            }
            Value::Float(x) => {
                buf.put_u8(5);
                buf.put_f32(*x);
            }
            Value::Double(x) => {
                buf.put_u8(6);
                buf.put_f64(*x);
            }
            Value::DateTime(x) => {
                buf.put_u8(7);
                put_varint(buf, zigzag(*x));
            }
            Value::Str(s) => {
                buf.put_u8(8);
                put_varint(buf, s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
            Value::List(vs) => {
                buf.put_u8(9);
                put_varint(buf, vs.len() as u64);
                vs.iter().for_each(|v| put_value(buf, v));
            }
            Value::Nested(kv) => {
                buf.put_u8(10);
                put_varint(buf, kv.len() as u64);
                for (k, v) in kv {
                    put_varint(buf, k.len() as u64);
                    buf.put_slice(k.as_bytes());
                    put_value(buf, v);
                }
            }
        }
    }

    /// The whole frame: header, count, one chunk per `(type_id, arity)` run.
    pub fn frame(events: &[Event]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u8(0x00);
        buf.put_u8(FORMAT_COLUMNAR);
        put_varint(&mut buf, events.len() as u64);
        let mut scratch = Vec::new();
        for chunk in
            events.chunk_by(|a, b| a.type_id == b.type_id && a.values.len() == b.values.len())
        {
            let arity = chunk[0].values.len();
            put_varint(&mut buf, chunk[0].type_id.0 as u64);
            put_varint(&mut buf, arity as u64);
            put_varint(&mut buf, chunk.len() as u64);
            for ev in chunk {
                put_varint(&mut buf, ev.request_id.0);
            }
            for ev in chunk {
                put_varint(&mut buf, zigzag(ev.timestamp));
            }
            for col in 0..arity {
                encode_column(&mut buf, &mut scratch, chunk, col);
            }
        }
        buf
    }

    /// One base tag for the column, plus whether it needs a validity
    /// bitmap; any variant mixing (or list/nested value) forces the
    /// per-row fallback.
    fn classify_column(chunk: &[Event], col: usize) -> (u8, bool) {
        let mut has_nulls = false;
        let mut tag: Option<u8> = None;
        for ev in chunk {
            let t = match &ev.values[col] {
                Value::Null => {
                    has_nulls = true;
                    continue;
                }
                Value::Bool(_) => COL_BOOL,
                Value::Int(_) => COL_INT,
                Value::Long(_) => COL_LONG,
                Value::Float(_) => COL_FLOAT,
                Value::Double(_) => COL_DOUBLE,
                Value::DateTime(_) => COL_DATETIME,
                Value::Str(_) => COL_STR,
                Value::List(_) | Value::Nested(_) => return (COL_MIXED, false),
            };
            match tag {
                None => tag = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => return (COL_MIXED, false),
            }
        }
        match tag {
            None => (COL_NULL, false),
            Some(t) => (t, has_nulls),
        }
    }

    fn put_bitmap(buf: &mut Vec<u8>, bits: impl ExactSizeIterator<Item = bool>) {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, b) in bits.enumerate() {
            if b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        buf.put_slice(&bytes);
    }

    fn encode_column(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, chunk: &[Event], col: usize) {
        let (base, has_nulls) = classify_column(chunk, col);
        scratch.clear();
        if has_nulls {
            put_bitmap(
                scratch,
                chunk.iter().map(|ev| ev.values[col] != Value::Null),
            );
        }
        let cells = || chunk.iter().map(|ev| &ev.values[col]);
        match base {
            COL_NULL => {}
            COL_MIXED => cells().for_each(|v| put_value(scratch, v)),
            COL_BOOL => {
                let bools: Vec<bool> = cells().filter_map(Value::as_bool).collect();
                put_bitmap(scratch, bools.into_iter());
            }
            COL_STR => {
                let mut dict: Vec<&str> = Vec::new();
                let mut lookup: HashMap<&str, u32> = HashMap::new();
                let mut idx: Vec<u32> = Vec::new();
                for v in cells() {
                    if let Value::Str(s) = v {
                        let id = *lookup.entry(s.as_str()).or_insert_with(|| {
                            dict.push(s.as_str());
                            (dict.len() - 1) as u32
                        });
                        idx.push(id);
                    }
                }
                put_varint(scratch, dict.len() as u64);
                for s in &dict {
                    put_varint(scratch, s.len() as u64);
                    scratch.put_slice(s.as_bytes());
                }
                idx.into_iter()
                    .for_each(|id| put_varint(scratch, id as u64));
            }
            _ => {
                for v in cells() {
                    match v {
                        Value::Int(x) => put_varint(scratch, zigzag(*x as i64)),
                        Value::Long(x) | Value::DateTime(x) => put_varint(scratch, zigzag(*x)),
                        Value::Float(x) => scratch.put_f32(*x),
                        Value::Double(x) => scratch.put_f64(*x),
                        _ => {}
                    }
                }
            }
        }
        buf.put_u8(base | if has_nulls { COL_NULLABLE } else { 0 });
        put_varint(buf, scratch.len() as u64);
        buf.put_slice(scratch.as_ref());
    }
}
